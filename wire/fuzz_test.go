package wire

import (
	"reflect"
	"testing"

	"sessionproblem"
)

// roundTrip decodes data with unmarshal and, when it is accepted, checks
// that the value re-marshals to a document that decodes to an equal value.
// norm maps the empty collections omitempty drops onto nil first.
func roundTrip[T any](t *testing.T, data []byte, marshal func(T) ([]byte, error), unmarshal func([]byte) (T, error), norm func(T) T) {
	t.Helper()
	v, err := unmarshal(data)
	if err != nil {
		return
	}
	again, err := marshal(v)
	if err != nil {
		t.Fatalf("re-marshal of accepted %q: %v", data, err)
	}
	w, err := unmarshal(again)
	if err != nil {
		t.Fatalf("decode of re-marshaled %q: %v", again, err)
	}
	if a, b := norm(v), norm(w); !reflect.DeepEqual(a, b) {
		t.Fatalf("round trip of %q changed the value:\n got %+v\nwant %+v", data, b, a)
	}
}

func same[T any](v T) T { return v }

// normReport maps the report's empty omitempty collections onto nil.
func normReport(r *sessionproblem.Report) *sessionproblem.Report {
	c := *r
	if len(c.Spans) == 0 {
		c.Spans = nil
	}
	if len(c.Violations) == 0 {
		c.Violations = nil
	}
	if len(c.RobustnessMargins) == 0 {
		c.RobustnessMargins = nil
	}
	return &c
}

// FuzzUnmarshal holds every v1 decoder, which reads documents a client or
// another process sent, to its contract: it never panics, and bytes it
// accepts re-marshal to a document that decodes to an equal value.
func FuzzUnmarshal(f *testing.F) {
	for _, doc := range []func() ([]byte, error){
		func() ([]byte, error) { return MarshalTable(sampleCells()) },
		func() ([]byte, error) {
			return MarshalHierarchy([]sessionproblem.HierarchyRow{{Model: "periodic", Comm: "MP", Unit: "time", WorstTime: 12}})
		},
		func() ([]byte, error) {
			return MarshalSweep([]sessionproblem.SweepPoint{{X: -0.5, Label: "d1=2", Measured: 1e300}})
		},
		func() ([]byte, error) {
			return MarshalReport(&sessionproblem.Report{Model: "sporadic", Spans: []sessionproblem.SessionSpan{{Index: 1, End: 9}},
				RobustnessMargins: map[sessionproblem.FaultKind]float64{sessionproblem.FaultCrash: 0.2}})
		},
		func() ([]byte, error) { return MarshalRepair(Repair{Journal: "j", Frames: 2, Truncated: true}) },
	} {
		data, err := doc()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"v":1,"kind":"report","report":{"spans":[],"violations":[],"robustnessMargins":{}}}`))
	f.Add([]byte(`{"v":1,"kind":"table1","cells":null}`))
	f.Add([]byte(`{"v":2,"kind":"sweep"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data, MarshalTable, UnmarshalTable, same[[]sessionproblem.TableCell])
		roundTrip(t, data, MarshalHierarchy, UnmarshalHierarchy, same[[]sessionproblem.HierarchyRow])
		roundTrip(t, data, MarshalSweep, UnmarshalSweep, same[[]sessionproblem.SweepPoint])
		roundTrip(t, data, MarshalReport, UnmarshalReport, normReport)
		roundTrip(t, data, MarshalRepair, UnmarshalRepair, same[Repair])
	})
}
