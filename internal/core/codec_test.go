package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"sessionproblem/internal/fault"
	"sessionproblem/internal/timing"
	"sessionproblem/internal/trace"
)

// fullSummary builds a summary with every field populated, including the
// audit and span slices a faulted run produces.
func fullSummary() *RunSummary {
	return &RunSummary{
		Algorithm: "A(p)",
		Model:     timing.Periodic,
		Spec:      Spec{S: 4, N: 3, B: 2},
		Finish:    123,
		Sessions:  4,
		Rounds:    7,
		Gamma:     11,
		Messages:  42,
		Steps:     250,
		Faults:    3,
		Audit: fault.Audit{
			Verdict:          fault.VerdictRecovered,
			Violations:       fault.Violations{Text: []string{"t=3 crash port 1", "step overrun at t=9"}},
			SessionsAchieved: 4,
			SessionsRequired: 4,
			PortsIdle:        true,
			FaultsInjected:   3,
		},
		Spans: []trace.SessionSpan{
			{Index: 1, FirstStep: 0, LastStep: 8, Start: 0, End: 20},
			{Index: 2, FirstStep: 9, LastStep: 17, Start: 21, End: 55},
		},
	}
}

func TestSummaryCodecRoundTrip(t *testing.T) {
	want := fullSummary()
	data, err := EncodeSummary(want)
	if err != nil {
		t.Fatalf("EncodeSummary: %v", err)
	}
	got, err := DecodeSummary(data)
	if err != nil {
		t.Fatalf("DecodeSummary: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestEncodeSummaryBytes pins the v1 encoding byte for byte: disk-cache
// objects and journal frames written by earlier builds must keep decoding,
// and new ones must not drift. "first" repeats the first violation.
func TestEncodeSummaryBytes(t *testing.T) {
	data, err := EncodeSummary(fullSummary())
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"v":1,"alg":"A(p)","model":2,"s":4,"n":3,"b":2,"finish":123,"sessions":4,"rounds":7,"gamma":11,"messages":42,"steps":250,"faults":3,` +
		`"audit":{"verdict":2,"violations":["t=3 crash port 1","step overrun at t=9"],"first":"t=3 crash port 1","achieved":4,"required":4,"portsIdle":true,"injected":3},` +
		`"spans":[{"i":1,"fs":0,"ls":8,"start":0,"end":20},{"i":2,"fs":9,"ls":17,"start":21,"end":55}]}`
	if string(data) != want {
		t.Errorf("EncodeSummary:\n got %s\nwant %s", data, want)
	}
}

// A real run's summary must round-trip exactly: this is the property the
// disk cache tier depends on for byte-identical cached results. The faulted
// run's violations are rendered by Summarize and come back as that text.
func TestSummaryCodecRoundTripRealRun(t *testing.T) {
	m := timing.NewSynchronous(2, 5)
	plain, err := RunMP(fixedMP{k: 3}, Spec{S: 3, N: 3}, m, timing.Slow, 1)
	if err != nil {
		t.Fatalf("RunMP: %v", err)
	}
	faulted, err := RunMPFaulted(context.Background(), chattyMP{}, Spec{S: 1, N: 3}, m, timing.Slow, 1,
		FaultRun{Injector: dropAll{}, MaxSteps: 500})
	if err != nil {
		t.Fatalf("RunMPFaulted: %v", err)
	}
	for _, rep := range []*Report{plain, faulted} {
		want := Summarize(rep)
		data, err := EncodeSummary(want)
		if err != nil {
			t.Fatalf("EncodeSummary: %v", err)
		}
		got, err := DecodeSummary(data)
		if err != nil {
			t.Fatalf("DecodeSummary: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("real-run round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
		if gotList, wantList := got.Audit.Violations.Strings(), rep.Audit.Violations.Strings(); !reflect.DeepEqual(gotList, wantList) {
			t.Errorf("decoded violations %q, report renders %q", gotList, wantList)
		}
	}
	if faulted.Audit.Violations.Len() == 0 {
		t.Fatal("the faulted run recorded no violations")
	}
}

func TestSummaryCodecVersionMismatch(t *testing.T) {
	data, err := EncodeSummary(fullSummary())
	if err != nil {
		t.Fatalf("EncodeSummary: %v", err)
	}
	bumped := strings.Replace(string(data), `{"v":1,`, `{"v":2,`, 1)
	if bumped == string(data) {
		t.Fatalf("encoded summary does not start with the version field: %s", data)
	}
	if _, err := DecodeSummary([]byte(bumped)); err == nil {
		t.Error("DecodeSummary accepted a future codec version")
	}
}

func TestSummaryCodecRejectsGarbage(t *testing.T) {
	for _, bad := range [][]byte{nil, {}, []byte("{"), []byte(`"hi"`), []byte(`{"v":0}`)} {
		if _, err := DecodeSummary(bad); err == nil {
			t.Errorf("DecodeSummary(%q) succeeded, want error", bad)
		}
	}
}

func TestEncodeSummaryNil(t *testing.T) {
	if _, err := EncodeSummary(nil); err == nil {
		t.Error("EncodeSummary(nil) succeeded, want error")
	}
}

// FuzzDecodeSummary holds the summary decoder, which reads disk-cache
// objects and journal frames a crash may have damaged, to two rules: it
// never panics, and a summary it returns comes back unchanged through
// EncodeSummary and DecodeSummary.
func FuzzDecodeSummary(f *testing.F) {
	full, err := EncodeSummary(fullSummary())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add([]byte(`{"v":1,"alg":"x","audit":{"violations":[]},"spans":[{"i":1}]}`))
	f.Add([]byte(`{"v":2}`))
	f.Add([]byte("\x00garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sum, err := DecodeSummary(data)
		if err != nil {
			return
		}
		enc, err := EncodeSummary(sum)
		if err != nil {
			t.Fatalf("EncodeSummary of a decoded summary: %v", err)
		}
		got, err := DecodeSummary(enc)
		if err != nil {
			t.Fatalf("DecodeSummary of %s: %v", enc, err)
		}
		if len(sum.Audit.Violations.Text) == 0 {
			sum.Audit.Violations.Text = nil // the encoder omits an empty list
		}
		if !reflect.DeepEqual(got, sum) {
			t.Fatalf("round trip changed the summary:\n got %+v\nwant %+v", got, sum)
		}
	})
}
