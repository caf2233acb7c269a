package certify_test

import (
	"reflect"
	"testing"

	"sessionproblem/internal/certify"
	"sessionproblem/internal/model"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
	"sessionproblem/internal/trace"
)

// fuzzModels is one instance of every timing.Kind, with constants small
// enough that random gaps and delays land on both sides of each bound.
var fuzzModels = []timing.Model{
	timing.NewSynchronous(2, 3),
	timing.NewPeriodic(2, 4, 5),
	timing.NewSemiSynchronous(1, 3, 5),
	timing.NewSporadic(2, 1, 6, 0),
	timing.NewAsynchronousSM(4),
	timing.NewAsynchronousMP(3, 5),
}

// event is one decoded stream record: a step, or (delay) a message delay.
type event struct {
	step  model.Step
	delay *timing.MessageDelay
}

// decodeStream turns fuzz bytes into a model, a system size and an
// interleaved stream of steps and message delays, in the order an executor
// would hand them to its observers. Byte 0 picks the model (values 6–11
// add WithSynchronizedStart), byte 1 the process count (1–4) and port
// count (0–4), and every following 4-byte record [ctl, a, b, dt] one event:
// ctl%4 == 3 is a delay from a to b of dt%16 ticks; otherwise a step of
// process a (the last value is the network) on port b (the last value is
// NoPort), dt%6 ticks after the previous step. ctl/4 values 12–15 malform
// the step: an index jump, time going backwards, a process or a port out of
// range.
func decodeStream(data []byte) (timing.Model, int, int, []event) {
	if len(data) < 2 {
		return fuzzModels[0], 1, 1, nil
	}
	sel := int(data[0]) % (2 * len(fuzzModels))
	m := fuzzModels[sel%len(fuzzModels)]
	if sel >= len(fuzzModels) {
		m = m.WithSynchronizedStart()
	}
	numProcs, numPorts := 1+int(data[1])%4, int(data[1]>>2)%5
	var evs []event
	var clock sim.Time
	steps := 0
	for rec := data[2:]; len(rec) >= 4 && len(evs) < 256; rec = rec[4:] {
		ctl, a, b, dt := int(rec[0]), int(rec[1]), int(rec[2]), int(rec[3])
		if ctl%4 == 3 {
			d := timing.MessageDelay{Src: a % numProcs, Dst: b % numProcs, Sent: clock}
			d.Delivered = d.Sent.Add(sim.Duration(dt % 16))
			evs = append(evs, event{delay: &d})
			continue
		}
		s := model.Step{Index: steps, Proc: a % (numProcs + 1), Port: b % (numPorts + 1)}
		if s.Proc == numProcs {
			s.Proc = model.NetworkProc
		}
		if s.Port == numPorts {
			s.Port = model.NoPort
		}
		switch ctl / 4 % 16 {
		case 12:
			s.Index += 1 + dt%3
		case 13:
			s.Time = clock.Add(-sim.Duration(1 + dt%3))
		case 14:
			s.Proc = -2
			if dt%2 == 0 {
				s.Proc = numProcs
			}
		case 15:
			s.Port = -2
			if dt%2 == 0 {
				s.Port = numPorts
			}
		}
		if ctl/4%16 != 13 {
			clock = clock.Add(sim.Duration(dt % 6))
			s.Time = clock
		}
		evs = append(evs, event{step: s})
		steps++
	}
	return m, numProcs, numPorts, evs
}

// FuzzCounterMatchesTrace holds the online certifier to the trace methods
// it replaces: a fail-fast Counter must report CheckAdmissible's error, a
// collecting one AdmissibilityViolations' list, and on well-formed streams
// the counts and spans must equal the model.Trace and trace.Sessions
// decompositions of the recorded trace.
func FuzzCounterMatchesTrace(f *testing.F) {
	rng := sim.NewRNG(7)
	for sel := 0; sel < 2*len(fuzzModels); sel++ {
		seed := []byte{byte(sel), byte(rng.Uint64())}
		for i := 0; i < 4*40; i++ {
			b := byte(rng.Uint64())
			if i%4 == 0 {
				b &= 0x2f // keep generated seeds mostly well formed
			}
			seed = append(seed, b)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, numProcs, numPorts, evs := decodeStream(data)
		tr := &model.Trace{NumProcs: numProcs, NumPorts: numPorts}
		var delays []timing.MessageDelay
		failFast := certify.New(numProcs, numPorts).CheckAdmissibility(m)
		collecting := certify.New(numProcs, numPorts).CollectViolations(m)
		for _, ev := range evs {
			if ev.delay != nil {
				delays = append(delays, *ev.delay)
				failFast.ObserveDelay(*ev.delay)
				collecting.ObserveDelay(*ev.delay)
				continue
			}
			tr.Steps = append(tr.Steps, ev.step)
			failFast.ObserveStep(ev.step)
			collecting.ObserveStep(ev.step)
		}

		if got, want := errText(failFast.Err()), errText(m.CheckAdmissible(tr, delays)); got != want {
			t.Fatalf("%v: Err() = %q, CheckAdmissible = %q", m.Kind, got, want)
		}
		got, gotErr := collecting.Violations()
		want, wantErr := m.AdmissibilityViolations(tr, delays)
		if !reflect.DeepEqual(got, want) || errText(gotErr) != errText(wantErr) {
			t.Fatalf("%v: Violations() = %v, %v; AdmissibilityViolations = %v, %v", m.Kind, got, gotErr, want, wantErr)
		}
		if tr.Validate() != nil {
			return
		}
		for _, c := range []*certify.Counter{failFast, collecting} {
			if c.Sessions() != tr.CountSessions() || c.Rounds() != tr.CountRounds() ||
				c.Gamma() != tr.Gamma() || c.Steps() != len(tr.Steps) {
				t.Fatalf("counts: sessions %d rounds %d gamma %v steps %d; trace %d %d %v %d",
					c.Sessions(), c.Rounds(), c.Gamma(), c.Steps(),
					tr.CountSessions(), tr.CountRounds(), tr.Gamma(), len(tr.Steps))
			}
			if got, want := c.Spans(), trace.Sessions(tr); !reflect.DeepEqual(got, want) {
				t.Fatalf("spans: %+v, trace.Sessions %+v", got, want)
			}
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
