package mp_test

import (
	"testing"

	"sessionproblem/internal/mp"
	"sessionproblem/internal/sim"
)

// chatter is a deliberately allocation-free process: it broadcasts a
// pre-boxed body a fixed number of times, then idles. Any allocation
// AllocsPerRun observes below is the executor's own.
type chatter struct {
	left int
	body any // boxed once at construction
}

func (c *chatter) Idle() bool { return c.left == 0 }
func (c *chatter) Step(received []mp.Message) any {
	if c.left == 0 {
		return nil
	}
	c.left--
	return c.body
}

// constSched steps every process with a fixed gap and delivers every message
// with a fixed delay.
type constSched struct {
	gap   sim.Duration
	delay sim.Duration
}

func (s constSched) Gap(int) sim.Duration        { return s.gap }
func (s constSched) Delay(int, int) sim.Duration { return s.delay }

// TestRunSteadyStateAllocs pins the executor's per-step allocation budget:
// with a warmed Scratch, a full run costs at most one allocation per
// recorded step (amortized — the budget covers the Result and the trace and
// delay log it owns, and leaves the delivery/step hot path itself
// allocation-free).
func TestRunSteadyStateAllocs(t *testing.T) {
	const procs = 8
	build := func() *mp.System {
		sys := &mp.System{}
		for p := 0; p < procs; p++ {
			sys.Procs = append(sys.Procs, &chatter{left: 16, body: p})
			sys.PortProcs = append(sys.PortProcs, p)
		}
		return sys
	}
	sched := constSched{gap: 2, delay: 5}
	var sc mp.Scratch

	warm, err := mp.Run(build(), sched, mp.Options{Scratch: &sc})
	if err != nil {
		t.Fatal(err)
	}
	steps := len(warm.Trace.Steps)
	if steps == 0 {
		t.Fatal("warm-up run recorded no steps")
	}

	allocs := testing.AllocsPerRun(20, func() {
		if _, err := mp.Run(build(), sched, mp.Options{Scratch: &sc}); err != nil {
			t.Fatal(err)
		}
	})
	buildAllocs := testing.AllocsPerRun(20, func() { _ = build() })
	perStep := (allocs - buildAllocs) / float64(steps)
	if perStep > 1 {
		t.Fatalf("executor allocated %.2f times per step (%.0f total over %d steps), want <= 1",
			perStep, allocs-buildAllocs, steps)
	}
}

// TestScratchReuseIsDeterministic checks that a warmed scratch produces the
// byte-identical trace and delay log a fresh run produces.
func TestScratchReuseIsDeterministic(t *testing.T) {
	build := func() *mp.System {
		return &mp.System{
			Procs: []mp.Process{
				&chatter{left: 4, body: 1},
				&chatter{left: 2, body: 2},
				&chatter{left: 6, body: 3},
			},
			PortProcs: []int{0, 1, 2},
		}
	}
	sched := constSched{gap: 3, delay: 7}
	fresh, err := mp.Run(build(), sched, mp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sc mp.Scratch
	for round := 0; round < 3; round++ {
		got, err := mp.Run(build(), sched, mp.Options{Scratch: &sc})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(got.Trace.Steps) != len(fresh.Trace.Steps) || len(got.Delays) != len(fresh.Delays) {
			t.Fatalf("round %d: %d steps/%d delays, fresh %d/%d", round,
				len(got.Trace.Steps), len(got.Delays), len(fresh.Trace.Steps), len(fresh.Delays))
		}
		for i, s := range got.Trace.Steps {
			f := fresh.Trace.Steps[i]
			if s.Proc != f.Proc || s.Time != f.Time || s.Port != f.Port ||
				len(s.Accesses) != len(f.Accesses) || s.Accesses[0] != f.Accesses[0] {
				t.Fatalf("round %d step %d: %+v != fresh %+v", round, i, s, f)
			}
		}
		for i, d := range got.Delays {
			if d != fresh.Delays[i] {
				t.Fatalf("round %d delay %d: %+v != fresh %+v", round, i, d, fresh.Delays[i])
			}
		}
		if got.Finish != fresh.Finish || got.MessagesSent != fresh.MessagesSent {
			t.Fatalf("round %d: finish %v msgs %d, fresh %v/%d",
				round, got.Finish, got.MessagesSent, fresh.Finish, fresh.MessagesSent)
		}
	}
}
