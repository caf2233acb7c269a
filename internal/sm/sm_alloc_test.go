package sm_test

import (
	"testing"

	"sessionproblem/internal/model"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/sm"
)

// countdown is a deliberately allocation-free process: it decrements a
// counter on each step and writes small int values, which Go boxes from the
// runtime's static cache. Any allocation AllocsPerRun observes below is
// therefore the executor's own.
type countdown struct {
	target model.VarID
	left   int
}

func (c *countdown) Target() model.VarID { return c.target }
func (c *countdown) Idle() bool          { return c.left == 0 }
func (c *countdown) Step(old sm.Value) sm.Value {
	if c.left == 0 {
		return old
	}
	c.left--
	return sm.Value(c.left % 256)
}

// constGap steps every process with a fixed gap.
type constGap struct{ gap sim.Duration }

func (s constGap) Gap(int) sim.Duration { return s.gap }

// TestRunSteadyStateAllocs pins the executor's per-step allocation budget:
// with a warmed Scratch, a full run costs at most one allocation per
// recorded step (amortized — the budget covers the Result and the trace it
// owns, and leaves the per-step hot path itself allocation-free).
func TestRunSteadyStateAllocs(t *testing.T) {
	const procs = 8
	build := func() *sm.System {
		sys := &sm.System{
			Initial: map[model.VarID]sm.Value{},
			B:       procs,
		}
		for p := 0; p < procs; p++ {
			v := model.VarID(p)
			sys.Procs = append(sys.Procs, &countdown{target: v, left: 32})
			sys.Initial[v] = 0
			sys.Ports = append(sys.Ports, sm.PortBinding{Var: v, Proc: p})
		}
		return sys
	}
	sched := constGap{gap: 2}
	var sc sm.Scratch

	// Warm the scratch to its high-water mark outside the measured region.
	warm, err := sm.Run(build(), sched, sm.Options{Scratch: &sc})
	if err != nil {
		t.Fatal(err)
	}
	steps := len(warm.Trace.Steps)
	if steps == 0 {
		t.Fatal("warm-up run recorded no steps")
	}

	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sm.Run(build(), sched, sm.Options{Scratch: &sc}); err != nil {
			t.Fatal(err)
		}
	})
	// build() itself allocates the system; subtract its cost by measuring it
	// alone so the bound tracks only the executor.
	buildAllocs := testing.AllocsPerRun(20, func() { _ = build() })
	perStep := (allocs - buildAllocs) / float64(steps)
	if perStep > 1 {
		t.Fatalf("executor allocated %.2f times per step (%.0f total over %d steps), want <= 1",
			perStep, allocs-buildAllocs, steps)
	}
}

// TestScratchReuseIsDeterministic checks the core contract behind scratch
// reuse: a warmed scratch produces the byte-identical trace a fresh run
// produces.
func TestScratchReuseIsDeterministic(t *testing.T) {
	build := func() *sm.System {
		sys := &sm.System{Initial: map[model.VarID]sm.Value{0: 0, 1: 0}, B: 4}
		sys.Procs = []sm.Process{
			&countdown{target: 0, left: 9},
			&countdown{target: 1, left: 5},
			&countdown{target: 0, left: 3},
		}
		sys.Ports = []sm.PortBinding{{Var: 0, Proc: 0}, {Var: 1, Proc: 1}}
		return sys
	}
	sched := constGap{gap: 3}
	fresh, err := sm.Run(build(), sched, sm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sc sm.Scratch
	for round := 0; round < 3; round++ {
		got, err := sm.Run(build(), sched, sm.Options{Scratch: &sc})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(got.Trace.Steps) != len(fresh.Trace.Steps) {
			t.Fatalf("round %d: %d steps, fresh run had %d", round, len(got.Trace.Steps), len(fresh.Trace.Steps))
		}
		for i, s := range got.Trace.Steps {
			f := fresh.Trace.Steps[i]
			if s.Proc != f.Proc || s.Time != f.Time || s.Port != f.Port ||
				len(s.Accesses) != len(f.Accesses) || s.Accesses[0] != f.Accesses[0] {
				t.Fatalf("round %d step %d: %+v != fresh %+v", round, i, s, f)
			}
		}
		if got.Finish != fresh.Finish || got.FinishAll != fresh.FinishAll {
			t.Fatalf("round %d: finish %v/%v, fresh %v/%v",
				round, got.Finish, got.FinishAll, fresh.Finish, fresh.FinishAll)
		}
	}
}
