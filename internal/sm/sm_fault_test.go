package sm

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"sessionproblem/internal/fault"
	"sessionproblem/internal/model"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
)

// script is a hand-written injector: stepFn decides each step's fate;
// delivery faults never apply to shared memory.
type script struct {
	stepFn func(proc int, at sim.Time) fault.StepEffect
}

func (s script) StepEffect(proc int, at sim.Time) fault.StepEffect {
	if s.stepFn == nil {
		return fault.StepEffect{}
	}
	return s.stepFn(proc, at)
}

func (s script) DeliveryEffect(src, dst int, at sim.Time) fault.DeliveryEffect {
	return fault.DeliveryEffect{}
}

// onceAt fires one effect for one process at its first consulted step.
func onceAt(proc int, eff fault.StepEffect) func(int, sim.Time) fault.StepEffect {
	done := false
	return func(p int, _ sim.Time) fault.StepEffect {
		if p == proc && !done {
			done = true
			return eff
		}
		return fault.StepEffect{}
	}
}

// An intensity-0 plan injector must leave the computation byte-identical to
// the fault-free (nil injector) path.
func TestFaultIntensityZeroIdentical(t *testing.T) {
	m := timing.NewSemiSynchronous(1, 4, 0)
	run := func(inj fault.Injector) *Result {
		res, err := Run(twoCounterSystem(4), m.NewScheduler(timing.Random, 9), Options{Injector: inj})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	plain := run(nil)
	zero := run(fault.NewPlan(5, 0).Injector())
	if !reflect.DeepEqual(plain, zero) {
		t.Fatal("intensity-0 injector changed the computation")
	}
	if zero.Faults != nil {
		t.Fatalf("intensity-0 run recorded faults: %v", zero.Faults)
	}
}

func TestFaultCrashPermanent(t *testing.T) {
	m := timing.NewSynchronous(3, 0)
	inj := script{stepFn: onceAt(0, fault.StepEffect{Kind: fault.Crash})}
	res, err := Run(twoCounterSystem(4), m.NewScheduler(timing.Slow, 1), Options{Injector: inj})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Crashed[0] || res.Crashed[1] {
		t.Fatalf("Crashed: got %v, want [true false]", res.Crashed)
	}
	if res.IdleAt[0] != -1 {
		t.Errorf("crashed process has IdleAt %v", res.IdleAt[0])
	}
	if res.IdleAt[1] != 12 {
		t.Errorf("surviving process IdleAt: got %v, want 12", res.IdleAt[1])
	}
	if len(res.Faults) != 1 || res.Faults[0].Kind != fault.Crash {
		t.Fatalf("Faults: got %v, want one crash", res.Faults)
	}
}

func TestFaultCrashRestart(t *testing.T) {
	m := timing.NewSynchronous(3, 0)
	inj := script{stepFn: onceAt(0, fault.StepEffect{Kind: fault.Crash, Restart: 30})}
	res, err := Run(twoCounterSystem(4), m.NewScheduler(timing.Slow, 1), Options{Injector: inj})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Crashed[0] {
		t.Error("restarted process marked permanently crashed")
	}
	// p0's first step is swallowed at t=3 and retried at t=33; its 4 steps
	// finish at 33+3*3 = 42.
	if res.IdleAt[0] != 42 {
		t.Errorf("IdleAt[0]: got %v, want 42", res.IdleAt[0])
	}
	if len(res.Faults) != 1 || res.Faults[0].Kind != fault.Crash {
		t.Fatalf("Faults: got %v, want one crash-restart", res.Faults)
	}
}

func TestFaultStepOverrunBreaksAdmissibility(t *testing.T) {
	m := timing.NewSynchronous(3, 0)
	inj := script{stepFn: onceAt(0, fault.StepEffect{Kind: fault.StepOverrun, Delay: 10})}
	res, err := Run(twoCounterSystem(4), m.NewScheduler(timing.Slow, 1), Options{Injector: inj})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := m.CheckAdmissible(res.Trace, nil); err == nil {
		t.Fatal("overrun trace still admissible under synchronous bounds")
	}
	if vs, err := m.AdmissibilityViolations(res.Trace, nil); err != nil || len(vs) == 0 {
		t.Fatal("AdmissibilityViolations found nothing for an overrun trace")
	}
}

func TestFaultStaleRead(t *testing.T) {
	m := timing.NewSynchronous(3, 0)
	p0Steps := 0
	inj := script{stepFn: func(p int, _ sim.Time) fault.StepEffect {
		if p != 0 {
			return fault.StepEffect{}
		}
		// Strike p0's second step: its variable then has a previous value.
		p0Steps++
		if p0Steps == 2 {
			return fault.StepEffect{Kind: fault.StaleRead}
		}
		return fault.StepEffect{}
	}}
	res, err := Run(twoCounterSystem(3), m.NewScheduler(timing.Slow, 1), Options{Injector: inj})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Faults) != 1 || res.Faults[0].Kind != fault.StaleRead {
		t.Fatalf("Faults: got %v, want one stale read", res.Faults)
	}
	// The stale step re-observed 0 and overwrote the first increment: three
	// increments collapse to a final value of 2.
	if got := res.Trace.FinalValues()[1]; got != 2 {
		t.Errorf("final value of var 1: got %v, want 2 (lost update)", got)
	}
}

// A run that hits the step cap under injection returns the partial result
// alongside ErrNoTermination so the auditor can classify it post-mortem.
func TestFaultNoTerminationPartialResult(t *testing.T) {
	m := timing.NewSynchronous(1, 0)
	sys := &System{Procs: []Process{&restless{v: 1}, &counter{v: 2, left: 1}}, B: 2,
		Ports: []PortBinding{{Var: 1, Proc: 0}, {Var: 2, Proc: 1}}}
	res, err := Run(sys, m.NewScheduler(timing.Slow, 1), Options{MaxSteps: 50, Injector: script{}})
	if !errors.Is(err, ErrNoTermination) {
		t.Fatalf("got %v, want ErrNoTermination", err)
	}
	if res == nil || len(res.Trace.Steps) == 0 {
		t.Fatal("no partial result returned at the step cap")
	}
}

func TestRunContextAlreadyExpired(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := timing.NewSynchronous(1, 0)
	res, err := RunContext(ctx, twoCounterSystem(2), m.NewScheduler(timing.Slow, 1), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("expired context still produced a result")
	}
}

// TestResultOwnsItsSlices pins that a Scratch holds capacity only: a traced
// Result taken from a run on a scratch keeps its steps with their access
// records, IdleAt and Crashed through later runs of another system on the
// same scratch.
func TestResultOwnsItsSlices(t *testing.T) {
	m := timing.NewSynchronous(1, 0)
	var sc Scratch
	// Process 1 crashes permanently at its first step; process 0 counts to 4.
	inj := script{stepFn: onceAt(1, fault.StepEffect{Kind: fault.Crash})}
	res, err := Run(twoCounterSystem(4), m.NewScheduler(timing.Slow, 1), Options{Injector: inj, Scratch: &sc})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Crashed[1] || res.IdleAt[0] < 0 {
		t.Fatalf("first run: Crashed %v, IdleAt %v; want process 1 crashed and process 0 idle", res.Crashed, res.IdleAt)
	}
	steps := slices.Clone(res.Trace.Steps)
	for i := range steps {
		steps[i].Accesses = slices.Clone(steps[i].Accesses)
	}
	idleAt, crashed := slices.Clone(res.IdleAt), slices.Clone(res.Crashed)

	for round := 0; round < 3; round++ {
		sys := &System{B: 2}
		for p := 0; p < 3; p++ {
			v := model.VarID(5 + p)
			sys.Procs = append(sys.Procs, &counter{v: v, left: 6 + round})
			sys.Ports = append(sys.Ports, PortBinding{Var: v, Proc: p})
		}
		if _, err := Run(sys, timing.NewSynchronous(2, 0).NewScheduler(timing.Slow, 1), Options{Scratch: &sc}); err != nil {
			t.Fatalf("later run %d: %v", round, err)
		}
	}
	if len(res.Trace.Steps) != len(steps) {
		t.Fatalf("trace length changed by a later run: %d, was %d", len(res.Trace.Steps), len(steps))
	}
	for i := range steps {
		if !reflect.DeepEqual(res.Trace.Steps[i], steps[i]) {
			t.Fatalf("step %d changed by a later run: %+v, was %+v", i, res.Trace.Steps[i], steps[i])
		}
	}
	if !slices.Equal(res.IdleAt, idleAt) || !slices.Equal(res.Crashed, crashed) {
		t.Errorf("IdleAt %v and Crashed %v changed by a later run: were %v and %v", res.IdleAt, res.Crashed, idleAt, crashed)
	}
}
