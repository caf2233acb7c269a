package mp

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"sessionproblem/internal/fault"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
)

// script is a hand-written injector for the tests below.
type script struct {
	stepFn  func(proc int, at sim.Time) fault.StepEffect
	delivFn func(src, dst int, at sim.Time) fault.DeliveryEffect
}

func (s script) StepEffect(proc int, at sim.Time) fault.StepEffect {
	if s.stepFn == nil {
		return fault.StepEffect{}
	}
	return s.stepFn(proc, at)
}

func (s script) DeliveryEffect(src, dst int, at sim.Time) fault.DeliveryEffect {
	if s.delivFn == nil {
		return fault.DeliveryEffect{}
	}
	return s.delivFn(src, dst, at)
}

// An intensity-0 plan injector must leave the computation byte-identical to
// the fault-free (nil injector) path.
func TestFaultIntensityZeroIdentical(t *testing.T) {
	m := timing.NewSemiSynchronous(1, 4, 9)
	run := func(inj fault.Injector) *Result {
		res, err := Run(greeterSystem(3), m.NewScheduler(timing.Random, 7), Options{Injector: inj})
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

// Dropping every delivery starves the greeters: the run hits the step cap
// and hands back the partial result for post-mortem auditing. The drops
// leave no delay records — only the fault log witnesses them.
func TestFaultMessageDropRecorded(t *testing.T) {
	m := timing.NewSynchronous(2, 5)
	inj := script{delivFn: func(src, dst int, _ sim.Time) fault.DeliveryEffect {
		return fault.DeliveryEffect{Kind: fault.MessageDrop}
	}}
	res, err := Run(greeterSystem(3), m.NewScheduler(timing.Slow, 1), Options{MaxSteps: 500, Injector: inj})
	if !errors.Is(err, ErrNoTermination) {
		t.Fatalf("got %v, want ErrNoTermination", err)
	}
	if res == nil || len(res.Trace.Steps) == 0 {
		t.Fatal("no partial result returned at the step cap")
	}
	if len(res.Delays) != 0 {
		t.Errorf("dropped messages left %d delay records", len(res.Delays))
	}
	if len(res.Faults) != 9 {
		t.Errorf("Faults: got %d drop events, want 9 (3 broadcasts x 3 destinations)", len(res.Faults))
	}
}

func TestFaultLateDeliveryExceedsBound(t *testing.T) {
	m := timing.NewSynchronous(2, 5)
	struck := false
	inj := script{delivFn: func(src, dst int, _ sim.Time) fault.DeliveryEffect {
		if !struck && src != dst {
			struck = true
			return fault.DeliveryEffect{Kind: fault.LateDelivery, Delay: 100}
		}
		return fault.DeliveryEffect{}
	}}
	res, err := Run(greeterSystem(3), m.NewScheduler(timing.Slow, 1), Options{Injector: inj})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	late := 0
	for _, d := range res.Delays {
		if d.Delay() > 5 {
			late++
		}
	}
	if late != 1 {
		t.Errorf("late deliveries in Delays: got %d, want 1", late)
	}
	if len(res.Faults) != 1 || res.Faults[0].Kind != fault.LateDelivery {
		t.Fatalf("Faults: got %v, want one late delivery", res.Faults)
	}
	if vs, err := m.AdmissibilityViolations(res.Trace, res.Delays); err != nil || len(vs) == 0 {
		t.Fatal("AdmissibilityViolations missed a delay beyond d2")
	}
}

func TestFaultMessageDuplicate(t *testing.T) {
	m := timing.NewSynchronous(2, 5)
	struck := false
	inj := script{delivFn: func(src, dst int, _ sim.Time) fault.DeliveryEffect {
		if !struck {
			struck = true
			return fault.DeliveryEffect{Kind: fault.MessageDuplicate, DuplicateDelay: 3}
		}
		return fault.DeliveryEffect{}
	}}
	res, err := Run(greeterSystem(2), m.NewScheduler(timing.Slow, 1), Options{Injector: inj})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// 2 broadcasts x 2 destinations, plus the duplicate's own delay record.
	if len(res.Delays) != 5 {
		t.Errorf("Delays: got %d records, want 5", len(res.Delays))
	}
	if len(res.Faults) != 1 || res.Faults[0].Kind != fault.MessageDuplicate {
		t.Fatalf("Faults: got %v, want one duplicate", res.Faults)
	}
}

func TestFaultCrashPermanentSettles(t *testing.T) {
	// Non-communicating processes: crashing one must not wedge termination.
	sys := &System{
		Procs:     []Process{&silent{left: 2}, &silent{left: 2}, &silent{left: 2}},
		PortProcs: []int{0, 1, 2},
	}
	m := timing.NewSynchronous(2, 5)
	inj := script{stepFn: func(p int, _ sim.Time) fault.StepEffect {
		if p == 0 {
			return fault.StepEffect{Kind: fault.Crash}
		}
		return fault.StepEffect{}
	}}
	res, err := Run(sys, m.NewScheduler(timing.Slow, 1), Options{Injector: inj})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Crashed[0] || res.IdleAt[0] != -1 {
		t.Fatalf("crash not recorded: Crashed=%v IdleAt=%v", res.Crashed, res.IdleAt)
	}
	if res.IdleAt[1] < 0 || res.IdleAt[2] < 0 {
		t.Fatal("surviving processes never idled")
	}
}

func TestFaultCrashRestartRecovers(t *testing.T) {
	m := timing.NewSynchronous(2, 5)
	once := false
	inj := script{stepFn: func(p int, _ sim.Time) fault.StepEffect {
		if p == 0 && !once {
			once = true
			return fault.StepEffect{Kind: fault.Crash, Restart: 20}
		}
		return fault.StepEffect{}
	}}
	res, err := Run(greeterSystem(3), m.NewScheduler(timing.Slow, 1), Options{Injector: inj})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Crashed[0] {
		t.Error("restarted process marked permanently crashed")
	}
	if res.Trace.CountSessions() < 1 {
		t.Error("restarted run achieved no session")
	}
	if len(res.Faults) != 1 || res.Faults[0].Kind != fault.Crash {
		t.Fatalf("Faults: got %v, want one crash-restart", res.Faults)
	}
}

func TestRunContextAlreadyExpired(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := timing.NewSynchronous(2, 5)
	res, err := RunContext(ctx, greeterSystem(2), m.NewScheduler(timing.Slow, 1), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("expired context still produced a result")
	}
}

// TestResultOwnsItsSlices pins that a Scratch holds capacity only: a traced
// Result taken from a run on a scratch keeps its steps with their access
// records, Delays, IdleAt and Crashed through later runs of another system
// on the same scratch.
func TestResultOwnsItsSlices(t *testing.T) {
	m := timing.NewSynchronous(2, 5)
	var sc Scratch
	// Three greeters and a silent process that crashes at its first step.
	sys := greeterSystem(3)
	sys.Procs = append(sys.Procs, &silent{left: 2})
	inj := script{stepFn: func(p int, _ sim.Time) fault.StepEffect {
		if p == 3 {
			return fault.StepEffect{Kind: fault.Crash}
		}
		return fault.StepEffect{}
	}}
	res, err := Run(sys, m.NewScheduler(timing.Slow, 1), Options{Injector: inj, Scratch: &sc})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Crashed[3] || len(res.Delays) == 0 {
		t.Fatalf("first run: Crashed %v, %d delays; want process 3 crashed and delays recorded", res.Crashed, len(res.Delays))
	}
	steps := slices.Clone(res.Trace.Steps)
	for i := range steps {
		steps[i].Accesses = slices.Clone(steps[i].Accesses)
	}
	delays := slices.Clone(res.Delays)
	idleAt, crashed := slices.Clone(res.IdleAt), slices.Clone(res.Crashed)

	for round := 0; round < 3; round++ {
		other := timing.NewSynchronous(3, sim.Duration(4+round))
		if _, err := Run(greeterSystem(5), other.NewScheduler(timing.Slow, 1), Options{Scratch: &sc}); err != nil {
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
	if !slices.Equal(res.Delays, delays) {
		t.Errorf("Delays changed by a later run: %v, was %v", res.Delays, delays)
	}
	if !slices.Equal(res.IdleAt, idleAt) || !slices.Equal(res.Crashed, crashed) {
		t.Errorf("IdleAt %v and Crashed %v changed by a later run: were %v and %v", res.IdleAt, res.Crashed, idleAt, crashed)
	}
}
