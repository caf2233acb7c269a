package fault

import (
	"reflect"
	"strings"
	"testing"

	"sessionproblem/internal/model"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
)

// drive consults the injector at a fixed synthetic schedule and returns every
// effect, so two injectors can be compared point by point.
func drive(inj Injector, points int) (steps []StepEffect, delivs []DeliveryEffect) {
	for i := 0; i < points; i++ {
		at := sim.Time(i * 3)
		steps = append(steps, inj.StepEffect(i%4, at))
		delivs = append(delivs, inj.DeliveryEffect(i%4, (i+1)%4, at))
	}
	return steps, delivs
}

func TestInjectorDeterministic(t *testing.T) {
	plan := NewPlan(42, 0.5).ScaledTo(timing.NewSemiSynchronous(2, 10, 28))
	s1, d1 := drive(plan.Injector(), 200)
	s2, d2 := drive(plan.Injector(), 200)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(d1, d2) {
		t.Fatal("two injectors from the same plan disagree")
	}
	s3, _ := drive(plan.WithSeed(43).Injector(), 200)
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds produced identical step effects")
	}
}

func TestIntensityZeroInjectsNothing(t *testing.T) {
	plan := NewPlan(7, 0)
	steps, delivs := drive(plan.Injector(), 500)
	for i := range steps {
		if steps[i].Kind != None || delivs[i].Kind != None {
			t.Fatalf("intensity 0 produced an effect at point %d", i)
		}
	}
	if plan.Enabled() {
		t.Fatal("intensity-0 plan reports Enabled")
	}
}

// Intensity 0 must not consume RNG draws either: a plan swept from 0 upward
// keeps its stream aligned with a plan that never saw intensity 0.
func TestIntensityZeroConsumesNoRandomness(t *testing.T) {
	inj := NewPlan(9, 0).Injector().(*planInjector)
	before := inj.rng.Uint64()
	inj2 := NewPlan(9, 0).Injector().(*planInjector)
	drive(inj2, 100)
	if got := inj2.rng.Uint64(); got != before {
		t.Fatalf("intensity-0 injector advanced its RNG stream: %d != %d", got, before)
	}
}

func TestKindPartition(t *testing.T) {
	stepOnly := NewPlan(1, 1, Crash, StepOverrun, StaleRead).Injector()
	for i := 0; i < 100; i++ {
		if eff := stepOnly.DeliveryEffect(0, 1, sim.Time(i)); eff.Kind != None {
			t.Fatalf("step-only plan produced delivery fault %v", eff.Kind)
		}
		if eff := stepOnly.StepEffect(0, sim.Time(i)); eff.Kind == None {
			t.Fatalf("step-only plan at intensity 1 skipped step %d", i)
		}
	}
	delivOnly := NewPlan(1, 1, MessageDrop, LateDelivery).Injector()
	for i := 0; i < 100; i++ {
		if eff := delivOnly.StepEffect(0, sim.Time(i)); eff.Kind != None {
			t.Fatalf("delivery-only plan produced step fault %v", eff.Kind)
		}
		if eff := delivOnly.DeliveryEffect(0, 1, sim.Time(i)); eff.Kind == None {
			t.Fatalf("delivery-only plan at intensity 1 skipped message %d", i)
		}
	}
}

func TestMaxFaultsCapsInjection(t *testing.T) {
	inj := NewPlan(3, 1, StepOverrun).WithMaxFaults(5).Injector()
	fired := 0
	for i := 0; i < 100; i++ {
		if inj.StepEffect(0, sim.Time(i)).Kind != None {
			fired++
		}
	}
	if fired != 5 {
		t.Fatalf("MaxFaults 5 fired %d faults", fired)
	}
}

// Fault magnitudes must land strictly beyond the violated bound: overruns
// postpone by more than StepScale (= c2), late deliveries by more than
// DelayScale (= d2).
func TestMagnitudesExceedBounds(t *testing.T) {
	m := timing.NewSemiSynchronous(2, 10, 28)
	plan := NewPlan(11, 1, StepOverrun, LateDelivery).ScaledTo(m)
	inj := plan.Injector()
	for i := 0; i < 200; i++ {
		if eff := inj.StepEffect(0, sim.Time(i)); eff.Kind == StepOverrun && eff.Delay <= plan.StepScale {
			t.Fatalf("overrun delay %v does not exceed StepScale %v", eff.Delay, plan.StepScale)
		}
		if eff := inj.DeliveryEffect(0, 1, sim.Time(i)); eff.Kind == LateDelivery && eff.Delay <= plan.DelayScale {
			t.Fatalf("late delay %v does not exceed DelayScale %v", eff.Delay, plan.DelayScale)
		}
	}
}

func TestScaledTo(t *testing.T) {
	semi := NewPlan(1, 0.5).ScaledTo(timing.NewSemiSynchronous(2, 10, 28))
	if semi.StepScale != 10 || semi.DelayScale != 28 {
		t.Fatalf("semi-sync scales = (%v, %v), want (10, 28)", semi.StepScale, semi.DelayScale)
	}
	spor := NewPlan(1, 0.5).ScaledTo(timing.NewSporadic(2, 4, 28, 16))
	if spor.StepScale != 16 {
		t.Fatalf("sporadic (unbounded c2) StepScale = %v, want gap cap 16", spor.StepScale)
	}
	pre := Plan{Seed: 1, Intensity: 0.5, StepScale: 3, DelayScale: 5}.ScaledTo(timing.NewSynchronous(10, 28))
	if pre.StepScale != 3 || pre.DelayScale != 5 {
		t.Fatal("ScaledTo overwrote explicit scales")
	}
}

func TestValidate(t *testing.T) {
	if err := NewPlan(1, 0.5, Crash).Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	for _, bad := range []Plan{
		NewPlan(1, -0.1),
		NewPlan(1, 1.5),
		NewPlan(1, 0.5, Kind(99)),
		NewPlan(1, 0.5).WithMaxFaults(-1),
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("plan %+v passed validation", bad)
		}
	}
}

// sessionTrace builds a trace over 2 procs / 2 ports with one full session,
// stepping at the given uniform gap.
func sessionTrace(gap sim.Duration) *model.Trace {
	tr := &model.Trace{NumProcs: 2, NumPorts: 2}
	for i := 0; i < 4; i++ {
		p := i % 2
		tr.Steps = append(tr.Steps, model.Step{
			Index: i,
			Proc:  p,
			Time:  sim.Time(int64(i/2+1) * int64(gap)),
			Port:  p,
		})
	}
	return tr
}

func TestAuditTraceClassification(t *testing.T) {
	m := timing.NewSemiSynchronous(2, 10, 0)
	ok := sessionTrace(5)

	aud := AuditTrace(m, ok, nil, 1, true, nil)
	if !aud.Admissible() || !aud.Held() || aud.Violations.Len() != 0 {
		t.Fatalf("clean run audited %+v", aud)
	}

	// Injected faults demote an otherwise clean, successful run to recovered.
	ev := Event{Kind: MessageDrop, At: 3, Proc: 1, Src: 0}
	aud = AuditTrace(m, ok, nil, 1, true, []Event{ev})
	if aud.Verdict != VerdictRecovered {
		t.Fatalf("faulted-but-successful run audited %v, want recovered", aud.Verdict)
	}
	if got := aud.Violations.Strings(); len(got) != 1 || got[0] != ev.String() || aud.FaultsInjected != 1 {
		t.Fatalf("audit did not surface the fault event: %+v", aud)
	}

	// A trace violating the gap bound is recovered even with no fault events.
	slow := sessionTrace(50)
	aud = AuditTrace(m, slow, nil, 1, true, nil)
	if got := aud.Violations.Strings(); aud.Verdict != VerdictRecovered || len(got) == 0 || !strings.Contains(got[0], "gap") {
		t.Fatalf("bound-violating run audited %+v", aud)
	}

	// Too few sessions → broken, and the fault explains it (not silent).
	aud = AuditTrace(m, ok, nil, 3, true, []Event{ev})
	if aud.Verdict != VerdictBroken || aud.Silent() {
		t.Fatalf("failed run audited %+v", aud)
	}

	// Ports never idled → broken.
	aud = AuditTrace(m, ok, nil, 1, false, []Event{ev})
	if aud.Verdict != VerdictBroken {
		t.Fatalf("non-idle run audited %v, want broken", aud.Verdict)
	}

	// No trace at all → broken with an explanation.
	aud = AuditTrace(m, nil, nil, 1, false, nil)
	if got := aud.Violations.Strings(); aud.Verdict != VerdictBroken || aud.Silent() ||
		!reflect.DeepEqual(got, []string{"no trace recorded"}) {
		t.Fatalf("nil-trace run audited %+v", aud)
	}

	// An invalid trace is one violation, named by the trace check, ahead
	// of nothing the gap rules would say about it.
	bad := sessionTrace(50)
	bad.Steps[1].Index = 7
	aud = AuditTrace(m, bad, nil, 1, true, []Event{ev})
	want := []string{ev.String(), "trace invalid: " + bad.Validate().Error()}
	if got := aud.Violations.Strings(); aud.Verdict != VerdictRecovered || !reflect.DeepEqual(got, want) {
		t.Fatalf("invalid-trace run audited %q (%v), want %q", got, aud.Verdict, want)
	}
}

func TestVerdictStrings(t *testing.T) {
	cases := map[Verdict]string{VerdictAdmissible: "admissible", VerdictRecovered: "recovered", VerdictBroken: "broken"}
	for v, want := range cases {
		if v.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(v), v.String(), want)
		}
	}
	for _, k := range AllKinds() {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Fatalf("kind %d missing a name", int(k))
		}
	}
}
