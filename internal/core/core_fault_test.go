package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"sessionproblem/internal/fault"
	"sessionproblem/internal/mp"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
)

// stepScript injects scripted step effects; deliveries run fault-free.
type stepScript struct {
	fn func(proc int, at sim.Time) fault.StepEffect
}

func (s stepScript) StepEffect(proc int, at sim.Time) fault.StepEffect { return s.fn(proc, at) }
func (s stepScript) DeliveryEffect(int, int, sim.Time) fault.DeliveryEffect {
	return fault.DeliveryEffect{}
}

// dropAll loses every message in transit.
type dropAll struct{}

func (dropAll) StepEffect(int, sim.Time) fault.StepEffect { return fault.StepEffect{} }
func (dropAll) DeliveryEffect(int, int, sim.Time) fault.DeliveryEffect {
	return fault.DeliveryEffect{Kind: fault.MessageDrop}
}

// chattyMP builds greeter-style processes that idle only after hearing from
// every process — termination depends on the network being reliable.
type chattyMP struct{}

func (chattyMP) Name() string { return "chatty" }

func (chattyMP) BuildMP(spec Spec, _ timing.Model) (*mp.System, error) {
	sys := &mp.System{}
	for i := 0; i < spec.N; i++ {
		sys.Procs = append(sys.Procs, &chattyProc{n: spec.N, heard: make(map[int]bool)})
		sys.PortProcs = append(sys.PortProcs, i)
	}
	return sys, nil
}

type chattyProc struct {
	n     int
	sent  bool
	heard map[int]bool
	idle  bool
}

func (c *chattyProc) Step(received []mp.Message) any {
	for _, m := range received {
		c.heard[m.From] = true
	}
	if len(c.heard) == c.n {
		c.idle = true
	}
	if !c.sent {
		c.sent = true
		return "hi"
	}
	return nil
}

func (c *chattyProc) Idle() bool { return c.idle }

func TestRunSMFaultedAdmissibleWithoutInjector(t *testing.T) {
	m := timing.NewSynchronous(2, 0)
	rep, err := RunSMFaulted(context.Background(), fixedSM{k: 3}, Spec{S: 3, N: 2, B: 2}, m, timing.Slow, 1, FaultRun{})
	if err != nil {
		t.Fatalf("RunSMFaulted: %v", err)
	}
	if !rep.Audit.Admissible() || rep.Audit.Violations.Len() != 0 {
		t.Fatalf("fault-free run audited %+v", rep.Audit)
	}
	if rep.Sessions != 3 || rep.Audit.SessionsAchieved != 3 || rep.Audit.SessionsRequired != 3 {
		t.Errorf("sessions: rep=%d audit=%d/%d", rep.Sessions, rep.Audit.SessionsAchieved, rep.Audit.SessionsRequired)
	}
}

// A run that misses sessions with no fault to blame is the silent quadrant:
// broken, empty violation list. The faulted runner surfaces it honestly
// rather than erroring out.
func TestRunSMFaultedBrokenWithoutFaultsIsSilent(t *testing.T) {
	m := timing.NewSynchronous(2, 0)
	rep, err := RunSMFaulted(context.Background(), fixedSM{k: 2}, Spec{S: 3, N: 2, B: 2}, m, timing.Slow, 1, FaultRun{})
	if err != nil {
		t.Fatalf("RunSMFaulted: %v", err)
	}
	if rep.Audit.Verdict != fault.VerdictBroken || !rep.Audit.Silent() {
		t.Fatalf("audited %+v, want silent broken", rep.Audit)
	}
}

func TestRunSMFaultedRecoversFromOverrun(t *testing.T) {
	m := timing.NewSynchronous(2, 0)
	struck := false
	inj := stepScript{fn: func(p int, _ sim.Time) fault.StepEffect {
		if p == 0 && !struck {
			struck = true
			return fault.StepEffect{Kind: fault.StepOverrun, Delay: 10}
		}
		return fault.StepEffect{}
	}}
	rep, err := RunSMFaulted(context.Background(), fixedSM{k: 3}, Spec{S: 1, N: 2, B: 2}, m, timing.Slow, 1, FaultRun{Injector: inj})
	if err != nil {
		t.Fatalf("RunSMFaulted: %v", err)
	}
	if rep.Audit.Verdict != fault.VerdictRecovered {
		t.Fatalf("audited %v, want recovered: %+v", rep.Audit.Verdict, rep.Audit)
	}
	// Both the injected fault and the resulting gap violation are reported.
	vs := rep.Audit.Violations.Strings()
	if len(vs) < 2 {
		t.Fatalf("violations: %q", vs)
	}
	if !strings.Contains(vs[0], "step-overrun") {
		t.Errorf("first violation %q does not name the fault", vs[0])
	}
	if rep.Audit.FaultsInjected != 1 || len(rep.Faults) != 1 {
		t.Errorf("fault accounting: audit=%d report=%d", rep.Audit.FaultsInjected, len(rep.Faults))
	}
}

func TestRunSMFaultedCrashedPortBreaksGuarantee(t *testing.T) {
	m := timing.NewSynchronous(2, 0)
	inj := stepScript{fn: func(p int, _ sim.Time) fault.StepEffect {
		if p == 0 {
			return fault.StepEffect{Kind: fault.Crash}
		}
		return fault.StepEffect{}
	}}
	rep, err := RunSMFaulted(context.Background(), fixedSM{k: 3}, Spec{S: 1, N: 2, B: 2}, m, timing.Slow, 1, FaultRun{Injector: inj})
	if err != nil {
		t.Fatalf("RunSMFaulted: %v", err)
	}
	if rep.Audit.Verdict != fault.VerdictBroken || rep.Audit.PortsIdle {
		t.Fatalf("crashed-port run audited %+v", rep.Audit)
	}
	if rep.Audit.Silent() {
		t.Fatal("broken run with a recorded crash must not be silent")
	}
}

func TestRunMPFaultedNoTerminationAudited(t *testing.T) {
	m := timing.NewSynchronous(2, 5)
	rep, err := RunMPFaulted(context.Background(), chattyMP{}, Spec{S: 1, N: 3}, m, timing.Slow, 1,
		FaultRun{Injector: dropAll{}, MaxSteps: 500})
	if err != nil {
		t.Fatalf("RunMPFaulted: %v", err)
	}
	if rep.Audit.Verdict != fault.VerdictBroken {
		t.Fatalf("starved run audited %v", rep.Audit.Verdict)
	}
	if text := rep.Audit.Violations.Text; len(text) != 1 || text[0] != noTerminationNote {
		t.Fatalf("violations missing the step-cap note: %q", rep.Audit.Violations.Strings())
	}
	if rep.Audit.Silent() {
		t.Fatal("non-terminating faulted run must not be silent")
	}
}

func TestRunMPFaultedAdmissibleWithoutInjector(t *testing.T) {
	m := timing.NewSynchronous(2, 5)
	rep, err := RunMPFaulted(context.Background(), chattyMP{}, Spec{S: 1, N: 3}, m, timing.Slow, 1, FaultRun{})
	if err != nil {
		t.Fatalf("RunMPFaulted: %v", err)
	}
	if !rep.Audit.Admissible() {
		t.Fatalf("fault-free run audited %+v", rep.Audit)
	}
	if rep.Messages == 0 {
		t.Error("no messages accounted")
	}
}

func TestRunFaultedPropagatesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := timing.NewSynchronous(2, 0)
	if _, err := RunSMFaulted(ctx, fixedSM{k: 3}, Spec{S: 1, N: 2, B: 2}, m, timing.Slow, 1, FaultRun{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	mm := timing.NewSynchronous(2, 5)
	if _, err := RunMPFaulted(ctx, chattyMP{}, Spec{S: 1, N: 3}, mm, timing.Slow, 1, FaultRun{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// strikeOnce applies one scripted fault: step at its stepAt-th StepEffect
// call and deliv at its delivAt-th DeliveryEffect call (both counted from
// zero); every other consultation is fault-free.
type strikeOnce struct {
	step                  fault.StepEffect
	deliv                 fault.DeliveryEffect
	stepAt, delivAt       int
	stepCalls, delivCalls int
}

func (s *strikeOnce) StepEffect(int, sim.Time) fault.StepEffect {
	s.stepCalls++
	if s.stepCalls-1 == s.stepAt {
		return s.step
	}
	return fault.StepEffect{}
}

func (s *strikeOnce) DeliveryEffect(int, int, sim.Time) fault.DeliveryEffect {
	s.delivCalls++
	if s.delivCalls-1 == s.delivAt {
		return s.deliv
	}
	return fault.DeliveryEffect{}
}

// TestFaultEventText pins the exact text of every fault-event form the two
// executors record: each case strikes one fault and reads the event back
// through the audited runner.
func TestFaultEventText(t *testing.T) {
	ctx := context.Background()
	m := timing.NewSynchronous(2, 3)
	cases := []struct {
		name string
		mp   bool
		inj  *strikeOnce
		want string
	}{
		{"SM crash with restart", false,
			&strikeOnce{step: fault.StepEffect{Kind: fault.Crash, Restart: 7}, stepAt: 2, delivAt: -1},
			"fault crash at t=4 on p0: restart after 7"},
		{"SM permanent crash", false,
			&strikeOnce{step: fault.StepEffect{Kind: fault.Crash}, stepAt: 1, delivAt: -1},
			"fault crash at t=2 on p1: permanent"},
		{"SM step overrun", false,
			&strikeOnce{step: fault.StepEffect{Kind: fault.StepOverrun, Delay: 10}, stepAt: 3, delivAt: -1},
			"fault step-overrun at t=4 on p1: postponed +10"},
		{"SM stale read", false,
			&strikeOnce{step: fault.StepEffect{Kind: fault.StaleRead}, stepAt: 2, delivAt: -1},
			"fault stale-read at t=4 on p0: variable 0 read pre-update value"},
		{"MP crash with restart", true,
			&strikeOnce{step: fault.StepEffect{Kind: fault.Crash, Restart: 7}, stepAt: 0, delivAt: -1},
			"fault crash at t=2 on p0: restart after 7"},
		{"MP permanent crash", true,
			&strikeOnce{step: fault.StepEffect{Kind: fault.Crash}, stepAt: 1, delivAt: -1},
			"fault crash at t=2 on p1: permanent"},
		{"MP step overrun", true,
			&strikeOnce{step: fault.StepEffect{Kind: fault.StepOverrun, Delay: 10}, stepAt: 0, delivAt: -1},
			"fault step-overrun at t=2 on p0: postponed +10"},
		{"message drop", true,
			&strikeOnce{stepAt: -1, deliv: fault.DeliveryEffect{Kind: fault.MessageDrop}, delivAt: 1},
			"fault message-drop at t=2 on message 0->1: lost in transit"},
		{"late delivery", true,
			&strikeOnce{stepAt: -1, deliv: fault.DeliveryEffect{Kind: fault.LateDelivery, Delay: 9}, delivAt: 2},
			"fault late-delivery at t=2 on message 1->0: delayed +9 beyond schedule"},
		{"message duplicate", true,
			&strikeOnce{stepAt: -1, deliv: fault.DeliveryEffect{Kind: fault.MessageDuplicate, DuplicateDelay: 4}, delivAt: 3},
			"fault message-duplicate at t=2 on message 1->1: second copy delivered at 9"},
	}
	for _, tc := range cases {
		fr := FaultRun{Injector: tc.inj, MaxSteps: 200}
		var rep *Report
		var err error
		if tc.mp {
			rep, err = AuditMP(ctx, chattyMP{}, Spec{S: 1, N: 2}, m, m.NewScheduler(timing.Slow, 1), fr)
		} else {
			rep, err = AuditSM(ctx, fixedSM{k: 3}, Spec{S: 1, N: 2, B: 2}, m, m.NewScheduler(timing.Slow, 1), fr)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(rep.Faults) != 1 {
			t.Fatalf("%s: %d faults applied, want 1", tc.name, len(rep.Faults))
		}
		if got := rep.Faults[0].String(); got != tc.want {
			t.Errorf("%s: event text %q, want %q", tc.name, got, tc.want)
		}
	}
}
