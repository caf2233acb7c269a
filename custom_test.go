package sessionproblem_test

import (
	"context"
	"strings"
	"testing"

	"sessionproblem"
)

// stepper is a minimal custom shared-memory algorithm: every port process
// takes a fixed number of steps on its own port. With enough steps per
// session it solves the synchronous instance.
type stepper struct {
	name  string
	steps int
}

func (a stepper) Name() string { return a.name }

func (a stepper) BuildSM(spec sessionproblem.Spec, m sessionproblem.TimingModel) (*sessionproblem.SMSystem, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	b := spec.B
	if b == 0 {
		b = 2
	}
	sys := &sessionproblem.SMSystem{B: b}
	for i := 0; i < spec.N; i++ {
		v := sessionproblem.VarID(i)
		sys.Procs = append(sys.Procs, &stepperProc{v: v, left: a.steps})
		sys.Ports = append(sys.Ports, sessionproblem.SMPortBinding{Var: v, Proc: i})
	}
	return sys, nil
}

type stepperProc struct {
	v    sessionproblem.VarID
	left int
}

func (p *stepperProc) Target() sessionproblem.VarID { return p.v }
func (p *stepperProc) Step(old sessionproblem.SMValue) sessionproblem.SMValue {
	if p.left == 0 {
		return old // idle states must be stable
	}
	p.left--
	n, _ := old.(int)
	return n + 1
}
func (p *stepperProc) Idle() bool { return p.left == 0 }

func TestStrategiesListsAllFive(t *testing.T) {
	got := sessionproblem.Strategies()
	if len(got) != 5 {
		t.Fatalf("Strategies() = %v, want 5 entries", got)
	}
	seen := map[string]bool{}
	for _, s := range got {
		seen[s] = true
	}
	for _, want := range []string{"random", "slow", "fast", "skewed", "jittered"} {
		if !seen[want] {
			t.Errorf("Strategies() missing %q: %v", want, got)
		}
	}
}

func TestValidateSMPassesCorrectCustomAlgorithm(t *testing.T) {
	// Under the synchronous model every process steps in lockstep, so s
	// steps per process give s sessions.
	m := sessionproblem.NewSynchronousModel(3, 0)
	spec := sessionproblem.Spec{S: 3, N: 3, B: 2}
	v := sessionproblem.ValidateSM(stepper{name: "lockstep", steps: 3}, spec, m,
		sessionproblem.WithSeeds(2))
	if !v.OK() {
		for _, it := range v.Items {
			t.Logf("[%v] %s: %s", it.Passed, it.Name, it.Detail)
		}
		t.Fatal("correct custom algorithm failed validation")
	}
	if v.Algorithm != "lockstep" {
		t.Errorf("Algorithm = %q, want lockstep", v.Algorithm)
	}
}

func TestValidateSMCatchesBrokenCustomAlgorithm(t *testing.T) {
	m := sessionproblem.NewSynchronousModel(3, 0)
	spec := sessionproblem.Spec{S: 3, N: 3, B: 2}
	// One step per process can never yield three sessions.
	v := sessionproblem.ValidateSM(stepper{name: "too-fast", steps: 1}, spec, m)
	if v.OK() {
		t.Fatal("validation passed an algorithm that cannot reach s sessions")
	}
}

func TestSolveWithCustomSMAlgorithm(t *testing.T) {
	rep, err := sessionproblem.Solve(context.Background(),
		sessionproblem.Synchronous, sessionproblem.SharedMemory,
		sessionproblem.WithSpec(2, 2),
		sessionproblem.WithStepBounds(1, 3),
		sessionproblem.WithSMAlgorithm(stepper{name: "custom", steps: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != "custom" {
		t.Errorf("Algorithm = %q, want the injected custom algorithm", rep.Algorithm)
	}
	if rep.Sessions < 2 {
		t.Errorf("Sessions = %d, want >= 2", rep.Sessions)
	}
}

func TestSolveReportsGammaAndSpans(t *testing.T) {
	rep, err := sessionproblem.Solve(context.Background(),
		sessionproblem.Sporadic, sessionproblem.MessagePassing,
		sessionproblem.WithSpec(2, 2),
		sessionproblem.WithStepBounds(2, 10),
		sessionproblem.WithDelayBounds(1, 6),
		sessionproblem.WithGapCap(8))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Gamma < 2 {
		t.Errorf("Gamma = %d, want >= c1 = 2", rep.Gamma)
	}
	if len(rep.Spans) < 2 {
		t.Fatalf("Spans = %v, want >= 2 sessions", rep.Spans)
	}
	for i, sp := range rep.Spans {
		if sp.Index != i+1 {
			t.Errorf("Spans[%d].Index = %d, want %d", i, sp.Index, i+1)
		}
		if sp.End < sp.Start {
			t.Errorf("Spans[%d] ends (%d) before it starts (%d)", i, sp.End, sp.Start)
		}
		if i > 0 && sp.Start < rep.Spans[i-1].End {
			t.Errorf("Spans[%d] overlaps the previous session", i)
		}
	}
}

func TestPaperEnvelopeMatchesKnownCells(t *testing.T) {
	opts := []sessionproblem.Option{
		sessionproblem.WithSpec(6, 8),
		sessionproblem.WithStepBounds(2, 10),
	}
	env, err := sessionproblem.PaperEnvelope(sessionproblem.Synchronous, sessionproblem.SharedMemory, opts...)
	if err != nil {
		t.Fatal(err)
	}
	// Synchronous: L = U = s*c2.
	if env.Lower != 60 || env.Upper != 60 || env.Unit != "time" {
		t.Errorf("synchronous SM envelope = %+v, want L=U=60 time", env)
	}

	env, err = sessionproblem.PaperEnvelope(sessionproblem.Asynchronous, sessionproblem.SharedMemory, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if env.Unit != "rounds" {
		t.Errorf("async SM unit = %q, want rounds", env.Unit)
	}

	// The sporadic upper bound grows with gamma.
	base := []sessionproblem.Option{
		sessionproblem.WithSpec(6, 8),
		sessionproblem.WithStepBounds(2, 10),
		sessionproblem.WithDelayBounds(4, 28),
	}
	lo, err := sessionproblem.PaperEnvelope(sessionproblem.Sporadic, sessionproblem.MessagePassing,
		append([]sessionproblem.Option{sessionproblem.WithGamma(2)}, base...)...)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := sessionproblem.PaperEnvelope(sessionproblem.Sporadic, sessionproblem.MessagePassing,
		append([]sessionproblem.Option{sessionproblem.WithGamma(8)}, base...)...)
	if err != nil {
		t.Fatal(err)
	}
	if !(hi.Upper > lo.Upper) {
		t.Errorf("sporadic MP upper bound did not grow with gamma: %v vs %v", lo.Upper, hi.Upper)
	}
}

// TestPaperEnvelopeSpecErrors: an instance the formulas cannot evaluate is
// an error with the harness's wording, and b is checked only in the cells
// whose formulas read it.
func TestPaperEnvelopeSpecErrors(t *testing.T) {
	cases := []struct {
		m       sessionproblem.Model
		comm    sessionproblem.Comm
		opts    []sessionproblem.Option
		wantErr string
	}{
		{sessionproblem.Periodic, sessionproblem.SharedMemory, []sessionproblem.Option{sessionproblem.WithAccessBound(0)}, "b must be >= 2, got 0"},
		{sessionproblem.Periodic, sessionproblem.SharedMemory, []sessionproblem.Option{sessionproblem.WithAccessBound(1)}, "b must be >= 2, got 1"},
		{sessionproblem.SemiSynchronous, sessionproblem.SharedMemory, []sessionproblem.Option{sessionproblem.WithAccessBound(0)}, "b must be >= 2, got 0"},
		{sessionproblem.SemiSynchronous, sessionproblem.SharedMemory, []sessionproblem.Option{sessionproblem.WithAccessBound(1)}, "b must be >= 2, got 1"},
		{sessionproblem.Asynchronous, sessionproblem.SharedMemory, []sessionproblem.Option{sessionproblem.WithAccessBound(0)}, "b must be >= 2, got 0"},
		{sessionproblem.Asynchronous, sessionproblem.SharedMemory, []sessionproblem.Option{sessionproblem.WithAccessBound(1)}, "b must be >= 2, got 1"},
		{sessionproblem.Asynchronous, sessionproblem.SharedMemory, []sessionproblem.Option{sessionproblem.WithSpec(2, 0)}, "n must be >= 1, got 0"},
		{sessionproblem.Periodic, sessionproblem.MessagePassing, []sessionproblem.Option{sessionproblem.WithSpec(0, 3)}, "s must be >= 1, got 0"},
		// The semi-synchronous and sporadic formulas divide by c1.
		{sessionproblem.SemiSynchronous, sessionproblem.SharedMemory, []sessionproblem.Option{sessionproblem.WithStepBounds(0, 10)}, "c1 must be >= 1, got 0"},
		{sessionproblem.SemiSynchronous, sessionproblem.MessagePassing, []sessionproblem.Option{sessionproblem.WithStepBounds(0, 10)}, "c1 must be >= 1, got 0"},
		{sessionproblem.Sporadic, sessionproblem.MessagePassing, []sessionproblem.Option{sessionproblem.WithStepBounds(0, 10)}, "c1 must be >= 1, got 0"},
		{sessionproblem.SemiSynchronous, sessionproblem.MessagePassing, []sessionproblem.Option{sessionproblem.WithStepBounds(-1, 10)}, "c1 must be >= 1, got -1"},
		// The synchronous SM formulas do not read b.
		{sessionproblem.Synchronous, sessionproblem.SharedMemory, []sessionproblem.Option{sessionproblem.WithAccessBound(0)}, ""},
		{sessionproblem.Periodic, sessionproblem.MessagePassing, []sessionproblem.Option{sessionproblem.WithAccessBound(1)}, ""},
	}
	for _, tc := range cases {
		env, err := sessionproblem.PaperEnvelope(tc.m, tc.comm, tc.opts...)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s/%s: %v", tc.m, tc.comm, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s/%s: envelope %+v, err %v; want %q", tc.m, tc.comm, env, err, tc.wantErr)
		}
	}
	env, err := sessionproblem.PaperEnvelope(sessionproblem.Synchronous, sessionproblem.SharedMemory,
		sessionproblem.WithAccessBound(0))
	if want := (sessionproblem.Envelope{Lower: 60, Upper: 60, Unit: "time"}); err != nil || env != want {
		t.Errorf("synchronous SM at b=0: %+v, %v; want %+v", env, err, want)
	}
	// The cells whose formulas never divide by c1 still evaluate at c1 = 0.
	for _, tc := range []struct {
		m    sessionproblem.Model
		comm sessionproblem.Comm
		want sessionproblem.Envelope
	}{
		{sessionproblem.Synchronous, sessionproblem.SharedMemory, sessionproblem.Envelope{Lower: 60, Upper: 60, Unit: "time"}},
		{sessionproblem.Synchronous, sessionproblem.MessagePassing, sessionproblem.Envelope{Lower: 60, Upper: 60, Unit: "time"}},
		{sessionproblem.Periodic, sessionproblem.SharedMemory, sessionproblem.Envelope{Lower: 60, Upper: 320, Unit: "time"}},
		{sessionproblem.Periodic, sessionproblem.MessagePassing, sessionproblem.Envelope{Lower: 60, Upper: 88, Unit: "time"}},
		{sessionproblem.Asynchronous, sessionproblem.SharedMemory, sessionproblem.Envelope{Lower: 5, Upper: 158, Unit: "rounds"}},
		{sessionproblem.Asynchronous, sessionproblem.MessagePassing, sessionproblem.Envelope{Lower: 140, Upper: 200, Unit: "time"}},
	} {
		env, err := sessionproblem.PaperEnvelope(tc.m, tc.comm, sessionproblem.WithStepBounds(0, 10))
		if err != nil || env != tc.want {
			t.Errorf("%s/%s at c1=0: %+v, %v; want %+v", tc.m, tc.comm, env, err, tc.want)
		}
	}
}

func TestPaperEnvelopeRejectsSporadicSM(t *testing.T) {
	_, err := sessionproblem.PaperEnvelope(sessionproblem.Sporadic, sessionproblem.SharedMemory)
	if err == nil || !strings.Contains(err.Error(), "Asynchronous") {
		t.Fatalf("err = %v, want a redirect to the asynchronous model", err)
	}
}

func TestSweepNetworkDiameter(t *testing.T) {
	res, err := sessionproblem.Sweep(context.Background(), sessionproblem.SweepNetworkDiameter,
		sessionproblem.WithSpec(2, 4),
		sessionproblem.WithStepBounds(1, 3),
		sessionproblem.WithDelayBounds(0, 5),
		sessionproblem.WithSeeds(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("got %d topologies, want 4 (complete, star, ring, line)", len(res.Points))
	}
	labels := map[string]bool{}
	for _, p := range res.Points {
		labels[p.Label] = true
		if p.Measured <= 0 {
			t.Errorf("%s: measured %v, want > 0", p.Label, p.Measured)
		}
		if p.Measured > p.PaperUpper {
			t.Errorf("%s: measured %v exceeds abstract bound %v", p.Label, p.Measured, p.PaperUpper)
		}
	}
	for _, want := range []string{"complete", "star", "ring", "line"} {
		if !labels[want] {
			t.Errorf("missing topology %q in %v", want, res.Points)
		}
	}
}
