package sm

import (
	"errors"
	"strings"
	"testing"
	"unsafe"

	"sessionproblem/internal/model"
	"sessionproblem/internal/timing"
)

// counter writes to its own variable k times, then idles.
type counter struct {
	v    model.VarID
	left int
}

func (c *counter) Target() model.VarID { return c.v }

func (c *counter) Step(old Value) Value {
	if c.left == 0 {
		return old
	}
	c.left--
	n, _ := old.(int)
	return n + 1
}

func (c *counter) Idle() bool { return c.left == 0 }

// restless never idles.
type restless struct{ v model.VarID }

func (r *restless) Target() model.VarID { return r.v }
func (r *restless) Step(old Value) Value {
	n, _ := old.(int)
	return n + 1
}
func (r *restless) Idle() bool { return false }

// flipper violates idle stability: it reports idle, then changes state when
// stepped again.
type flipper struct {
	v     model.VarID
	steps int
}

func (f *flipper) Target() model.VarID { return f.v }
func (f *flipper) Step(old Value) Value {
	f.steps++
	n, _ := old.(int)
	return n + 1
}
func (f *flipper) Idle() bool { return f.steps >= 1 && f.steps < 2 }

func twoCounterSystem(k int) *System {
	return &System{
		Procs: []Process{&counter{v: 1, left: k}, &counter{v: 2, left: k}},
		B:     2,
		Ports: []PortBinding{{Var: 1, Proc: 0}, {Var: 2, Proc: 1}},
	}
}

// inBothLayouts runs f once per variable-storage layout: slots found
// through a map (NumVars 0) and a dense slice (NumVars covering every
// variable the tests use). It returns each run's error text, "" for none,
// so callers can check that the layouts fail alike.
func inBothLayouts(t *testing.T, f func(t *testing.T, numVars int) error) []string {
	t.Helper()
	var msgs []string
	for _, l := range []struct {
		name    string
		numVars int
	}{{"map", 0}, {"dense", 16}} {
		t.Run(l.name, func(t *testing.T) {
			msg := ""
			if err := f(t, l.numVars); err != nil {
				msg = err.Error()
			}
			msgs = append(msgs, msg)
		})
	}
	return msgs
}

func TestRunBasic(t *testing.T) {
	m := timing.NewSynchronous(3, 0)
	res, err := Run(twoCounterSystem(4), m.NewScheduler(timing.Slow, 1), Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Each process takes 4 steps at times 3,6,9,12.
	if res.Finish != 12 {
		t.Errorf("Finish: got %v, want 12", res.Finish)
	}
	if got := res.Trace.CountSessions(); got != 4 {
		t.Errorf("sessions: got %d, want 4", got)
	}
	if got := res.Trace.CountRounds(); got != 4 {
		t.Errorf("rounds: got %d, want 4", got)
	}
	if err := res.Trace.Validate(); err != nil {
		t.Errorf("trace invalid: %v", err)
	}
	if err := m.CheckAdmissible(res.Trace, nil); err != nil {
		t.Errorf("trace inadmissible: %v", err)
	}
	for p, at := range res.IdleAt {
		if at != 12 {
			t.Errorf("IdleAt[%d]: got %v, want 12", p, at)
		}
	}
}

func TestRunRecordsValues(t *testing.T) {
	inBothLayouts(t, func(t *testing.T, numVars int) error {
		sys := twoCounterSystem(2)
		sys.NumVars = numVars
		m := timing.NewSynchronous(1, 0)
		res, err := Run(sys, m.NewScheduler(timing.Slow, 1), Options{})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		fv := res.Trace.FinalValues()
		if fv[1] != 2 || fv[2] != 2 {
			t.Errorf("final values: got %v, want both 2", fv)
		}
		// First step of proc 0 reads nil-ish zero and writes 1.
		s0 := res.Trace.Steps[0]
		if len(s0.Accesses) != 1 || s0.Accesses[0].Old != nil || s0.Accesses[0].New != 1 {
			t.Errorf("first access wrong: %+v", s0.Accesses)
		}
		return nil
	})
}

func TestRunPortAnnotation(t *testing.T) {
	m := timing.NewSynchronous(1, 0)
	sys := twoCounterSystem(1)
	res, err := Run(sys, m.NewScheduler(timing.Slow, 1), Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, s := range res.Trace.Steps {
		if s.Port == model.NoPort {
			t.Errorf("step %v should be a port step", s)
		}
		if s.Port != s.Proc {
			t.Errorf("step %v: port %d != proc %d", s, s.Port, s.Proc)
		}
	}
}

func TestRunNoTermination(t *testing.T) {
	sys := &System{
		Procs: []Process{&restless{v: 1}},
		B:     2,
	}
	m := timing.NewSynchronous(1, 0)
	_, err := Run(sys, m.NewScheduler(timing.Slow, 1), Options{MaxSteps: 100})
	if !errors.Is(err, ErrNoTermination) {
		t.Errorf("got %v, want ErrNoTermination", err)
	}
}

func TestRunBBoundViolation(t *testing.T) {
	msgs := inBothLayouts(t, func(t *testing.T, numVars int) error {
		// Three processes all write variable 9 with b=2.
		sys := &System{
			Procs: []Process{
				&counter{v: 9, left: 1},
				&counter{v: 9, left: 1},
				&counter{v: 9, left: 1},
			},
			B:       2,
			NumVars: numVars,
		}
		m := timing.NewSynchronous(1, 0)
		_, err := Run(sys, m.NewScheduler(timing.Slow, 1), Options{})
		if err == nil || !strings.Contains(err.Error(), "b=2") {
			t.Errorf("b-bound violation not caught: %v", err)
		}
		return err
	})
	if msgs[0] != msgs[1] {
		t.Errorf("layouts disagree: %q vs %q", msgs[0], msgs[1])
	}
}

// TestRunBBoundSpill drives one variable past the three accessors a slot
// holds inline: six processes, each stepping twice, fit b = 6 (so the
// spilled accessors are recognised on their second step) and break b = 5
// at the sixth.
func TestRunBBoundSpill(t *testing.T) {
	for _, tt := range []struct {
		b       int
		wantErr string
	}{{6, ""}, {5, "sm: variable 3 accessed by 6 > b=5 processes"}} {
		msgs := inBothLayouts(t, func(t *testing.T, numVars int) error {
			sys := &System{B: tt.b, NumVars: numVars}
			for i := 0; i < 6; i++ {
				sys.Procs = append(sys.Procs, &counter{v: 3, left: 2})
			}
			m := timing.NewSynchronous(1, 0)
			res, err := Run(sys, m.NewScheduler(timing.Slow, 1), Options{})
			if err == nil {
				if fv := res.Trace.FinalValues(); fv[3] != 12 {
					t.Errorf("b=%d: final value %v, want 12", tt.b, fv[3])
				}
			}
			return err
		})
		for _, msg := range msgs {
			if msg != tt.wantErr {
				t.Errorf("b=%d: error %q, want %q", tt.b, msg, tt.wantErr)
			}
		}
	}
}

// TestRunDenseRange: with NumVars declared, a step or an initial value
// outside [0, NumVars) is an error, not a panic; the map layout has no
// range and runs the same system.
func TestRunDenseRange(t *testing.T) {
	m := timing.NewSynchronous(1, 0)
	for _, tt := range []struct {
		name    string
		sys     *System
		wantErr string
	}{
		{"target", &System{Procs: []Process{&counter{v: 4, left: 1}}, B: 2},
			"sm: variable 4 outside declared range [0, 4)"},
		{"negative target", &System{Procs: []Process{&counter{v: -1, left: 1}}, B: 2},
			"sm: variable -1 outside declared range [0, 4)"},
		{"initial", &System{Procs: []Process{&counter{v: 0, left: 1}}, B: 2,
			Initial: map[model.VarID]Value{9: 1, 7: 1, 1: 1, 12: 1}},
			"sm: initial variable 7 outside declared range [0, 4)"},
	} {
		if _, err := Run(tt.sys, m.NewScheduler(timing.Slow, 1), Options{}); err != nil {
			t.Errorf("%s, map layout: %v", tt.name, err)
		}
		tt.sys.NumVars = 4
		tt.sys.Procs[0].(*counter).left = 1
		_, err := Run(tt.sys, m.NewScheduler(timing.Slow, 1), Options{})
		if err == nil || err.Error() != tt.wantErr {
			t.Errorf("%s, dense layout: error %v, want %q", tt.name, err, tt.wantErr)
		}
	}
}

// TestVarSlotSize pins the slot at 32 bytes, two to a cache line.
func TestVarSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(varSlot{}); got != 32 {
		t.Errorf("varSlot is %d bytes, want 32", got)
	}
}

func TestRunIdleStabilityProbes(t *testing.T) {
	m := timing.NewSynchronous(1, 0)
	res, err := Run(twoCounterSystem(2), m.NewScheduler(timing.Slow, 1), Options{ProbeSteps: 3})
	if err != nil {
		t.Fatalf("Run with probes: %v", err)
	}
	// 2 real steps + 3 probes per process.
	if got := len(res.Trace.Steps); got != 10 {
		t.Errorf("steps with probes: got %d, want 10", got)
	}
	if res.Finish != 2 {
		t.Errorf("Finish must ignore probe steps: got %v, want 2", res.Finish)
	}
}

func TestRunIdleViolationCaught(t *testing.T) {
	sys := &System{
		Procs: []Process{&flipper{v: 1}},
		B:     2,
	}
	m := timing.NewSynchronous(1, 0)
	_, err := Run(sys, m.NewScheduler(timing.Slow, 1), Options{ProbeSteps: 2})
	if err == nil || !strings.Contains(err.Error(), "left idle state") {
		t.Errorf("idle violation not caught: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	m := timing.NewSynchronous(1, 0)
	if _, err := Run(&System{B: 2}, m.NewScheduler(timing.Slow, 1), Options{}); err == nil {
		t.Error("empty system accepted")
	}
	sys := twoCounterSystem(1)
	sys.B = 1
	if _, err := Run(sys, m.NewScheduler(timing.Slow, 1), Options{}); err == nil {
		t.Error("b=1 accepted")
	}
}

func TestRunInitialValues(t *testing.T) {
	inBothLayouts(t, func(t *testing.T, numVars int) error {
		sys := twoCounterSystem(1)
		sys.Initial = map[model.VarID]Value{1: 100}
		sys.NumVars = numVars
		m := timing.NewSynchronous(1, 0)
		res, err := Run(sys, m.NewScheduler(timing.Slow, 1), Options{})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if fv := res.Trace.FinalValues(); fv[1] != 101 || fv[2] != 1 {
			t.Errorf("final values %v, want 101 and 1", fv)
		}
		return nil
	})
}

func TestRunDeterminism(t *testing.T) {
	m := timing.NewSemiSynchronous(2, 7, 0)
	run := func() *Result {
		res, err := Run(twoCounterSystem(5), m.NewScheduler(timing.Random, 42), Options{})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Trace.Steps) != len(b.Trace.Steps) {
		t.Fatal("nondeterministic step count")
	}
	for i := range a.Trace.Steps {
		if a.Trace.Steps[i].Time != b.Trace.Steps[i].Time ||
			a.Trace.Steps[i].Proc != b.Trace.Steps[i].Proc {
			t.Fatalf("nondeterministic step %d", i)
		}
	}
}

func TestRunSemiSyncAdmissible(t *testing.T) {
	m := timing.NewSemiSynchronous(2, 7, 0)
	for _, st := range timing.AllStrategies() {
		res, err := Run(twoCounterSystem(5), m.NewScheduler(st, 9), Options{})
		if err != nil {
			t.Fatalf("Run %v: %v", st, err)
		}
		if err := m.CheckAdmissible(res.Trace, nil); err != nil {
			t.Errorf("strategy %v produced inadmissible trace: %v", st, err)
		}
	}
}

func TestRunPeriodicAdmissible(t *testing.T) {
	m := timing.NewPeriodic(2, 9, 0)
	res, err := Run(twoCounterSystem(6), m.NewScheduler(timing.Skewed, 3), Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := m.CheckAdmissible(res.Trace, nil); err != nil {
		t.Errorf("periodic trace inadmissible: %v", err)
	}
	// Skewed: proc 0 slow (period 9), proc 1 fast (period 2).
	if res.IdleAt[0] != 6*9 {
		t.Errorf("slow proc idle at %v, want 54", res.IdleAt[0])
	}
	if res.IdleAt[1] != 6*2 {
		t.Errorf("fast proc idle at %v, want 12", res.IdleAt[1])
	}
}

// TestScratchReuseAcrossLayouts: a scratch carries no variable value or
// accessor from one run into the next, whichever layouts the two use.
func TestScratchReuseAcrossLayouts(t *testing.T) {
	m := timing.NewSynchronous(1, 0)
	var sc Scratch
	for i, numVars := range []int{8, 0, 4, 8, 0} {
		sys := &System{B: 2, NumVars: numVars}
		for p := 0; p < 4; p++ {
			// Each run rotates which process steps on which variable, so
			// accessor lists carried over would break b = 2 by the third run.
			sys.Procs = append(sys.Procs, &counter{v: model.VarID((p + i) % 4), left: 1 + i})
		}
		res, err := Run(sys, m.NewScheduler(timing.Slow, 1), Options{Scratch: &sc})
		if err != nil {
			t.Fatalf("run %d (NumVars %d): %v", i, numVars, err)
		}
		for _, st := range res.Trace.Steps[:4] {
			if st.Accesses[0].Old != nil {
				t.Errorf("run %d (NumVars %d): step %d read a stale %v", i, numVars, st.Index, st.Accesses[0].Old)
			}
		}
		for v, val := range res.Trace.FinalValues() {
			if val != 1+i {
				t.Errorf("run %d (NumVars %d): variable %d ends at %v, want %d", i, numVars, v, val, 1+i)
			}
		}
	}
}
