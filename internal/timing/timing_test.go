package timing

import (
	"strings"
	"testing"
	"testing/quick"

	"sessionproblem/internal/model"
	"sessionproblem/internal/sim"
)

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		m       Model
		wantErr string
	}{
		{name: "sync ok", m: NewSynchronous(3, 7)},
		{name: "sync zero c2", m: NewSynchronous(0, 7), wantErr: "c2 > 0"},
		{name: "periodic ok", m: NewPeriodic(2, 5, 10)},
		{name: "periodic inverted", m: NewPeriodic(5, 2, 10), wantErr: "cmin <= cmax"},
		{name: "periodic zero min", m: NewPeriodic(0, 2, 10), wantErr: "cmin"},
		{name: "semisync ok", m: NewSemiSynchronous(1, 4, 10)},
		{name: "semisync zero c1", m: NewSemiSynchronous(0, 4, 10), wantErr: "c1 <= c2"},
		{name: "semisync inverted", m: NewSemiSynchronous(5, 4, 10), wantErr: "c1 <= c2"},
		{name: "sporadic ok", m: NewSporadic(2, 3, 9, 0)},
		{name: "sporadic zero c1", m: NewSporadic(0, 3, 9, 0), wantErr: "c1 > 0"},
		{name: "sporadic inverted delays", m: NewSporadic(2, 9, 3, 0), wantErr: "d1 <= d2"},
		{name: "async sm ok", m: NewAsynchronousSM(0)},
		{name: "async mp ok", m: NewAsynchronousMP(2, 9)},
		{name: "async mp zero c2", m: NewAsynchronousMP(0, 9), wantErr: "c2 > 0"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.m.Validate()
			if tt.wantErr == "" {
				if err != nil {
					t.Errorf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("got err %v, want containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestSporadicGapCapDefault(t *testing.T) {
	m := NewSporadic(2, 0, 100, 0)
	if m.GapCap != 100 {
		t.Errorf("default gap cap: got %v, want 100 (= max(4c1, d2))", m.GapCap)
	}
	m = NewSporadic(50, 0, 10, 0)
	if m.GapCap != 200 {
		t.Errorf("default gap cap: got %v, want 200 (= 4c1)", m.GapCap)
	}
	m = NewSporadic(2, 0, 100, 7)
	if m.GapCap != 7 {
		t.Errorf("explicit gap cap: got %v, want 7", m.GapCap)
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		Synchronous:     "synchronous",
		Periodic:        "periodic",
		SemiSynchronous: "semi-synchronous",
		Sporadic:        "sporadic",
		AsynchronousSM:  "asynchronous(SM)",
		AsynchronousMP:  "asynchronous(MP)",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
	if !NewAsynchronousSM(0).RoundBased() {
		t.Error("async SM should be round-based")
	}
	if NewSynchronous(1, 1).RoundBased() {
		t.Error("synchronous should not be round-based")
	}
}

func TestU(t *testing.T) {
	m := NewSporadic(1, 3, 10, 0)
	if got := m.U(); got != 7 {
		t.Errorf("U: got %v, want 7", got)
	}
}

// traceWithGaps builds a single-process trace whose step times are the
// cumulative sums of gaps.
func traceWithGaps(gaps ...sim.Duration) *model.Trace {
	tr := &model.Trace{NumProcs: 1, NumPorts: 0}
	at := sim.Time(0)
	for i, g := range gaps {
		at = at.Add(g)
		tr.Steps = append(tr.Steps, model.Step{Index: i, Proc: 0, Time: at, Port: model.NoPort})
	}
	return tr
}

func TestCheckAdmissibleGaps(t *testing.T) {
	tests := []struct {
		name string
		m    Model
		gaps []sim.Duration
		ok   bool
	}{
		{name: "sync exact", m: NewSynchronous(3, 1), gaps: []sim.Duration{3, 3, 3}, ok: true},
		{name: "sync off", m: NewSynchronous(3, 1), gaps: []sim.Duration{3, 4}, ok: false},
		{name: "sync first step late", m: NewSynchronous(3, 1), gaps: []sim.Duration{4, 3}, ok: false},
		{name: "periodic constant", m: NewPeriodic(2, 5, 0), gaps: []sim.Duration{4, 4, 4}, ok: true},
		{name: "periodic varying", m: NewPeriodic(2, 5, 0), gaps: []sim.Duration{4, 5}, ok: false},
		{name: "periodic out of range", m: NewPeriodic(2, 5, 0), gaps: []sim.Duration{6, 6}, ok: false},
		{name: "semisync in range", m: NewSemiSynchronous(2, 5, 0), gaps: []sim.Duration{2, 5, 3}, ok: true},
		{name: "semisync too fast", m: NewSemiSynchronous(2, 5, 0), gaps: []sim.Duration{1}, ok: false},
		{name: "semisync too slow", m: NewSemiSynchronous(2, 5, 0), gaps: []sim.Duration{6}, ok: false},
		{name: "sporadic above c1", m: NewSporadic(2, 0, 5, 0), gaps: []sim.Duration{2, 1000}, ok: true},
		{name: "sporadic below c1", m: NewSporadic(2, 0, 5, 0), gaps: []sim.Duration{1}, ok: false},
		{name: "async sm anything", m: NewAsynchronousSM(0), gaps: []sim.Duration{1, 999, 5}, ok: true},
		{name: "async mp within c2", m: NewAsynchronousMP(4, 9), gaps: []sim.Duration{1, 4}, ok: true},
		{name: "async mp above c2", m: NewAsynchronousMP(4, 9), gaps: []sim.Duration{5}, ok: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.m.CheckAdmissible(traceWithGaps(tt.gaps...), nil)
			if tt.ok && err != nil {
				t.Errorf("admissible trace rejected: %v", err)
			}
			if !tt.ok && err == nil {
				t.Error("inadmissible trace accepted")
			}
		})
	}
}

func TestCheckAdmissibleDelays(t *testing.T) {
	mk := func(d sim.Duration) []MessageDelay {
		return []MessageDelay{{Src: 0, Dst: 1, Sent: 10, Delivered: 10 + sim.Time(d)}}
	}
	empty := &model.Trace{NumProcs: 2}

	sp := NewSporadic(1, 3, 8, 0)
	if err := sp.CheckAdmissible(empty, mk(3)); err != nil {
		t.Errorf("delay at d1 rejected: %v", err)
	}
	if err := sp.CheckAdmissible(empty, mk(8)); err != nil {
		t.Errorf("delay at d2 rejected: %v", err)
	}
	if err := sp.CheckAdmissible(empty, mk(2)); err == nil {
		t.Error("delay below d1 accepted")
	}
	if err := sp.CheckAdmissible(empty, mk(9)); err == nil {
		t.Error("delay above d2 accepted")
	}

	sy := NewSynchronous(1, 5)
	if err := sy.CheckAdmissible(empty, mk(5)); err != nil {
		t.Errorf("sync delay d2 rejected: %v", err)
	}
	if err := sy.CheckAdmissible(empty, mk(4)); err == nil {
		t.Error("sync delay != d2 accepted")
	}
}

func TestCheckAdmissibleRejectsInvalidTrace(t *testing.T) {
	tr := traceWithGaps(3, 3)
	tr.Steps[1].Index = 9
	if err := NewSynchronous(3, 1).CheckAdmissible(tr, nil); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	m := NewSemiSynchronous(2, 9, 20)
	a := m.NewScheduler(Random, 42)
	b := m.NewScheduler(Random, 42)
	for i := 0; i < 200; i++ {
		if a.Gap(i%4) != b.Gap(i%4) {
			t.Fatalf("gap streams diverged at %d", i)
		}
		if a.Delay(0, 1) != b.Delay(0, 1) {
			t.Fatalf("delay streams diverged at %d", i)
		}
	}
}

func TestSchedulerPeriodicConstantPerProcess(t *testing.T) {
	m := NewPeriodic(2, 9, 5)
	s := m.NewScheduler(Random, 7)
	for proc := 0; proc < 5; proc++ {
		p0 := s.PeriodOf(proc)
		if p0 < 2 || p0 > 9 {
			t.Errorf("proc %d period %v outside [2,9]", proc, p0)
		}
		for i := 0; i < 10; i++ {
			if g := s.Gap(proc); g != p0 {
				t.Errorf("proc %d gap %v != period %v", proc, g, p0)
			}
		}
	}
}

func TestSchedulerPeriodicStrategies(t *testing.T) {
	m := NewPeriodic(2, 9, 5)
	if g := m.NewScheduler(Slow, 1).PeriodOf(3); g != 9 {
		t.Errorf("slow period: got %v, want 9", g)
	}
	if g := m.NewScheduler(Fast, 1).PeriodOf(3); g != 2 {
		t.Errorf("fast period: got %v, want 2", g)
	}
	sk := m.NewScheduler(Skewed, 1)
	if sk.PeriodOf(0) != 9 || sk.PeriodOf(1) != 2 {
		t.Error("skewed periods wrong")
	}
}

func TestSchedulerPeriodOfPanicsOnWrongModel(t *testing.T) {
	s := NewSynchronous(3, 1).NewScheduler(Random, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.PeriodOf(0)
}

func TestSchedulerStrategiesStayAdmissible(t *testing.T) {
	models := []Model{
		NewSynchronous(3, 7),
		NewPeriodic(2, 6, 11),
		NewSemiSynchronous(2, 8, 11),
		NewSporadic(3, 2, 9, 0),
		NewAsynchronousSM(6),
		NewAsynchronousMP(4, 9),
	}
	for _, m := range models {
		for _, st := range AllStrategies() {
			s := m.NewScheduler(st, 99)
			for proc := 0; proc < 4; proc++ {
				at := sim.Time(0)
				tr := &model.Trace{NumProcs: 4}
				for i := 0; i < 20; i++ {
					at = at.Add(s.Gap(proc))
					tr.Steps = append(tr.Steps, model.Step{
						Index: i, Proc: proc, Time: at, Port: model.NoPort,
					})
				}
				// Re-index after building only this process's steps.
				for i := range tr.Steps {
					tr.Steps[i].Index = i
				}
				if err := m.CheckAdmissible(tr, nil); err != nil {
					t.Errorf("%v/%v proc %d: scheduler produced inadmissible gaps: %v",
						m.Kind, st, proc, err)
				}
			}
			if m.Kind == AsynchronousSM {
				continue // no delays in SM
			}
			for i := 0; i < 50; i++ {
				d := MessageDelay{Src: 0, Dst: 1, Sent: 0,
					Delivered: sim.Time(s.Delay(0, 1))}
				if r, _, _ := m.checkDelay(d.Delay()); r != 0 {
					t.Errorf("%v/%v: scheduler produced inadmissible delay %v", m.Kind, st, d.Delay())
				}
			}
		}
	}
}

func TestStrategyString(t *testing.T) {
	for _, st := range AllStrategies() {
		if s := st.String(); strings.HasPrefix(s, "Strategy(") {
			t.Errorf("missing name for strategy %d", int(st))
		}
	}
	if len(AllStrategies()) != 5 {
		t.Errorf("AllStrategies: got %d, want 5", len(AllStrategies()))
	}
}

// Property: scheduler gaps under every strategy fall within the model's
// admissible range for randomly drawn model constants.
func TestSchedulerGapRangeProperty(t *testing.T) {
	f := func(seed uint64, c1raw, spanRaw uint8, stratRaw uint8) bool {
		c1 := sim.Duration(c1raw%20) + 1
		c2 := c1 + sim.Duration(spanRaw%20)
		m := NewSemiSynchronous(c1, c2, 10)
		st := AllStrategies()[int(stratRaw)%len(AllStrategies())]
		s := m.NewScheduler(st, seed)
		for i := 0; i < 30; i++ {
			g := s.Gap(i % 3)
			if g < c1 || g > c2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStartSyncScheduling(t *testing.T) {
	m := NewSynchronous(3, 1).WithSynchronizedStart()
	s := m.NewScheduler(Slow, 1)
	if g := s.Gap(0); g != 0 {
		t.Errorf("first gap: got %v, want 0", g)
	}
	if g := s.Gap(0); g != 3 {
		t.Errorf("second gap: got %v, want 3", g)
	}
	if g := s.Gap(1); g != 0 {
		t.Errorf("other process first gap: got %v, want 0", g)
	}
}

func TestStartSyncAdmissibility(t *testing.T) {
	m := NewSynchronous(3, 1).WithSynchronizedStart()
	good := traceWithGaps(0, 3, 3)
	if err := m.CheckAdmissible(good, nil); err != nil {
		t.Errorf("synchronized-start trace rejected: %v", err)
	}
	bad := traceWithGaps(3, 3)
	if err := m.CheckAdmissible(bad, nil); err == nil {
		t.Error("unsynchronized first step accepted under StartSync")
	}
	// Periodic with synchronized start: 0, then a constant period.
	mp := NewPeriodic(2, 5, 0).WithSynchronizedStart()
	if err := mp.CheckAdmissible(traceWithGaps(0, 4, 4, 4), nil); err != nil {
		t.Errorf("periodic synchronized-start rejected: %v", err)
	}
	if err := mp.CheckAdmissible(traceWithGaps(0, 4, 5), nil); err == nil {
		t.Error("varying periodic gaps accepted under StartSync")
	}
}

func TestMessageDelayDelay(t *testing.T) {
	d := MessageDelay{Sent: 5, Delivered: 12}
	if d.Delay() != 7 {
		t.Errorf("Delay: got %v, want 7", d.Delay())
	}
}

// AdmissibilityViolations is the collecting counterpart of CheckAdmissible:
// it must list every violated bound in deterministic order (processes by
// index, steps in trace order, then delays in send order), agree with
// CheckAdmissible on the first violation, and return nil — not an empty
// slice — for admissible computations.
func TestAdmissibilityViolationsCollectsAll(t *testing.T) {
	m := NewSemiSynchronous(2, 5, 8)

	// p0 violates twice (gap 1 < c1, gap 6 > c2); p1 stays in range.
	tr := &model.Trace{NumProcs: 2, NumPorts: 0, Steps: []model.Step{
		{Index: 0, Proc: 0, Time: 1, Port: model.NoPort},
		{Index: 1, Proc: 1, Time: 3, Port: model.NoPort},
		{Index: 2, Proc: 1, Time: 6, Port: model.NoPort},
		{Index: 3, Proc: 0, Time: 7, Port: model.NoPort},
	}}
	delays := []MessageDelay{
		{Src: 0, Dst: 1, Sent: 0, Delivered: 8},  // delay 8 = d2, fine
		{Src: 1, Dst: 0, Sent: 0, Delivered: 20}, // delay 12 > d2
	}

	out, err := m.AdmissibilityViolations(tr, delays)
	if err != nil || len(out) != 3 {
		t.Fatalf("got %d violations (err %v), want 3: %v", len(out), err, out)
	}
	for i, want := range []string{"p0 step 0: gap 1 outside [2,5]", "p0 step 3: gap 6 outside [2,5]", "message 1->0 sent 0: delay 20 outside [0,8]"} {
		if got := out[i].Error(); got != want {
			t.Errorf("violation %d = %q, want %q", i, got, want)
		}
	}
	if err := m.CheckAdmissible(tr, delays); err == nil || err.Error() != out[0].Error() {
		t.Errorf("fail-fast variant disagrees: CheckAdmissible = %v, first violation = %v",
			err, out[0])
	}

	if got, err := m.AdmissibilityViolations(traceWithGaps(2, 5, 3), nil); got != nil || err != nil {
		t.Errorf("admissible trace: got %v, %v, want nil, nil", got, err)
	}

	bad := traceWithGaps(3, 3)
	bad.Steps[1].Index = 9
	if got, err := m.AdmissibilityViolations(bad, nil); got != nil || err == nil || !strings.HasPrefix(err.Error(), "trace invalid: ") {
		t.Errorf("invalid trace: got %v, %v, want only a trace-invalid error", got, err)
	}
}

// A Checker sees steps and delays interleaved in execution order, yet must
// answer in the trace functions' order: fail-fast reports the first gap
// violation even when a delay violation came earlier, and collecting lists
// processes by index before delays, whatever order they broke in.
func TestCheckerOrderIndependentOfInterleaving(t *testing.T) {
	m := NewAsynchronousMP(3, 5)
	late := MessageDelay{Src: 0, Dst: 1, Sent: 0, Delivered: 9}
	steps := []model.Step{
		{Index: 0, Proc: 1, Time: 5, Port: model.NoPort}, // p1: gap 5 > 3
		{Index: 1, Proc: 0, Time: 6, Port: model.NoPort}, // p0: gap 6 > 3
		{Index: 2, Proc: 1, Time: 7, Port: model.NoPort},
		{Index: 3, Proc: 0, Time: 11, Port: model.NoPort}, // p0: gap 5 > 3
	}
	failFast, collecting := m.NewChecker(2), m.NewCollectingChecker(2)
	for _, c := range []*Checker{failFast, collecting} {
		c.ObserveDelay(late)
		for _, s := range steps {
			c.ObserveStep(s)
		}
	}
	if err := failFast.Err(); err == nil || !strings.HasPrefix(err.Error(), "p1 step 0:") {
		t.Errorf("fail-fast Err = %v, want p1's step-0 gap violation", err)
	}
	got := collecting.Violations()
	want := []string{"p0 step 1:", "p0 step 3:", "p1 step 0:", "message 0->1"}
	if len(got) != len(want) {
		t.Fatalf("Violations = %v, want %d entries", got, len(want))
	}
	for i := range want {
		if !strings.HasPrefix(got[i].Error(), want[i]) {
			t.Errorf("violation %d = %v, want prefix %q", i, got[i], want[i])
		}
	}
	if failFast.Violations() != nil {
		t.Errorf("fail-fast checker collected %v", failFast.Violations())
	}
}

// TestViolationText pins the exact text of each of the checker's ten
// messages, one case per rule. Violation lists reach the facade, the disk
// cache and the journal as this text, so it must not drift.
func TestViolationText(t *testing.T) {
	step := func(proc, index int, at sim.Time) model.Step {
		return model.Step{Index: index, Proc: proc, Time: at, Port: model.NoPort}
	}
	cases := []struct {
		name   string
		m      Model
		steps  []model.Step
		delays []MessageDelay
		want   string
	}{
		{"synchronized start", NewSemiSynchronous(2, 10, 0).WithSynchronizedStart(),
			[]model.Step{step(1, 0, 3)}, nil,
			"p1: first step at 3, want 0 under synchronized start"},
		{"synchronous gap", NewSynchronous(4, 6),
			[]model.Step{step(0, 0, 4), step(1, 1, 4), step(1, 2, 9)}, nil,
			"p1 step 2: gap 5 != c2 4"},
		{"period out of range", NewPeriodic(2, 5, 6),
			[]model.Step{step(0, 0, 7)}, nil,
			"p0: period 7 outside [2,5]"},
		{"gap off the period", NewPeriodic(2, 5, 6),
			[]model.Step{step(0, 0, 3), step(0, 1, 7)}, nil,
			"p0 step 1: gap 4 != period 3"},
		{"semi-synchronous gap", NewSemiSynchronous(2, 10, 0),
			[]model.Step{step(0, 0, 11)}, nil,
			"p0 step 0: gap 11 outside [2,10]"},
		{"sporadic gap", NewSporadic(3, 2, 6, 0),
			[]model.Step{step(2, 0, 1)}, nil,
			"p2 step 0: gap 1 below c1 3"},
		{"negative gap", NewAsynchronousSM(0),
			[]model.Step{step(0, 0, 5), step(0, 1, 3)}, nil,
			"p0 step 1: negative gap"},
		{"asynchronous MP gap", NewAsynchronousMP(3, 5),
			[]model.Step{step(1, 0, 4)}, nil,
			"p1 step 0: gap 4 outside [0,3]"},
		{"synchronous delay", NewSynchronous(4, 6),
			nil, []MessageDelay{{Src: 0, Dst: 1, Sent: 4, Delivered: 9}},
			"message 0->1 sent 4: delay 5 != d2 6"},
		{"delay out of range", NewSporadic(3, 2, 6, 0),
			nil, []MessageDelay{{Src: 2, Dst: 0, Sent: 12, Delivered: 13}},
			"message 2->0 sent 12: delay 1 outside [2,6]"},
	}
	for _, tc := range cases {
		c, all := tc.m.NewChecker(3), tc.m.NewCollectingChecker(3)
		for _, s := range tc.steps {
			c.ObserveStep(s)
			all.ObserveStep(s)
		}
		for _, d := range tc.delays {
			c.ObserveDelay(d)
			all.ObserveDelay(d)
		}
		if err := c.Err(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Err() = %v, want %q", tc.name, err, tc.want)
		}
		if vs := all.Violations(); len(vs) != 1 || vs[0].Error() != tc.want {
			t.Errorf("%s: collected %v, want only %q", tc.name, vs, tc.want)
		}
	}
}

// checkerVariants are the two checker modes the passing-path benches run.
func checkerVariants(m Model) []struct {
	name string
	mk   func(numProcs int) *Checker
} {
	return []struct {
		name string
		mk   func(numProcs int) *Checker
	}{{"fail-fast", m.NewChecker}, {"collecting", m.NewCollectingChecker}}
}

// BenchmarkCheckerObserveStep times the passing path of ObserveStep, which
// certifies every step of every verified run: an admissible
// semi-synchronous stream, each process stepping every 5 ticks.
func BenchmarkCheckerObserveStep(b *testing.B) {
	const procs = 8
	for _, v := range checkerVariants(NewSemiSynchronous(2, 10, 28)) {
		b.Run(v.name, func(b *testing.B) {
			c := v.mk(procs)
			for i := 0; i < b.N; i++ {
				c.ObserveStep(model.Step{Index: i, Proc: i % procs, Time: sim.Time(i/procs+1) * 5, Port: model.NoPort})
			}
			if err := c.Err(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkCheckerObserveDelay times the passing path of ObserveDelay: an
// admissible stream of 10-tick transits under d2 = 28.
func BenchmarkCheckerObserveDelay(b *testing.B) {
	const procs = 8
	for _, v := range checkerVariants(NewSemiSynchronous(2, 10, 28)) {
		b.Run(v.name, func(b *testing.B) {
			c := v.mk(procs)
			for i := 0; i < b.N; i++ {
				sent := sim.Time(i)
				c.ObserveDelay(MessageDelay{Src: i % procs, Dst: (i + 1) % procs, Sent: sent, Delivered: sent + 10})
			}
			if err := c.Err(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
