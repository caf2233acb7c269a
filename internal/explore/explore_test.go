package explore

import (
	"context"
	"errors"
	"strings"
	"testing"

	"sessionproblem/internal/alg/async"
	"sessionproblem/internal/alg/periodic"
	"sessionproblem/internal/alg/semisync"
	"sessionproblem/internal/alg/sporadic"
	"sessionproblem/internal/alg/synchronous"
	"sessionproblem/internal/core"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
)

func TestOdometer(t *testing.T) {
	od := newOdometer(3, 2)
	count := 1
	for od.next() {
		count++
	}
	if count != 8 {
		t.Errorf("odometer enumerated %d, want 8", count)
	}
	if od.next() {
		t.Error("exhausted odometer advanced")
	}
	if total, err := od.count(); err != nil || total != 8 {
		t.Errorf("count: got %d, %v", total, err)
	}
}

func TestOdometerOverflowGuard(t *testing.T) {
	od := newOdometer(64, 10)
	if _, err := od.count(); err == nil {
		t.Error("expected overflow error")
	}
}

// TestPeriodicAPExhaustive discharges the universal quantifier exactly: A(p)
// achieves s sessions on EVERY periodic schedule with periods from the
// choice set.
func TestPeriodicAPExhaustive(t *testing.T) {
	res, err := ExhaustiveSM(context.Background(), SMConfig{
		Alg:        periodic.NewSM(),
		Spec:       core.Spec{S: 3, N: 3, B: 2},
		Model:      timing.NewPeriodic(2, 9, 0),
		GapChoices: []sim.Duration{2, 5, 9},
	})
	if err != nil {
		t.Fatalf("ExhaustiveSM: %v", err)
	}
	// 3 ports + 3 relays (n=3, b=2 tree), one period decision each.
	if res.Explored != 729 {
		t.Errorf("explored %d schedules, want 3^6 = 729", res.Explored)
	}
	if !res.OK() {
		t.Errorf("violations found: %+v", res.Violations)
	}
	if res.MinSessions < 3 {
		t.Errorf("min sessions %d < 3", res.MinSessions)
	}
	// Theorem 4.1 at the worst enumerated period: s*cmax + comm.
	if res.WorstFinish < 27 {
		t.Errorf("worst finish %v implausibly small", res.WorstFinish)
	}
}

// TestSynchronousBreaksExhaustive: the synchronous algorithm run under
// enumerated periodic schedules must exhibit at least one violating
// schedule — the explorer finds the Theorem 4.3 separation witness.
func TestSynchronousBreaksExhaustive(t *testing.T) {
	res, err := ExhaustiveSM(context.Background(), SMConfig{
		Alg:        synchronous.NewSM(),
		Spec:       core.Spec{S: 3, N: 3, B: 2},
		Model:      timing.NewPeriodic(1, 8, 0),
		GapChoices: []sim.Duration{1, 8},
	})
	if err != nil {
		t.Fatalf("ExhaustiveSM: %v", err)
	}
	if res.OK() {
		t.Error("explorer failed to find the known violation")
	}
	v := res.Violations[0]
	if v.Sessions >= 3 || v.Err != nil {
		t.Errorf("violation malformed: %+v", v)
	}
}

// TestSemiSyncStepCountExhaustive checks the step-counting algorithm over
// every gap assignment from {c1, mid, c2} at depth 3.
func TestSemiSyncStepCountExhaustive(t *testing.T) {
	res, err := ExhaustiveSM(context.Background(), SMConfig{
		Alg:        semisync.NewSM(semisync.ForceStepCount),
		Spec:       core.Spec{S: 2, N: 2, B: 2},
		Model:      timing.NewSemiSynchronous(2, 6, 0),
		GapChoices: []sim.Duration{2, 4, 6},
		Depth:      3,
	})
	if err != nil {
		t.Fatalf("ExhaustiveSM: %v", err)
	}
	if res.Explored != 729 {
		t.Errorf("explored %d, want 3^6 = 729", res.Explored)
	}
	if !res.OK() {
		t.Errorf("violations: %+v", res.Violations)
	}
}

// TestPeriodicMPExhaustive enumerates gaps and delays jointly for A(p).
func TestPeriodicMPExhaustive(t *testing.T) {
	// Free per-step gaps in [cmin, cmax] are a superset of periodic
	// schedules, and A(p)'s correctness argument only needs gaps bounded by
	// cmax, so it must still pass. The periodic model does not admit gaps
	// that vary per step; the semi-synchronous model with the same bounds
	// does, and A(p)'s BuildMP ignores the model.
	res, err := ExhaustiveMP(context.Background(), MPConfig{
		Alg:          periodic.NewMP(),
		Spec:         core.Spec{S: 2, N: 2},
		Model:        timing.NewSemiSynchronous(1, 6, 10),
		GapChoices:   []sim.Duration{1, 6},
		DelayChoices: []sim.Duration{0, 10},
		Depth:        3,
		SendDepth:    2,
	})
	if err != nil {
		t.Fatalf("ExhaustiveMP: %v", err)
	}
	if res.Explored != 1024 {
		t.Errorf("explored %d, want 2^(2*3+2*2) = 1024", res.Explored)
	}
	if !res.OK() {
		t.Errorf("violations: %+v", res.Violations)
	}
}

// TestSporadicExhaustive enumerates A(sp) over sporadic gaps and delays.
func TestSporadicExhaustive(t *testing.T) {
	res, err := ExhaustiveMP(context.Background(), MPConfig{
		Alg:          sporadic.NewMP(),
		Spec:         core.Spec{S: 2, N: 2},
		Model:        timing.NewSporadic(2, 3, 9, 8),
		GapChoices:   []sim.Duration{2, 8},
		DelayChoices: []sim.Duration{3, 9},
		Depth:        3,
		SendDepth:    2,
	})
	if err != nil {
		t.Fatalf("ExhaustiveMP: %v", err)
	}
	if !res.OK() {
		t.Errorf("violations: %+v", res.Violations)
	}
	if res.MinSessions < 2 {
		t.Errorf("min sessions %d", res.MinSessions)
	}
}

func TestExploreValidation(t *testing.T) {
	if _, err := ExhaustiveSM(context.Background(), SMConfig{Spec: core.Spec{S: 0, N: 1}}); err == nil {
		t.Error("bad spec accepted")
	}
	if _, err := ExhaustiveSM(context.Background(), SMConfig{
		Alg:  periodic.NewSM(),
		Spec: core.Spec{S: 1, N: 1, B: 2},
	}); err == nil {
		t.Error("empty gap choices accepted")
	}
	_, err := ExhaustiveMP(context.Background(), MPConfig{
		Alg:          periodic.NewMP(),
		Spec:         core.Spec{S: 1, N: 1},
		Model:        timing.NewPeriodic(1, 2, 3),
		GapChoices:   []sim.Duration{1, 2},
		DelayChoices: []sim.Duration{0},
	})
	if err == nil || !strings.Contains(err.Error(), "equal size") {
		t.Errorf("unequal choice sets accepted: %v", err)
	}
}

func TestExploreLimit(t *testing.T) {
	_, err := ExhaustiveSM(context.Background(), SMConfig{
		Alg:        semisync.NewSM(semisync.ForceStepCount),
		Spec:       core.Spec{S: 2, N: 4, B: 2},
		Model:      timing.NewSemiSynchronous(1, 4, 0),
		GapChoices: []sim.Duration{1, 2, 3, 4},
		Depth:      3,
		Limit:      100,
	})
	if err == nil || !strings.Contains(err.Error(), "exceed limit") {
		t.Errorf("limit not enforced: %v", err)
	}
}

// TestExploreWorstCaseMatchesSlowStrategy cross-validates the explorer
// against the sampled Slow strategy: the exhaustive worst case over
// {cmin, cmax} periods must be at least the Slow strategy's finish.
func TestExploreWorstCaseMatchesSlowStrategy(t *testing.T) {
	spec := core.Spec{S: 3, N: 3, B: 2}
	m := timing.NewPeriodic(2, 9, 0)
	res, err := ExhaustiveSM(context.Background(), SMConfig{
		Alg: periodic.NewSM(), Spec: spec, Model: m,
		GapChoices: []sim.Duration{2, 9},
	})
	if err != nil {
		t.Fatalf("ExhaustiveSM: %v", err)
	}
	rep, err := core.RunSM(periodic.NewSM(), spec, m, timing.Slow, 1)
	if err != nil {
		t.Fatalf("RunSM: %v", err)
	}
	if res.WorstFinish < rep.Finish {
		t.Errorf("exhaustive worst %v below sampled Slow %v", res.WorstFinish, rep.Finish)
	}
}

// TestPeriodicMPEnumeratesPeriods: under the periodic model the
// message-passing explorer enumerates one period per process, as the
// shared-memory one does, so every schedule is admissible there: 2 periods
// per process and 2 delay choices for each of 2 sends to 2 destinations.
func TestPeriodicMPEnumeratesPeriods(t *testing.T) {
	res, err := ExhaustiveMP(context.Background(), MPConfig{
		Alg:          periodic.NewMP(),
		Spec:         core.Spec{S: 2, N: 2},
		Model:        timing.NewPeriodic(1, 6, 10),
		GapChoices:   []sim.Duration{1, 6},
		DelayChoices: []sim.Duration{0, 10},
		Depth:        3,
		SendDepth:    2,
	})
	if err != nil {
		t.Fatalf("ExhaustiveMP: %v", err)
	}
	if res.Explored != 64 {
		t.Errorf("explored %d, want 2^(2+2*2) = 64", res.Explored)
	}
	if !res.OK() {
		t.Errorf("violations: %+v", res.Violations)
	}
}

// TestInadmissibleChoicesAreViolations: a gap choice above the
// semi-synchronous c2 yields schedules the model does not admit. Each is a
// violation naming the broken bound, and only the all-admissible schedule
// feeds MinSessions and WorstFinish.
func TestInadmissibleChoicesAreViolations(t *testing.T) {
	res, err := ExhaustiveSM(context.Background(), SMConfig{
		Alg:        async.NewSM(),
		Spec:       core.Spec{S: 2, N: 2, B: 2},
		Model:      timing.NewSemiSynchronous(2, 6, 0),
		GapChoices: []sim.Duration{2, 9},
		Depth:      2,
	})
	if err != nil {
		t.Fatalf("ExhaustiveSM: %v", err)
	}
	// Two ports and the algorithm's third process, two gap decisions each.
	if res.Explored != 64 {
		t.Errorf("explored %d, want 2^(3*2) = 64", res.Explored)
	}
	if res.OK() {
		t.Fatal("schedules with gap 9 under c2 = 6 passed")
	}
	for _, v := range res.Violations {
		if v.Err == nil || !strings.Contains(v.Err.Error(), "gap 9 outside [2,6]") {
			t.Errorf("violation %v does not name the broken bound: %v", v.Digits, v.Err)
		}
	}
}

// TestExploreHonoursCancellation: a cancelled context stops the
// exploration with the context's error instead of recording violations.
func TestExploreHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExhaustiveSM(ctx, SMConfig{
		Alg:        periodic.NewSM(),
		Spec:       core.Spec{S: 3, N: 3, B: 2},
		Model:      timing.NewPeriodic(2, 9, 0),
		GapChoices: []sim.Duration{2, 9},
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled exploration returned %v, want context.Canceled", err)
	}
}
