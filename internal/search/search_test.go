package search

import (
	"context"
	"strings"
	"testing"

	"sessionproblem/internal/alg/async"
	"sessionproblem/internal/alg/periodic"
	"sessionproblem/internal/alg/semisync"
	"sessionproblem/internal/alg/sporadic"
	"sessionproblem/internal/bounds"
	"sessionproblem/internal/core"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
)

func TestSlowestSMFindsLowerBound(t *testing.T) {
	// Periodic A(p): the lower bound max(s*cmax, ...) must be reachable —
	// the search should find a schedule at least as slow as s*cmax.
	spec := core.Spec{S: 4, N: 3, B: 2}
	m := timing.NewPeriodic(2, 9, 0)
	// Not a periodic-admissible digit design (gaps vary per step), but the
	// search still yields a semi-synchronous-style slow schedule; use the
	// semisync model for admissibility realism instead.
	mSS := timing.NewSemiSynchronous(2, 9, 0)
	res, err := SlowestSM(context.Background(), periodic.NewSM(), spec, mSS, []sim.Duration{2, 5, 9}, Options{Seed: 7})
	if err != nil {
		t.Fatalf("SlowestSM: %v", err)
	}
	if res.Sessions < spec.S {
		t.Errorf("worst schedule broke the algorithm: %d sessions", res.Sessions)
	}
	if res.WorstFinish < sim.Time(4*9) {
		t.Errorf("search found only %v; even all-max gaps give >= 36", res.WorstFinish)
	}
	if res.Evaluations < 10 {
		t.Errorf("too few evaluations: %d", res.Evaluations)
	}
	_ = m
}

func TestSlowestSMNeverExceedsUpperBound(t *testing.T) {
	// However slow the found schedule, it must stay within the Table-1
	// upper bound for the semi-synchronous model.
	spec := core.Spec{S: 3, N: 4, B: 3}
	m := timing.NewSemiSynchronous(2, 8, 0)
	res, err := SlowestSM(context.Background(), semisync.NewSM(semisync.Auto), spec, m,
		[]sim.Duration{2, 4, 8}, Options{Seed: 3})
	if err != nil {
		t.Fatalf("SlowestSM: %v", err)
	}
	p := bounds.Params{S: spec.S, N: spec.N, B: spec.B, C1: 2, C2: 8}
	if float64(res.WorstFinish) > bounds.SemiSyncSMU(p) {
		t.Errorf("search exceeded the upper bound: %v > %v",
			res.WorstFinish, bounds.SemiSyncSMU(p))
	}
}

func TestSlowestMPBeatsSlowStrategy(t *testing.T) {
	// The search must find something at least as slow as the Slow strategy
	// heuristic (max gaps/delays is in its search space).
	spec := core.Spec{S: 4, N: 3}
	m := timing.NewSporadic(2, 4, 28, 8)
	slowRep, err := core.RunMP(sporadic.NewMP(), spec, m, timing.Slow, 1)
	if err != nil {
		t.Fatalf("Slow run: %v", err)
	}
	res, err := SlowestMP(context.Background(), sporadic.NewMP(), spec, m,
		[]sim.Duration{2, 8}, []sim.Duration{4, 28}, Options{Seed: 11, Restarts: 6})
	if err != nil {
		t.Fatalf("SlowestMP: %v", err)
	}
	if res.WorstFinish < slowRep.Finish*9/10 {
		t.Errorf("search (%v) far below the Slow heuristic (%v)", res.WorstFinish, slowRep.Finish)
	}
	if res.Sessions < spec.S {
		t.Errorf("worst schedule broke A(sp): %d sessions", res.Sessions)
	}
}

func TestSlowestMPRespectsGammaBound(t *testing.T) {
	spec := core.Spec{S: 3, N: 3}
	m := timing.NewSporadic(2, 4, 28, 8)
	res, err := SlowestMP(context.Background(), sporadic.NewMP(), spec, m,
		[]sim.Duration{2, 8}, []sim.Duration{4, 28}, Options{Seed: 5})
	if err != nil {
		t.Fatalf("SlowestMP: %v", err)
	}
	// Gamma is at most the largest gap choice (8) plus nothing else; the
	// Theorem 6.1 bound at gamma=8 must dominate.
	p := bounds.Params{S: spec.S, N: spec.N, C1: 2, D1: 4, D2: 28, Gamma: 8}
	if float64(res.WorstFinish) > bounds.SporadicMPU(p) {
		t.Errorf("search exceeded Theorem 6.1 at gamma=8: %v > %v",
			res.WorstFinish, bounds.SporadicMPU(p))
	}
}

func TestSearchValidation(t *testing.T) {
	spec := core.Spec{S: 2, N: 2, B: 2}
	if _, err := SlowestSM(context.Background(), periodic.NewSM(), spec, timing.NewSemiSynchronous(1, 2, 0),
		nil, Options{}); err == nil {
		t.Error("empty gap choices accepted")
	}
	if _, err := SlowestMP(context.Background(), sporadic.NewMP(), spec, timing.NewSporadic(1, 0, 4, 0),
		[]sim.Duration{1, 2}, []sim.Duration{1}, Options{}); err == nil {
		t.Error("mismatched choice sets accepted")
	}
}

func TestSearchDeterminism(t *testing.T) {
	spec := core.Spec{S: 3, N: 3}
	m := timing.NewSporadic(2, 4, 28, 8)
	run := func() *Result {
		res, err := SlowestMP(context.Background(), sporadic.NewMP(), spec, m,
			[]sim.Duration{2, 8}, []sim.Duration{4, 28}, Options{Seed: 42})
		if err != nil {
			t.Fatalf("SlowestMP: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.WorstFinish != b.WorstFinish || a.Evaluations != b.Evaluations {
		t.Error("search is nondeterministic for a fixed seed")
	}
}

// TestInadmissibleChoicesFailTheSearch: a gap choice above the
// semi-synchronous c2 yields candidates the model does not admit, and the
// search fails on the first one instead of reporting its running time.
func TestInadmissibleChoicesFailTheSearch(t *testing.T) {
	_, err := SlowestSM(context.Background(), async.NewSM(), core.Spec{S: 2, N: 2, B: 2},
		timing.NewSemiSynchronous(2, 6, 0), []sim.Duration{2, 9}, Options{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "gap 9 outside [2,6]") {
		t.Errorf("search over inadmissible gaps: err = %v, want the broken bound", err)
	}
}
