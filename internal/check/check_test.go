package check

import (
	"strings"
	"testing"

	"sessionproblem/internal/adversary"
	"sessionproblem/internal/alg/async"
	"sessionproblem/internal/alg/periodic"
	"sessionproblem/internal/alg/semisync"
	"sessionproblem/internal/alg/sporadic"
	"sessionproblem/internal/alg/synchronous"
	"sessionproblem/internal/core"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
)

func TestSMSuitePassesForPeriodicAP(t *testing.T) {
	rep := SM(periodic.NewSM(), SMOptions{
		Spec:           core.Spec{S: 3, N: 3, B: 2},
		Model:          timing.NewPeriodic(2, 8, 0),
		Seeds:          2,
		ExhaustiveGaps: []sim.Duration{2, 8},
	})
	if !rep.OK() {
		t.Errorf("suite failed: %+v", rep.Items)
	}
	if len(rep.Items) != 4 {
		t.Errorf("items: got %d, want 4 (sampled, exhaustive, idle, adversary)", len(rep.Items))
	}
}

// TestExhaustiveNamesTheBrokenBound: exhaustive gap choices the model does
// not admit fail the exhaustive item, and its detail names the bound.
func TestExhaustiveNamesTheBrokenBound(t *testing.T) {
	rep := SM(async.NewSM(), SMOptions{
		Spec:           core.Spec{S: 2, N: 2, B: 2},
		Model:          timing.NewSemiSynchronous(2, 6, 0),
		Seeds:          1,
		ExhaustiveGaps: []sim.Duration{2, 9},
		SkipAdversary:  true,
	})
	for _, it := range rep.Items {
		if it.Name == "exhaustive schedules" {
			if it.Passed || !strings.Contains(it.Detail, "gap 9 outside [2,6]") {
				t.Errorf("exhaustive item %+v: want a failure naming the broken bound", it)
			}
			return
		}
	}
	t.Fatalf("no exhaustive item in %+v", rep.Items)
}

func TestSMSuiteFailsForSynchronousUnderPeriodic(t *testing.T) {
	// The synchronous algorithm is not a periodic algorithm: both the
	// sampled and the adversary passes should catch it.
	rep := SM(synchronous.NewSM(), SMOptions{
		Spec:  core.Spec{S: 4, N: 3, B: 2},
		Model: timing.NewPeriodic(1, 10, 0),
		Seeds: 2,
	})
	if rep.OK() {
		t.Error("suite passed a broken algorithm")
	}
}

func TestSMSuiteSemiSyncAdversary(t *testing.T) {
	rep := SM(semisync.NewSM(semisync.Auto), SMOptions{
		Spec:  core.Spec{S: 3, N: 4, B: 2},
		Model: timing.NewSemiSynchronous(1, 8, 0),
		Seeds: 2,
	})
	if !rep.OK() {
		t.Errorf("suite failed: %+v", rep.Items)
	}
	found := false
	for _, it := range rep.Items {
		if strings.Contains(it.Name, "reorder") {
			found = true
		}
	}
	if !found {
		t.Error("reorder adversary pass missing for semi-synchronous model")
	}
}

func TestSMSuiteCatchesTooFastUnderReorder(t *testing.T) {
	rep := SM(adversary.TooFastSM{}, SMOptions{
		Spec:          core.Spec{S: 4, N: 9, B: 3},
		Model:         timing.NewSemiSynchronous(1, 8, 0),
		Seeds:         1,
		SkipAdversary: false,
	})
	if rep.OK() {
		t.Error("suite passed the too-fast victim")
	}
	// Specifically the adversary item must have failed (the victim looks
	// fine under lockstep-ish sampled schedules only at s sessions...
	// sampled may or may not catch it, but the adversary must).
	for _, it := range rep.Items {
		if strings.Contains(it.Name, "reorder") && it.Passed {
			t.Error("reorder adversary failed to flag the victim")
		}
	}
}

func TestMPSuitePassesForSporadic(t *testing.T) {
	rep := MP(sporadic.NewMP(), MPOptions{
		Spec:             core.Spec{S: 3, N: 2},
		Model:            timing.NewSporadic(2, 4, 28, 8),
		Seeds:            2,
		ExhaustiveGaps:   []sim.Duration{2, 8},
		ExhaustiveDelays: []sim.Duration{4, 28},
	})
	if !rep.OK() {
		t.Errorf("suite failed: %+v", rep.Items)
	}
	foundRetime := false
	for _, it := range rep.Items {
		if strings.Contains(it.Name, "retime") {
			foundRetime = true
		}
	}
	if !foundRetime {
		t.Error("retime adversary pass missing for sporadic model")
	}
}

func TestMPSuiteCatchesVictim(t *testing.T) {
	rep := MP(adversary.TooFastMP{}, MPOptions{
		Spec:  core.Spec{S: 4, N: 3},
		Model: timing.NewSporadic(2, 4, 28, 0),
		Seeds: 1,
	})
	if rep.OK() {
		t.Error("suite passed the too-fast victim")
	}
}

func TestReportOK(t *testing.T) {
	r := &Report{}
	r.add("a", true, "")
	if !r.OK() {
		t.Error("all-passing report not OK")
	}
	r.add("b", false, "boom")
	if r.OK() {
		t.Error("failing report OK")
	}
}
