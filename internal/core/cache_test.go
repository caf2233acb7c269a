package core

import (
	"testing"

	"sessionproblem/internal/fault"
	"sessionproblem/internal/timing"
)

// TestRunKeyDistinctness: every input that can change a run's outcome must
// change its key. A collision here would alias two different computations.
func TestRunKeyDistinctness(t *testing.T) {
	spec := Spec{S: 2, N: 3, B: 2}
	m := timing.NewSemiSynchronous(2, 10, 28)
	st := timing.AllStrategies()[0]
	plan := fault.NewPlan(7, 0.25, fault.Crash)
	base := func() string { return RunKey("MP", "alg", spec, m, st, 1, 0, nil) }

	keys := map[string]string{"base": base()}
	add := func(name, key string) {
		for prev, k := range keys {
			if k == key {
				t.Errorf("RunKey collision: %s == %s (%q)", name, prev, key)
			}
		}
		keys[name] = key
	}
	add("comm", RunKey("SM", "alg", spec, m, st, 1, 0, nil))
	add("alg", RunKey("MP", "alg2", spec, m, st, 1, 0, nil))
	add("spec", RunKey("MP", "alg", Spec{S: 2, N: 4, B: 2}, m, st, 1, 0, nil))
	m2 := m
	m2.D2 = 29
	add("model", RunKey("MP", "alg", spec, m2, st, 1, 0, nil))
	m3 := m.WithSynchronizedStart()
	add("startsync", RunKey("MP", "alg", spec, m3, st, 1, 0, nil))
	add("strategy", RunKey("MP", "alg", spec, m, timing.AllStrategies()[1], 1, 0, nil))
	add("seed", RunKey("MP", "alg", spec, m, st, 2, 0, nil))
	add("maxsteps", RunKey("MP", "alg", spec, m, st, 1, 100, nil))
	add("plan", RunKey("MP", "alg", spec, m, st, 1, 0, &plan))
	p2 := plan.WithIntensity(0.5)
	add("intensity", RunKey("MP", "alg", spec, m, st, 1, 0, &p2))
	p3 := plan.WithSeed(8)
	add("planseed", RunKey("MP", "alg", spec, m, st, 1, 0, &p3))
	p4 := plan
	p4.Kinds = []fault.Kind{fault.MessageDrop}
	add("kinds", RunKey("MP", "alg", spec, m, st, 1, 0, &p4))
	p5 := plan
	p5.MaxFaults = 3
	add("maxfaults", RunKey("MP", "alg", spec, m, st, 1, 0, &p5))

	if got := base(); got != keys["base"] {
		t.Fatalf("RunKey not reproducible: %q vs %q", got, keys["base"])
	}
}

// TestSummarizeNoAlias: a summary must stay valid after the report's
// backing state is reused for another run.
func TestSummarizeNoAlias(t *testing.T) {
	alg := fixedSM{k: 4}
	spec := Spec{S: 2, N: 3, B: 2}
	m := timing.NewSynchronous(1, 0)
	rep, err := RunSM(alg, spec, m, timing.AllStrategies()[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	rep.Faults = []fault.Event{{Kind: fault.MessageDrop, At: 3, Proc: 1, Src: 0}}
	rep.Audit.Violations = fault.Violations{Faults: rep.Faults, Text: []string{"v1"}}
	sum := Summarize(rep)

	if sum.Steps != rep.Steps() || sum.Sessions != rep.Sessions || sum.Finish != rep.Finish {
		t.Fatalf("summary scalars diverge from report")
	}
	if len(sum.Spans) == 0 {
		t.Fatal("summary has no session spans")
	}

	// Clobber the report's mutable state; the summary must not notice.
	rep.Faults[0].At = 99
	rep.Audit.Violations.Text[0] = "CLOBBERED"
	rep.Trace.Steps = rep.Trace.Steps[:0]
	if got := sum.Audit.Violations.Strings(); len(got) != 2 ||
		got[0] != "fault message-drop at t=3 on message 0->1: lost in transit" || got[1] != "v1" {
		t.Fatalf("summary aliases the report's violations: %q", got)
	}
	if sum.Spans[0].End == 0 && sum.Spans[0].Start == 0 && sum.Steps == 0 {
		t.Fatal("summary aliases the trace")
	}
}
