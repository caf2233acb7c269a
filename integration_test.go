// Integration tests: cross-package flows at realistic scales, including the
// headline reproduction claim — every Table-1 cell measured within the
// paper's bounds at the default configuration.
package sessionproblem_test

import (
	"context"
	"testing"

	"sessionproblem/internal/alg/async"
	"sessionproblem/internal/alg/registry"
	"sessionproblem/internal/bounds"
	"sessionproblem/internal/core"
	"sessionproblem/internal/harness"
	"sessionproblem/internal/timing"
)

// TestHeadlineTable1Reproduction is the repository's core claim as a test:
// at the default configuration, every cell of Table 1 regenerates with the
// measured worst case inside [paper L, paper U].
func TestHeadlineTable1Reproduction(t *testing.T) {
	cfg := harness.Default()
	cfg.Seeds = 2
	cells, err := harness.Table1(cfg)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	for _, c := range cells {
		if v := c.Verdict(); v != "ok" {
			t.Errorf("%s/%s: verdict %s (L=%.0f U=%.0f measured max=%.0f)",
				c.Row, c.Comm, v, c.Lower, c.Upper, c.Measured.Max)
		}
	}
}

// solveTraceFree runs the model's designated algorithm (internal/alg/registry)
// trace-free, over shared memory ("sm") or message passing ("mp").
func solveTraceFree(spec core.Spec, m timing.Model, comm string, st timing.Strategy, seed uint64) (*core.Report, error) {
	if comm == "sm" {
		alg, err := registry.ForSM(m.Kind)
		if err != nil {
			return nil, err
		}
		return core.RunSMStream(context.Background(), alg, spec, m, st, seed, nil, core.StreamOptions{})
	}
	alg, err := registry.ForMP(m.Kind)
	if err != nil {
		return nil, err
	}
	return core.RunMPStream(context.Background(), alg, spec, m, st, seed, nil, core.StreamOptions{})
}

// TestScaleSoak exercises every algorithm at a scale well beyond the unit
// tests: s=12 sessions over n=32 ports.
func TestScaleSoak(t *testing.T) {
	spec := core.Spec{S: 12, N: 32, B: 3}
	cases := []struct {
		comm string
		m    timing.Model
	}{
		{"sm", timing.NewSynchronous(3, 0)},
		{"sm", timing.NewPeriodic(2, 8, 0)},
		{"sm", timing.NewSemiSynchronous(2, 8, 0)},
		{"sm", timing.NewAsynchronousSM(4)},
		{"mp", timing.NewSynchronous(3, 9)},
		{"mp", timing.NewPeriodic(2, 8, 20)},
		{"mp", timing.NewSemiSynchronous(2, 8, 20)},
		{"mp", timing.NewSporadic(2, 4, 28, 0)},
		{"mp", timing.NewAsynchronousMP(4, 20)},
	}
	for _, tc := range cases {
		for _, st := range []timing.Strategy{timing.Random, timing.Slow} {
			rep, err := solveTraceFree(spec, tc.m, tc.comm, st, 3)
			if err != nil {
				t.Errorf("%v/%s %v: %v", tc.m.Kind, tc.comm, st, err)
				continue
			}
			if rep.Sessions < spec.S {
				t.Errorf("%v/%s %v: %d sessions", tc.m.Kind, tc.comm, st, rep.Sessions)
			}
		}
	}
}

// TestDeepSessionsSoak pushes the session count: s=64 with a small port
// set, checking the executors sustain long computations.
func TestDeepSessionsSoak(t *testing.T) {
	spec := core.Spec{S: 64, N: 4, B: 2}
	m := timing.NewSporadic(2, 4, 28, 0)
	rep, err := solveTraceFree(spec, m, "mp", timing.Random, 9)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if rep.Sessions < 64 {
		t.Errorf("sessions: %d", rep.Sessions)
	}
	p := bounds.Params{S: spec.S, N: spec.N, C1: 2, D1: 4, D2: 28, Gamma: rep.Gamma}
	if float64(rep.Finish) > bounds.SporadicMPU(p) {
		t.Errorf("finish %v exceeds Theorem 6.1 bound %v", rep.Finish, bounds.SporadicMPU(p))
	}
}

// TestWidePortsSoak pushes the port count for the tree substrate: n=128
// leaves with b=2 relays.
func TestWidePortsSoak(t *testing.T) {
	spec := core.Spec{S: 3, N: 128, B: 2}
	m := timing.NewAsynchronousSM(3)
	rep, err := solveTraceFree(spec, m, "sm", timing.Random, 5)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if rep.Sessions < 3 {
		t.Errorf("sessions: %d", rep.Sessions)
	}
	p := bounds.Params{S: spec.S, N: spec.N, B: spec.B}
	if float64(rep.Rounds) > bounds.AsyncSMU(p) {
		t.Errorf("rounds %d exceed bound %v", rep.Rounds, bounds.AsyncSMU(p))
	}
}

// TestCrossModelConsistency: the synchronous model's schedules (lockstep at
// c2, delay exactly d2) are a subset of the asynchronous model's, so the
// same algorithm's running time under Slow async scheduling must equal its
// running time under the synchronous model with matching constants.
func TestCrossModelConsistency(t *testing.T) {
	spec := core.Spec{S: 4, N: 4}
	alg := async.NewMP()
	underAsync, err := core.RunMP(alg, spec, timing.NewAsynchronousMP(4, 20), timing.Slow, 1)
	if err != nil {
		t.Fatalf("async: %v", err)
	}
	underSync, err := core.RunMP(alg, spec, timing.NewSynchronous(4, 20), timing.Slow, 1)
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	if underAsync.Finish != underSync.Finish {
		t.Errorf("same schedule, different finishes: async %v vs sync %v",
			underAsync.Finish, underSync.Finish)
	}
}
