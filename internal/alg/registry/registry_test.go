package registry

import (
	"context"
	"testing"

	"sessionproblem/internal/core"
	"sessionproblem/internal/timing"
)

func TestForSMCoversEveryKind(t *testing.T) {
	kinds := []timing.Kind{
		timing.Synchronous, timing.Periodic, timing.SemiSynchronous,
		timing.Sporadic, timing.AsynchronousSM, timing.AsynchronousMP,
	}
	for _, k := range kinds {
		if _, err := ForSM(k); err != nil {
			t.Errorf("ForSM(%v): %v", k, err)
		}
		if _, err := ForMP(k); err != nil {
			t.Errorf("ForMP(%v): %v", k, err)
		}
	}
	if _, err := ForSM(timing.Kind(99)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := ForMP(timing.Kind(99)); err == nil {
		t.Error("unknown kind accepted")
	}
}

// solve runs the model's designated algorithm trace-free, over shared
// memory ("sm") or message passing ("mp").
func solve(spec core.Spec, m timing.Model, comm string, st timing.Strategy, seed uint64) (*core.Report, error) {
	if comm == "sm" {
		alg, err := ForSM(m.Kind)
		if err != nil {
			return nil, err
		}
		return core.RunSMStream(context.Background(), alg, spec, m, st, seed, nil, core.StreamOptions{})
	}
	alg, err := ForMP(m.Kind)
	if err != nil {
		return nil, err
	}
	return core.RunMPStream(context.Background(), alg, spec, m, st, seed, nil, core.StreamOptions{})
}

func TestSolveEndToEnd(t *testing.T) {
	spec := core.Spec{S: 3, N: 3, B: 2}
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
		rep, err := solve(spec, tc.m, tc.comm, timing.Random, 7)
		if err != nil {
			t.Errorf("solve(%v, %s): %v", tc.m.Kind, tc.comm, err)
			continue
		}
		if rep.Sessions < spec.S {
			t.Errorf("solve(%v, %s): %d sessions", tc.m.Kind, tc.comm, rep.Sessions)
		}
	}
}

// TestSporadicSMFallsBackToAsync documents the paper's "See Async. SM" cell.
func TestSporadicSMFallsBackToAsync(t *testing.T) {
	alg, err := ForSM(timing.Sporadic)
	if err != nil {
		t.Fatalf("ForSM: %v", err)
	}
	if alg.Name() != "asynchronous" {
		t.Errorf("sporadic SM algorithm: got %q, want the asynchronous one", alg.Name())
	}
}
