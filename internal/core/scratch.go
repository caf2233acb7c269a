package core

import (
	"context"

	"sessionproblem/internal/mp"
	"sessionproblem/internal/sm"
	"sessionproblem/internal/timing"
)

// RunScratch bundles the executor scratch spaces for both system models so a
// worker can hold one reusable object regardless of which runner it calls.
// The zero value is ready to use.
//
// Ownership follows the executor contract: a Report produced with a given
// RunScratch aliases its memory (Trace.Steps, access records, delay logs,
// IdleAt, Crashed) and is valid only until the next run with the same
// scratch. Callers that retain Reports across runs — anything returning
// traces to users — must run without a scratch. Aggregating callers that
// read only scalars per run (the harness sweeps) reuse one scratch per
// worker for the whole sweep.
type RunScratch struct {
	SM sm.Scratch
	MP mp.Scratch
}

// Trace-size hints: the session algorithms take O(S·N) port-process steps in
// shared memory and O(S·N) broadcasts of N messages each in message passing.
// The slack term absorbs relays and drain steps; these are pre-sizing hints
// only, never limits.
func expectedSMSteps(spec Spec) int  { return 2*spec.S*spec.N + 128 }
func expectedMPSteps(spec Spec) int  { return spec.S*spec.N*(spec.N+2) + 128 }
func expectedMPDelays(spec Spec) int { return spec.S*spec.N*spec.N + 128 }

// RunSMScratch is RunSMContext backed by a reusable scratch. A nil scratch
// is equivalent to RunSMContext.
func RunSMScratch(ctx context.Context, alg SMAlgorithm, spec Spec, m timing.Model, st timing.Strategy, seed uint64, rs *RunScratch) (*Report, error) {
	return runSM(ctx, alg, spec, m, m.NewScheduler(st, seed), st, seed, rs)
}

// RunMPScratch is RunMPContext backed by a reusable scratch. A nil scratch
// is equivalent to RunMPContext.
func RunMPScratch(ctx context.Context, alg MPAlgorithm, spec Spec, m timing.Model, st timing.Strategy, seed uint64, rs *RunScratch) (*Report, error) {
	return runMP(ctx, alg, spec, m, m.NewScheduler(st, seed), st, seed, rs)
}

func smOptions(spec Spec, m timing.Model, rs *RunScratch) sm.Options {
	opts := sm.Options{
		ExpectedSteps: expectedSMSteps(spec),
		WindowHint:    m.MaxIncrement(),
	}
	if rs != nil {
		opts.Scratch = &rs.SM
	}
	return opts
}

func mpOptions(spec Spec, m timing.Model, rs *RunScratch) mp.Options {
	opts := mp.Options{
		ExpectedSteps:  expectedMPSteps(spec),
		ExpectedDelays: expectedMPDelays(spec),
		WindowHint:     m.MaxIncrement(),
	}
	if rs != nil {
		opts.Scratch = &rs.MP
	}
	return opts
}
