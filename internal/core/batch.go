package core

import (
	"context"
	"fmt"

	"sessionproblem/internal/timing"
)

// Seed-group execution. A (cell, strategy) group runs the same algorithm,
// spec and timing model over k seeds, and the seed feeds nothing but the
// scheduler's RNG. runSeedGroup exploits that with one decision. The first
// seed runs as a probe through the ordinary verified runner. If its
// scheduler drew no random value, the schedule was decided entirely by
// deterministic (model, strategy) code paths — and draw-freeness is a
// property of those code paths, not of the seed — so every other seed would
// replay the identical trajectory, and the probe's immutable summary serves
// all k seeds. This collapses the deterministic strategies (Slow, Fast, and
// the models whose gaps and delays are pinned) that dominate the Table-1
// matrix. Otherwise each remaining seed runs through the same runner.
// Either way every summary is byte-identical to a solo run of its seed.

// BatchStats counts what the seed-group layer did for one group.
type BatchStats struct {
	// Forks is the number of seeds served from the probe run's summary
	// instead of being simulated.
	Forks int
	// Fallbacks is the number of seeds that ran solo after the probe
	// because the probe drew random values. The fault sweep also counts
	// each seed of a faulted group here.
	Fallbacks int
}

// BatchError attributes a failure inside a seed group to the seed whose run
// failed, so call sites can report it exactly as the solo path would have.
type BatchError struct {
	Seed uint64
	Err  error
}

func (e *BatchError) Error() string { return fmt.Sprintf("seed %d: %v", e.Seed, e.Err) }

func (e *BatchError) Unwrap() error { return e.Err }

// runSeedGroup is the one seed-group path: it creates each seed's
// scheduler, runs seed i through run, and shares the probe's summary when
// the probe drew nothing. It returns one summary per seed, in seed order.
// On failure the error is a *BatchError naming the offending seed, or a
// bare context error.
func runSeedGroup(ctx context.Context, m timing.Model, st timing.Strategy, seeds []uint64,
	run func(i int, sched *timing.Scheduler) (*Report, error)) ([]*RunSummary, BatchStats, error) {
	var stats BatchStats
	out := make([]*RunSummary, len(seeds))
	for i, seed := range seeds {
		sched := m.NewScheduler(st, seed)
		rep, err := run(i, sched)
		if err != nil {
			if ctx.Err() != nil {
				return nil, stats, err
			}
			return nil, stats, &BatchError{Seed: seed, Err: err}
		}
		out[i] = Summarize(rep)
		if i == 0 && sched.Draws() == 0 {
			// The probe never read the stream its seed feeds, so every
			// other seed replays its trajectory.
			for j := 1; j < len(seeds); j++ {
				out[j] = out[0]
			}
			stats.Forks = len(seeds) - 1
			return out, stats, nil
		}
		if i > 0 {
			stats.Fallbacks++
		}
	}
	return out, stats, nil
}

// BatchRunSM runs one shared-memory seed group through runSeedGroup,
// trace-free. The summaries are byte-identical to what RunSMStream (or any
// other solo runner) would produce per seed.
func BatchRunSM(ctx context.Context, alg SMAlgorithm, spec Spec, m timing.Model, st timing.Strategy, seeds []uint64, rs *RunScratch) ([]*RunSummary, BatchStats, error) {
	return runSeedGroup(ctx, m, st, seeds, func(i int, sched *timing.Scheduler) (*Report, error) {
		return runSM(ctx, alg, spec, m, sched, st, seeds[i], rs, StreamOptions{}, false)
	})
}

// BatchRunMP is BatchRunSM for message-passing seed groups.
func BatchRunMP(ctx context.Context, alg MPAlgorithm, spec Spec, m timing.Model, st timing.Strategy, seeds []uint64, rs *RunScratch) ([]*RunSummary, BatchStats, error) {
	return runSeedGroup(ctx, m, st, seeds, func(i int, sched *timing.Scheduler) (*Report, error) {
		return runMP(ctx, alg, spec, m, sched, st, seeds[i], rs, StreamOptions{}, false)
	})
}

// BatchRunMPFaulted is BatchRunMP for fault-audited seed groups, with frs
// supplying one FaultRun per seed. Callers must only batch groups whose
// injectors provably never fire (intensity zero): sharing is decided by
// scheduler draws alone, so a firing injector would invalidate the share.
func BatchRunMPFaulted(ctx context.Context, alg MPAlgorithm, spec Spec, m timing.Model, st timing.Strategy, seeds []uint64, frs []FaultRun) ([]*RunSummary, BatchStats, error) {
	return runSeedGroup(ctx, m, st, seeds, func(i int, sched *timing.Scheduler) (*Report, error) {
		return runMPFaultedSched(ctx, alg, spec, m, sched, frs[i])
	})
}
