// Package search finds slow schedules by randomized local search: it
// perturbs per-process gap (and per-message delay) assignments, keeping
// changes that increase the measured running time. Lower-bound theorems
// assert the existence of slow admissible computations; where the paper
// constructs them analytically (internal/adversary), this package hunts for
// them numerically, giving an independent check of how tight the bounds are
// and a stress source for the algorithms.
//
// A candidate schedule is a vector of choices like internal/explore's, but
// instead of enumerating the whole lattice the search random-restarts and
// hill-climbs, so it scales to instances far beyond exhaustive reach. Every
// candidate runs through core's audited runner, trace-free and certified
// against the model, and a candidate the model does not admit fails the
// search: a slow schedule only bears on the bounds if it is admissible.
package search

import (
	"context"
	"errors"
	"fmt"

	"sessionproblem/internal/core"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
)

// Options tunes the search.
type Options struct {
	// Restarts is the number of random restarts (default 4).
	Restarts int
	// Steps is the number of hill-climbing mutations per restart
	// (default 60).
	Steps int
	// Depth is the number of leading per-process gap decisions (default 4;
	// the last decision repeats for later steps).
	Depth int
	// SendDepth is the number of leading broadcasts with per-destination
	// delay decisions (message passing only; default 2).
	SendDepth int
	// Seed makes the search deterministic.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Restarts == 0 {
		o.Restarts = 4
	}
	if o.Steps == 0 {
		o.Steps = 60
	}
	if o.Depth == 0 {
		o.Depth = 4
	}
	if o.SendDepth == 0 {
		o.SendDepth = 2
	}
	return o
}

// Result is the slowest schedule found.
type Result struct {
	// WorstFinish is the largest running time found.
	WorstFinish sim.Time
	// Sessions on the worst run (>= spec.S unless the algorithm is broken).
	Sessions int
	// Evaluations is the number of schedules measured.
	Evaluations int
	// Digits is the winning choice vector (replayable).
	Digits []int
}

// vectorScheduler plays a digit vector: gaps for proc p use digits
// [p*depth, (p+1)*depth), repeating the last one; delay digits follow.
type vectorScheduler struct {
	gapChoices   []sim.Duration
	delayChoices []sim.Duration
	digits       []int
	numProcs     int
	depth        int
	delayBase    int
	delayCount   int

	stepIdx  []int
	delayIdx int
}

func newVectorScheduler(numProcs, depth, sendDepth int, gaps, delays []sim.Duration, digits []int) *vectorScheduler {
	return &vectorScheduler{
		gapChoices:   gaps,
		delayChoices: delays,
		digits:       digits,
		numProcs:     numProcs,
		depth:        depth,
		delayBase:    numProcs * depth,
		delayCount:   sendDepth * numProcs,
		stepIdx:      make([]int, numProcs),
	}
}

func (v *vectorScheduler) Gap(proc int) sim.Duration {
	if proc >= v.numProcs {
		return v.gapChoices[0]
	}
	i := v.stepIdx[proc]
	v.stepIdx[proc]++
	if i >= v.depth {
		i = v.depth - 1
	}
	return v.gapChoices[v.digits[proc*v.depth+i]]
}

func (v *vectorScheduler) Delay(src, dst int) sim.Duration {
	if len(v.delayChoices) == 0 {
		return 0
	}
	if v.delayIdx >= v.delayCount {
		return v.delayChoices[len(v.delayChoices)-1]
	}
	d := v.delayChoices[v.digits[v.delayBase+v.delayIdx]]
	v.delayIdx++
	return d
}

// SlowestSM searches for the slowest shared-memory schedule of alg with
// gaps drawn from gapChoices, which must be admissible for the model. ctx
// cancels the search.
func SlowestSM(ctx context.Context, alg core.SMAlgorithm, spec core.Spec, m timing.Model,
	gapChoices []sim.Duration, opts Options) (*Result, error) {
	if len(gapChoices) == 0 {
		return nil, errors.New("search: no gap choices")
	}
	opts = opts.withDefaults()
	probe, err := alg.BuildSM(spec, m)
	if err != nil {
		return nil, err
	}
	numProcs := len(probe.Procs)
	var rs core.RunScratch
	eval := func(digits []int) (sim.Time, int, error) {
		sched := newVectorScheduler(numProcs, opts.Depth, 0, gapChoices, nil, digits)
		return admitted(core.AuditSM(ctx, alg, spec, m, sched, core.FaultRun{Scratch: &rs}))
	}
	return climb(numProcs*opts.Depth, len(gapChoices), opts, eval)
}

// SlowestMP searches for the slowest message-passing schedule.
func SlowestMP(ctx context.Context, alg core.MPAlgorithm, spec core.Spec, m timing.Model,
	gapChoices, delayChoices []sim.Duration, opts Options) (*Result, error) {
	if len(gapChoices) == 0 || len(delayChoices) == 0 {
		return nil, errors.New("search: need gap and delay choices")
	}
	if len(gapChoices) != len(delayChoices) {
		return nil, errors.New("search: gap and delay choice sets must have equal size")
	}
	opts = opts.withDefaults()
	numProcs := spec.N
	var rs core.RunScratch
	eval := func(digits []int) (sim.Time, int, error) {
		sched := newVectorScheduler(numProcs, opts.Depth, opts.SendDepth,
			gapChoices, delayChoices, digits)
		return admitted(core.AuditMP(ctx, alg, spec, m, sched, core.FaultRun{Scratch: &rs}))
	}
	return climb(numProcs*opts.Depth+opts.SendDepth*numProcs, len(gapChoices), opts, eval)
}

// admitted reads a candidate's running time and sessions from its audited
// run; a schedule the model does not admit is an error.
func admitted(rep *core.Report, err error) (sim.Time, int, error) {
	if err != nil {
		return 0, 0, err
	}
	if rep.Audit.Violations.Len() > 0 {
		return 0, 0, fmt.Errorf("schedule not admissible: %s", rep.Audit.Violations.Strings()[0])
	}
	return rep.Finish, rep.Sessions, nil
}

// climb performs random-restart hill climbing over digit vectors.
func climb(vecLen, base int, opts Options,
	eval func([]int) (sim.Time, int, error)) (*Result, error) {
	rng := sim.NewRNG(opts.Seed)
	best := &Result{}
	for r := 0; r < opts.Restarts; r++ {
		cur := make([]int, vecLen)
		for i := range cur {
			cur[i] = rng.Intn(base)
		}
		curFinish, curSessions, err := eval(cur)
		if err != nil {
			return nil, fmt.Errorf("search: evaluate: %w", err)
		}
		best.Evaluations++
		consider(best, cur, curFinish, curSessions)

		for s := 0; s < opts.Steps; s++ {
			i := rng.Intn(vecLen)
			old := cur[i]
			cur[i] = rng.Intn(base)
			if cur[i] == old {
				continue
			}
			finish, sessions, err := eval(cur)
			if err != nil {
				return nil, fmt.Errorf("search: evaluate: %w", err)
			}
			best.Evaluations++
			if finish >= curFinish {
				curFinish, curSessions = finish, sessions
				consider(best, cur, finish, sessions)
			} else {
				cur[i] = old // revert downhill move
			}
		}
	}
	return best, nil
}

func consider(best *Result, digits []int, finish sim.Time, sessions int) {
	if finish > best.WorstFinish || best.Digits == nil {
		best.WorstFinish = finish
		best.Sessions = sessions
		best.Digits = append(best.Digits[:0], digits...)
	}
}
