// Package check bundles every validation this repository knows how to
// perform into one composite suite, so that a new session algorithm — yours,
// not just the paper's — can be vetted the way the built-in ones are:
//
//  1. sampled verification: all scheduling strategies × seeds, with
//     admissibility re-checked and disjoint sessions counted on every run;
//  2. exhaustive verification: every schedule from small gap/delay choice
//     sets (bounded model checking via internal/explore);
//  3. idle-stability probing (shared memory): extra post-idle steps must
//     neither change shared state nor wake the process;
//  4. adversarial constructions: the matching lower-bound adversary runs
//     against the algorithm and must fail to manufacture a violation.
//
// The suite returns a structured report; cmd/verify renders it.
package check

import (
	"context"
	"errors"
	"fmt"

	"sessionproblem/internal/adversary"
	"sessionproblem/internal/core"
	"sessionproblem/internal/explore"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
)

// Item is one verification step's outcome.
type Item struct {
	Name   string
	Passed bool
	Detail string
}

// Report is the outcome of a suite run.
type Report struct {
	Algorithm string
	Items     []Item
}

// OK reports whether every item passed.
func (r *Report) OK() bool {
	for _, it := range r.Items {
		if !it.Passed {
			return false
		}
	}
	return true
}

func (r *Report) add(name string, passed bool, detail string) {
	r.Items = append(r.Items, Item{Name: name, Passed: passed, Detail: detail})
}

// SMOptions configures a shared-memory suite run.
type SMOptions struct {
	Spec  core.Spec
	Model timing.Model
	// Seeds per strategy for the sampled pass (default 3).
	Seeds int
	// ExhaustiveGaps enables the exhaustive pass with these gap choices
	// (leave empty to skip; keep the instance tiny).
	ExhaustiveGaps []sim.Duration
	// SkipAdversary disables the lower-bound adversary pass.
	SkipAdversary bool
}

// SM runs the shared-memory suite.
func SM(alg core.SMAlgorithm, opts SMOptions) *Report {
	rep := &Report{Algorithm: alg.Name()}
	seeds := opts.Seeds
	if seeds == 0 {
		seeds = 3
	}

	// 1. Sampled verification.
	worst := sim.Time(0)
	var sampleErr error
	for _, st := range timing.AllStrategies() {
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			r, err := core.RunSMStream(context.TODO(), alg, opts.Spec, opts.Model, st, seed, nil, core.StreamOptions{})
			if err != nil {
				sampleErr = err
				break
			}
			worst = sim.MaxTime(worst, r.Finish)
		}
		if sampleErr != nil {
			break
		}
	}
	rep.add("sampled schedules", sampleErr == nil,
		detailOr(sampleErr, fmt.Sprintf("%d strategies x %d seeds, worst finish %v",
			len(timing.AllStrategies()), seeds, worst)))

	// 2. Exhaustive verification.
	if len(opts.ExhaustiveGaps) > 0 {
		res, err := explore.ExhaustiveSM(context.TODO(), explore.SMConfig{
			Alg: alg, Spec: opts.Spec, Model: opts.Model,
			GapChoices: opts.ExhaustiveGaps,
		})
		switch {
		case err != nil:
			rep.add("exhaustive schedules", false, err.Error())
		case !res.OK():
			v := res.Violations[0]
			rep.add("exhaustive schedules", false, withErr(
				fmt.Sprintf("%d schedules, violation with %d sessions (digits %v)",
					res.Explored, v.Sessions, v.Digits), v.Err))
		default:
			rep.add("exhaustive schedules", true,
				fmt.Sprintf("%d schedules, min sessions %d, worst finish %v",
					res.Explored, res.MinSessions, res.WorstFinish))
		}
	}

	// 3. Idle stability.
	err := core.ProbeIdleStability(alg, opts.Spec, opts.Model, timing.Random, 1)
	rep.add("idle stability", err == nil, detailOr(err, "3 post-idle probe steps per process"))

	// 4. The matching adversary must NOT break the algorithm.
	if !opts.SkipAdversary {
		runSMAdversary(rep, alg, opts)
	}
	return rep
}

func runSMAdversary(rep *Report, alg core.SMAlgorithm, opts SMOptions) {
	switch opts.Model.Kind {
	case timing.Periodic:
		slow := opts.Model.PeriodMax
		r, err := adversary.AnalyzeContamination(alg, opts.Spec, opts.Model, 0, slow)
		switch {
		case err != nil:
			rep.add("adversary (contamination)", false, err.Error())
		case r.SessionsPerturbed < opts.Spec.S:
			rep.add("adversary (contamination)", false,
				fmt.Sprintf("perturbation drops sessions to %d", r.SessionsPerturbed))
		case !r.WithinBound:
			rep.add("adversary (contamination)", false, "Lemma 4.4 bound exceeded")
		default:
			rep.add("adversary (contamination)", true,
				fmt.Sprintf("sessions stay at %d under slowdown", r.SessionsPerturbed))
		}
	case timing.SemiSynchronous:
		r, err := adversary.ReorderSemiSync(alg, opts.Spec, opts.Model)
		switch {
		case errors.Is(err, adversary.ErrInapplicable):
			rep.add("adversary (reorder)", true, "bound trivial for these constants")
		case err != nil:
			rep.add("adversary (reorder)", false, err.Error())
		case r.Violation:
			rep.add("adversary (reorder)", false,
				fmt.Sprintf("reordering drops sessions to %d", r.Sessions))
		default:
			rep.add("adversary (reorder)", true,
				fmt.Sprintf("%d sessions survive reordering into %d chunks", r.Sessions, r.Chunks))
		}
	}
}

// MPOptions configures a message-passing suite run.
type MPOptions struct {
	Spec  core.Spec
	Model timing.Model
	Seeds int
	// Exhaustive choices (equal cardinality required); empty skips.
	ExhaustiveGaps   []sim.Duration
	ExhaustiveDelays []sim.Duration
	SkipAdversary    bool
}

// MP runs the message-passing suite.
func MP(alg core.MPAlgorithm, opts MPOptions) *Report {
	rep := &Report{Algorithm: alg.Name()}
	seeds := opts.Seeds
	if seeds == 0 {
		seeds = 3
	}

	worst := sim.Time(0)
	var sampleErr error
	for _, st := range timing.AllStrategies() {
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			r, err := core.RunMPStream(context.TODO(), alg, opts.Spec, opts.Model, st, seed, nil, core.StreamOptions{})
			if err != nil {
				sampleErr = err
				break
			}
			worst = sim.MaxTime(worst, r.Finish)
		}
		if sampleErr != nil {
			break
		}
	}
	rep.add("sampled schedules", sampleErr == nil,
		detailOr(sampleErr, fmt.Sprintf("%d strategies x %d seeds, worst finish %v",
			len(timing.AllStrategies()), seeds, worst)))

	if len(opts.ExhaustiveGaps) > 0 {
		res, err := explore.ExhaustiveMP(context.TODO(), explore.MPConfig{
			Alg: alg, Spec: opts.Spec, Model: opts.Model,
			GapChoices:   opts.ExhaustiveGaps,
			DelayChoices: opts.ExhaustiveDelays,
			SendDepth:    1,
		})
		switch {
		case err != nil:
			rep.add("exhaustive schedules", false, err.Error())
		case !res.OK():
			v := res.Violations[0]
			rep.add("exhaustive schedules", false, withErr(
				fmt.Sprintf("%d schedules, violation with %d sessions", res.Explored, v.Sessions), v.Err))
		default:
			rep.add("exhaustive schedules", true,
				fmt.Sprintf("%d schedules, min sessions %d, worst finish %v",
					res.Explored, res.MinSessions, res.WorstFinish))
		}
	}

	if !opts.SkipAdversary && opts.Model.Kind == timing.Sporadic {
		r, err := adversary.RetimeSporadic(alg, opts.Spec, opts.Model)
		switch {
		case errors.Is(err, adversary.ErrInapplicable):
			rep.add("adversary (retime)", true, "construction inapplicable for these constants")
		case err != nil:
			rep.add("adversary (retime)", false, err.Error())
		case r.Violation:
			rep.add("adversary (retime)", false,
				fmt.Sprintf("retiming drops sessions to %d", r.Sessions))
		default:
			rep.add("adversary (retime)", true,
				fmt.Sprintf("%d sessions survive retiming into %d chunks", r.Sessions, r.Chunks))
		}
	}
	return rep
}

// withErr appends a violation's error, such as the bound an inadmissible
// schedule broke, to its detail.
func withErr(detail string, err error) string {
	if err != nil {
		return detail + ": " + err.Error()
	}
	return detail
}

func detailOr(err error, ok string) string {
	if err != nil {
		return err.Error()
	}
	return ok
}
