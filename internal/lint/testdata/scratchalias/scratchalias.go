// Fixtures for the scratchalias analyzer: every way scratch-backed run
// data can escape its Execute call, next to the sanctioned patterns that
// must stay clean. The package impersonates a consumer of internal/core,
// outside both the scratch implementation and the core boundary.
package consumerfixture

import (
	"context"

	"sessionproblem/internal/core"
	"sessionproblem/internal/timing"
)

// cache matches the engine.RunCacher method set structurally, the way the
// analyzer detects caches (no engine import needed).
type cache interface {
	Get(key string) (any, bool)
	Put(key string, v any)
}

type holder struct {
	rep *core.Report
	sum *core.RunSummary
}

var globalRep *core.Report

var globalSum *core.RunSummary

// storeEverywhere hits every store-shaped sink with a scratch-backed report.
func storeEverywhere(ctx context.Context, alg core.SMAlgorithm, spec core.Spec, m timing.Model, st timing.Strategy, rs *core.RunScratch, h *holder, ch chan *core.Report, c cache) error {
	rep, err := core.RunSMScratch(ctx, alg, spec, m, st, 1, rs)
	if err != nil {
		return err // errors are not scratch data; must stay clean
	}
	h.rep = rep     // want `scratch-backed value stored into h escapes`
	globalRep = rep // want `stored in package-level globalRep`
	ch <- rep       // want `sent on a channel`
	c.Put("k", rep) // want `cached value aliases scratch memory`
	return nil
}

// returnsScratch leaks through the declared-function return boundary.
func returnsScratch(ctx context.Context, alg core.MPAlgorithm, spec core.Spec, m timing.Model, st timing.Strategy, rs *core.RunScratch) *core.Report {
	rep, _ := core.RunMPScratch(ctx, alg, spec, m, st, 7, rs)
	return rep // want `returned from returnsScratch past the ownership boundary`
}

// derivedLeak follows the value through an intermediate local and a field
// read before it escapes: dataflow, not syntax.
func derivedLeak(ctx context.Context, alg core.SMAlgorithm, spec core.Spec, m timing.Model, st timing.Strategy, rs *core.RunScratch, h *holder) {
	rep, err := core.RunSMScratch(ctx, alg, spec, m, st, 3, rs)
	if err != nil {
		return
	}
	alias := rep
	trace := alias.Trace
	h.rep = &core.Report{Trace: trace} // want `scratch-backed value stored into h escapes`
}

// faultedLeak: a FaultRun literal carrying a scratch taints the faulted
// runner's report exactly like the plain scratch runners.
func faultedLeak(ctx context.Context, alg core.SMAlgorithm, spec core.Spec, m timing.Model, st timing.Strategy, rs *core.RunScratch) *core.Report {
	fr := core.FaultRun{Scratch: rs, MaxSteps: 1000}
	rep, _ := core.RunSMFaulted(ctx, alg, spec, m, st, 9, fr)
	return rep // want `returned from faultedLeak past the ownership boundary`
}

// summarizedIsClean: core.Summarize is the sanctioned deep copy; its result
// may be stored, cached and returned freely.
func summarizedIsClean(ctx context.Context, alg core.SMAlgorithm, spec core.Spec, m timing.Model, st timing.Strategy, rs *core.RunScratch, h *holder, c cache) *core.RunSummary {
	rep, err := core.RunSMScratch(ctx, alg, spec, m, st, 1, rs)
	if err != nil {
		return nil
	}
	sum := core.Summarize(rep)
	h.sum = sum
	globalSum = sum
	c.Put("k", sum)
	return sum
}

// scratchFreeIsClean: a report from the plain context runner owns its
// memory and may escape.
func scratchFreeIsClean(ctx context.Context, alg core.SMAlgorithm, spec core.Spec, m timing.Model, st timing.Strategy, h *holder) *core.Report {
	rep, err := core.RunSMContext(ctx, alg, spec, m, st, 1)
	if err != nil {
		return nil
	}
	h.rep = rep
	return rep
}

// faultFreeIsClean: a FaultRun without a scratch yields an owning report.
func faultFreeIsClean(ctx context.Context, alg core.SMAlgorithm, spec core.Spec, m timing.Model, st timing.Strategy) *core.Report {
	fr := core.FaultRun{Scratch: nil, MaxSteps: 1000}
	rep, _ := core.RunSMFaulted(ctx, alg, spec, m, st, 9, fr)
	return rep
}

// closureReturnIsClean: returns from function literals are the engine's
// task idiom — the aggregating caller inside the same Execute call reads
// scalars and drops the report before the next run reuses the scratch.
func closureReturnIsClean(ctx context.Context, alg core.SMAlgorithm, spec core.Spec, m timing.Model, st timing.Strategy, rs *core.RunScratch) func() (any, error) {
	return func() (any, error) {
		rep, err := core.RunSMScratch(ctx, alg, spec, m, st, 1, rs)
		if err != nil {
			return nil, err
		}
		return rep, nil
	}
}

// scalarReadsAreClean: ints and strings read off a scratch-backed report
// copy by value and alias nothing.
func scalarReadsAreClean(ctx context.Context, alg core.SMAlgorithm, spec core.Spec, m timing.Model, st timing.Strategy, rs *core.RunScratch) (int, bool) {
	rep, err := core.RunSMScratch(ctx, alg, spec, m, st, 1, rs)
	if err != nil {
		return 0, false
	}
	return rep.Steps(), rep.Sessions > 0
}
