// Package registry maps timing models to the session algorithms designed
// for them, so callers can ask "give me the right algorithm for this model"
// instead of wiring the dispatch by hand. This is the paper's Table 1 read
// as a lookup table: each timing model has a designated algorithm whose
// running time realizes the table's upper-bound row.
package registry

import (
	"fmt"

	"sessionproblem/internal/alg/async"
	"sessionproblem/internal/alg/periodic"
	"sessionproblem/internal/alg/semisync"
	"sessionproblem/internal/alg/sporadic"
	"sessionproblem/internal/alg/synchronous"
	"sessionproblem/internal/core"
	"sessionproblem/internal/timing"
)

// ForSM returns the shared-memory algorithm for the model. The sporadic
// shared-memory model has no dedicated algorithm (the paper equates it with
// the asynchronous model), so it returns the asynchronous one.
func ForSM(kind timing.Kind) (core.SMAlgorithm, error) {
	switch kind {
	case timing.Synchronous:
		return synchronous.NewSM(), nil
	case timing.Periodic:
		return periodic.NewSM(), nil
	case timing.SemiSynchronous:
		return semisync.NewSM(semisync.Auto), nil
	case timing.Sporadic, timing.AsynchronousSM, timing.AsynchronousMP:
		return async.NewSM(), nil
	default:
		return nil, fmt.Errorf("registry: no shared-memory algorithm for %v", kind)
	}
}

// ForMP returns the message-passing algorithm for the model.
func ForMP(kind timing.Kind) (core.MPAlgorithm, error) {
	switch kind {
	case timing.Synchronous:
		return synchronous.NewMP(), nil
	case timing.Periodic:
		return periodic.NewMP(), nil
	case timing.SemiSynchronous:
		return semisync.NewMP(semisync.Auto), nil
	case timing.Sporadic:
		return sporadic.NewMP(), nil
	case timing.AsynchronousSM, timing.AsynchronousMP:
		return async.NewMP(), nil
	default:
		return nil, fmt.Errorf("registry: no message-passing algorithm for %v", kind)
	}
}
