// Package registry is the paper's Table 1 read as a lookup table, and the
// only place this repository declares it. Each of the nine cells — a
// (timing model, communication model) pair — carries its row label and
// unit, its designated algorithm, whose running time realizes the cell's
// upper bound, its timing model at a parameter point, and its lower- and
// upper-bound formulas. The harness's Table 1, hierarchy and fault sweep,
// the facade's Solve and PaperEnvelope, and cmd/sessionsim all read their
// cells here.
package registry

import (
	"fmt"

	"sessionproblem/internal/alg/async"
	"sessionproblem/internal/alg/periodic"
	"sessionproblem/internal/alg/semisync"
	"sessionproblem/internal/alg/sporadic"
	"sessionproblem/internal/alg/synchronous"
	"sessionproblem/internal/bounds"
	"sessionproblem/internal/core"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
)

// Cell is one cell of Table 1.
type Cell struct {
	// Name is the model's short name, as the facade's Model and
	// cmd/sessionsim's -alg spell it ("semisync", "async").
	Name string
	// Row and Comm label the cell in the table ("semi-synchronous", "SM").
	Row, Comm string
	// Unit is "time" (ticks) or "rounds" (asynchronous shared memory).
	Unit string
	// Kind is the cell's timing model.
	Kind timing.Kind
	// SM or MP is the designated algorithm; exactly one is set, by Comm.
	SM core.SMAlgorithm
	MP core.MPAlgorithm
	// Timing builds the cell's timing model at p. gapCap bounds the gaps
	// schedulers draw where the model leaves them unbounded (sporadic,
	// asynchronous SM); 0 keeps the model's default cap.
	Timing func(p bounds.Params, gapCap sim.Duration) timing.Model
	// Bounds evaluates the cell's lower and upper bound at p.
	Bounds func(p bounds.Params) (lower, upper float64)
	// ReadsB reports that the formulas read the access bound b, which they
	// need to be at least 2.
	ReadsB bool
	// ReadsGamma reports that the upper bound reads p.Gamma, the largest
	// step time of a computation (Theorem 6.1), so it holds per run.
	ReadsGamma bool
}

// Spec is the cell's problem instance: the access bound b applies to
// shared memory only.
func (c Cell) Spec(s, n, b int) core.Spec {
	if c.SM != nil {
		return core.Spec{S: s, N: n, B: b}
	}
	return core.Spec{S: s, N: n}
}

// Algorithm names the cell's designated algorithm.
func (c Cell) Algorithm() string {
	if c.SM != nil {
		return c.SM.Name()
	}
	return c.MP.Name()
}

// both pairs a lower- and an upper-bound formula.
func both(lower, upper func(bounds.Params) float64) func(bounds.Params) (float64, float64) {
	return func(p bounds.Params) (float64, float64) { return lower(p), upper(p) }
}

// table is Table 1 in the order the harness prints it. The sporadic
// shared-memory cell is absent: the paper equates that model with the
// asynchronous one ("See Async. SM").
var table = [...]Cell{
	{Name: "synchronous", Row: "synchronous", Comm: "SM", Unit: "time", Kind: timing.Synchronous,
		SM: synchronous.NewSM(), Bounds: bounds.SyncSM,
		Timing: func(p bounds.Params, _ sim.Duration) timing.Model { return timing.NewSynchronous(p.C2, 0) }},
	{Name: "synchronous", Row: "synchronous", Comm: "MP", Unit: "time", Kind: timing.Synchronous,
		MP: synchronous.NewMP(), Bounds: bounds.SyncMP,
		Timing: func(p bounds.Params, _ sim.Duration) timing.Model { return timing.NewSynchronous(p.C2, p.D2) }},
	{Name: "periodic", Row: "periodic", Comm: "SM", Unit: "time", Kind: timing.Periodic,
		SM: periodic.NewSM(), Bounds: both(bounds.PeriodicSML, bounds.PeriodicSMU), ReadsB: true,
		Timing: func(p bounds.Params, _ sim.Duration) timing.Model { return timing.NewPeriodic(p.Cmin, p.Cmax, 0) }},
	{Name: "periodic", Row: "periodic", Comm: "MP", Unit: "time", Kind: timing.Periodic,
		MP: periodic.NewMP(), Bounds: both(bounds.PeriodicMPL, bounds.PeriodicMPU),
		Timing: func(p bounds.Params, _ sim.Duration) timing.Model { return timing.NewPeriodic(p.Cmin, p.Cmax, p.D2) }},
	{Name: "semisync", Row: "semi-synchronous", Comm: "SM", Unit: "time", Kind: timing.SemiSynchronous,
		SM: semisync.NewSM(semisync.Auto), Bounds: both(bounds.SemiSyncSML, bounds.SemiSyncSMU), ReadsB: true,
		Timing: func(p bounds.Params, _ sim.Duration) timing.Model { return timing.NewSemiSynchronous(p.C1, p.C2, 0) }},
	{Name: "semisync", Row: "semi-synchronous", Comm: "MP", Unit: "time", Kind: timing.SemiSynchronous,
		MP: semisync.NewMP(semisync.Auto), Bounds: both(bounds.SemiSyncMPL, bounds.SemiSyncMPU),
		Timing: func(p bounds.Params, _ sim.Duration) timing.Model { return timing.NewSemiSynchronous(p.C1, p.C2, p.D2) }},
	{Name: "sporadic", Row: "sporadic", Comm: "MP", Unit: "time", Kind: timing.Sporadic,
		MP: sporadic.NewMP(), Bounds: both(bounds.SporadicMPL, bounds.SporadicMPU), ReadsGamma: true,
		Timing: func(p bounds.Params, gapCap sim.Duration) timing.Model {
			return timing.NewSporadic(p.C1, p.D1, p.D2, gapCap)
		}},
	{Name: "async", Row: "asynchronous", Comm: "SM", Unit: "rounds", Kind: timing.AsynchronousSM,
		SM: async.NewSM(), Bounds: both(bounds.AsyncSML, bounds.AsyncSMU), ReadsB: true,
		Timing: func(_ bounds.Params, gapCap sim.Duration) timing.Model { return timing.NewAsynchronousSM(gapCap) }},
	{Name: "async", Row: "asynchronous", Comm: "MP", Unit: "time", Kind: timing.AsynchronousMP,
		MP: async.NewMP(), Bounds: both(bounds.AsyncMPL, bounds.AsyncMPU),
		Timing: func(p bounds.Params, _ sim.Duration) timing.Model { return timing.NewAsynchronousMP(p.C2, p.D2) }},
}

// Cells returns the nine cells of Table 1 in table order.
func Cells() []Cell { return append([]Cell(nil), table[:]...) }

// MPCells returns the five message-passing cells, fastest model first.
func MPCells() []Cell {
	var out []Cell
	for _, c := range table {
		if c.MP != nil {
			out = append(out, c)
		}
	}
	return out
}

// Find returns the cell of the named model ("semisync") under comm ("SM"
// or "MP").
func Find(name, comm string) (Cell, bool) {
	for _, c := range table {
		if c.Name == name && c.Comm == comm {
			return c, true
		}
	}
	return Cell{}, false
}

// ForSM returns the shared-memory algorithm for the model. The sporadic
// shared-memory model has no dedicated algorithm (the paper equates it with
// the asynchronous model), so it returns the asynchronous one, as it does
// for the message-passing asynchronous kind.
func ForSM(kind timing.Kind) (core.SMAlgorithm, error) {
	if kind == timing.Sporadic || kind == timing.AsynchronousMP {
		kind = timing.AsynchronousSM
	}
	for _, c := range table {
		if c.Kind == kind && c.SM != nil {
			return c.SM, nil
		}
	}
	return nil, fmt.Errorf("registry: no shared-memory algorithm for %v", kind)
}

// ForMP returns the message-passing algorithm for the model; the
// shared-memory asynchronous kind maps to the asynchronous one.
func ForMP(kind timing.Kind) (core.MPAlgorithm, error) {
	if kind == timing.AsynchronousSM {
		kind = timing.AsynchronousMP
	}
	for _, c := range table {
		if c.Kind == kind && c.MP != nil {
			return c.MP, nil
		}
	}
	return nil, fmt.Errorf("registry: no message-passing algorithm for %v", kind)
}
