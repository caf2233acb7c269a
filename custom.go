package sessionproblem

import (
	"sessionproblem/internal/check"
	"sessionproblem/internal/core"
	"sessionproblem/internal/fault"
	"sessionproblem/internal/harness"
	"sessionproblem/internal/model"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/sm"
	"sessionproblem/internal/timing"
)

// This file is the library-extension surface of the facade: everything a
// user needs to design their own session algorithm, run it under any of the
// paper's timing models, and validate it with the same pipeline the
// built-in algorithms pass — without importing internal packages.

// Spec is one instance of the (s, n)-session problem: s required sessions
// over n ports, with b the shared-variable access bound (shared memory
// only; 0 means unbounded).
type Spec = core.Spec

// TimingModel is a fully-parameterized timing model; build one with the
// New*Model constructors.
type TimingModel = timing.Model

// SMAlgorithm builds a shared-memory system solving the session problem.
// Implement it to plug a custom algorithm into Solve and ValidateSM.
type SMAlgorithm = core.SMAlgorithm

// MPAlgorithm builds a message-passing system solving the session problem.
type MPAlgorithm = core.MPAlgorithm

// SMValue is the value stored in a shared variable.
type SMValue = sm.Value

// SMProcess is one shared-memory process: Target names the variable its
// next step accesses, Step transforms that variable's value, and Idle
// reports whether the process has finished (idle states must be stable).
type SMProcess = sm.Process

// SMPortBinding designates a shared variable as a port and names the
// unique process owning it.
type SMPortBinding = sm.PortBinding

// SMSystem is a complete shared-memory system: processes, port bindings
// and the access bound B. SMAlgorithm.BuildSM returns one.
type SMSystem = sm.System

// VarID identifies a shared variable.
type VarID = model.VarID

// NewSynchronousModel returns the synchronous model: every step gap is
// exactly c2 and every message delay exactly d2.
func NewSynchronousModel(c2, d2 Ticks) TimingModel {
	return timing.NewSynchronous(sim.Duration(c2), sim.Duration(d2))
}

// NewPeriodicModel returns the periodic model: each process steps at an
// unknown constant period in [cmin, cmax]; delays are in [0, d2]. Pass
// d2 = 0 for shared-memory use.
func NewPeriodicModel(cmin, cmax, d2 Ticks) TimingModel {
	return timing.NewPeriodic(sim.Duration(cmin), sim.Duration(cmax), sim.Duration(d2))
}

// NewSemiSynchronousModel returns the semi-synchronous model: step gaps in
// [c1, c2] with both bounds known, delays in [0, d2].
func NewSemiSynchronousModel(c1, c2, d2 Ticks) TimingModel {
	return timing.NewSemiSynchronous(sim.Duration(c1), sim.Duration(c2), sim.Duration(d2))
}

// NewSporadicModel returns the sporadic model: step gaps at least c1 with
// no upper bound, delays in [d1, d2]. gapCap bounds the gaps schedulers
// actually draw; pass 0 for the default max(4·c1, d2).
func NewSporadicModel(c1, d1, d2, gapCap Ticks) TimingModel {
	return timing.NewSporadic(sim.Duration(c1), sim.Duration(d1), sim.Duration(d2), sim.Duration(gapCap))
}

// NewAsynchronousSMModel returns the asynchronous shared-memory model:
// no gap bounds, running time measured in rounds. gapCap bounds the gaps
// schedulers draw; pass 0 for the default of 8.
func NewAsynchronousSMModel(gapCap Ticks) TimingModel {
	return timing.NewAsynchronousSM(sim.Duration(gapCap))
}

// NewAsynchronousMPModel returns the asynchronous message-passing model:
// c1 = d1 = 0 with finite known c2 and d2.
func NewAsynchronousMPModel(c2, d2 Ticks) TimingModel {
	return timing.NewAsynchronousMP(sim.Duration(c2), sim.Duration(d2))
}

// FaultPlan is a deterministic fault-injection plan: a seed, an intensity
// (per-injection-point probability) and the fault kinds to draw from. Build
// one with NewFaultPlan and pass it to Solve via WithFaultPlan.
type FaultPlan = fault.Plan

// FaultKind identifies one injectable fault class.
type FaultKind = fault.Kind

// The injectable fault kinds. Step faults (crash, overrun, stale read)
// apply to both communication models; message faults (drop, duplicate,
// late delivery) apply to message passing only. Stale reads apply to
// shared memory only.
const (
	FaultCrash            = fault.Crash
	FaultStepOverrun      = fault.StepOverrun
	FaultStaleRead        = fault.StaleRead
	FaultMessageDrop      = fault.MessageDrop
	FaultMessageDuplicate = fault.MessageDuplicate
	FaultLateDelivery     = fault.LateDelivery
)

// NewFaultPlan returns a fault plan with the given seed and intensity,
// restricted to the given kinds (none means all). The same plan injects
// the same faults into the same run, every time, at any parallelism.
func NewFaultPlan(seed uint64, intensity float64, kinds ...FaultKind) FaultPlan {
	return fault.NewPlan(seed, intensity, kinds...)
}

// AllFaultKinds lists every injectable fault kind.
func AllFaultKinds() []FaultKind { return fault.AllKinds() }

// Strategies lists the scheduling strategy names accepted by WithSchedule,
// in the order the harness sweeps them.
func Strategies() []string {
	var out []string
	for _, st := range timing.AllStrategies() {
		out = append(out, st.String())
	}
	return out
}

// ValidationItem is one verification step's outcome.
type ValidationItem struct {
	Name   string
	Passed bool
	Detail string
}

// Validation is the outcome of a ValidateSM or ValidateMP run.
type Validation struct {
	Algorithm string
	Items     []ValidationItem
}

// OK reports whether every item passed.
func (v *Validation) OK() bool {
	for _, it := range v.Items {
		if !it.Passed {
			return false
		}
	}
	return true
}

func validationOf(rep *check.Report) *Validation {
	v := &Validation{Algorithm: rep.Algorithm}
	for _, it := range rep.Items {
		v.Items = append(v.Items, ValidationItem{Name: it.Name, Passed: it.Passed, Detail: it.Detail})
	}
	return v
}

// ValidateSM vets a shared-memory algorithm the way the built-in ones are
// vetted: sampled schedules across every strategy (WithSeeds seeds each),
// optional exhaustive small-schedule model checking (WithExhaustiveGaps —
// keep the instance tiny), idle-stability probing, and the matching
// lower-bound adversary for the model.
func ValidateSM(alg SMAlgorithm, spec Spec, m TimingModel, opts ...Option) *Validation {
	cfg := newSettings(opts)
	return validationOf(check.SM(alg, check.SMOptions{
		Spec:           spec,
		Model:          m,
		Seeds:          cfg.seeds,
		ExhaustiveGaps: cfg.exhaustiveGaps,
	}))
}

// ValidateMP vets a message-passing algorithm: sampled schedules, optional
// exhaustive checking (WithExhaustiveGaps and WithExhaustiveDelays, equal
// cardinality), and the sporadic retiming adversary where applicable.
func ValidateMP(alg MPAlgorithm, spec Spec, m TimingModel, opts ...Option) *Validation {
	cfg := newSettings(opts)
	return validationOf(check.MP(alg, check.MPOptions{
		Spec:             spec,
		Model:            m,
		Seeds:            cfg.seeds,
		ExhaustiveGaps:   cfg.exhaustiveGaps,
		ExhaustiveDelays: cfg.exhaustiveDelays,
	}))
}

// Envelope is a paper-predicted running-time envelope for one Table-1 cell.
type Envelope struct {
	// Lower and Upper are the bound formulas evaluated at the configured
	// parameters.
	Lower, Upper float64
	// Unit is "time" (ticks) or "rounds" (asynchronous shared memory).
	Unit string
}

// PaperEnvelope evaluates the paper's Table-1 bound formulas for one
// (timing model, communication model) cell at the configured parameters
// (WithSpec, WithAccessBound, WithStepBounds, WithPeriodRange,
// WithDelayBounds). The sporadic message-passing upper bound depends on γ,
// the largest step time of a concrete computation — supply it with
// WithGamma (Solve reports it as Report.Gamma). An instance the formulas
// cannot evaluate is an error: s or n below 1, or b below 2 in a cell
// whose formulas read it.
func PaperEnvelope(m Model, comm Comm, opts ...Option) (Envelope, error) {
	cfg := newSettings(opts)
	c, err := tableCell(m, comm)
	if err != nil {
		return Envelope{}, err
	}
	if err := harness.CheckSpec(cfg.s, cfg.n, cfg.b, c.ReadsB); err != nil {
		return Envelope{}, err
	}
	lower, upper := c.Bounds(cfg.params())
	return Envelope{Lower: lower, Upper: upper, Unit: c.Unit}, nil
}
