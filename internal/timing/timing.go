// Package timing defines the five timing models of Section 2.2 as
// admissibility constraint sets, plus schedulers that generate admissible
// schedules (step gaps and message delays) under several strategies, and an
// independent checker that re-verifies admissibility of produced traces.
//
// The paper's models constrain (a) the time between consecutive steps of
// each process — including the gap from time 0 to the first step — and
// (b) message delays in the message-passing model:
//
//	Synchronous   gap = c2 exactly            delay = d2 exactly
//	Periodic      gap = c_i constant, unknown  delay ∈ [0, d2]
//	SemiSync      gap ∈ [c1, c2]               delay ∈ [0, d2]
//	Sporadic      gap ≥ c1 (no upper bound)    delay ∈ [d1, d2]
//	Asynchronous  gap unbounded                delay finite (SM: rounds;
//	              MP per [4]: gap ∈ [0, c2], delay ∈ [0, d2])
package timing

import (
	"errors"
	"fmt"
	"sort"

	"sessionproblem/internal/model"
	"sessionproblem/internal/sim"
)

// Kind enumerates the timing models.
type Kind int

// The five timing models of the paper. AsynchronousMP follows [4]'s
// formulation (c1 = d1 = 0, finite c2 and d2), which is the one Table 1's
// message-passing asynchronous row uses; AsynchronousSM follows [2]
// (unbounded gaps, running time in rounds).
const (
	Synchronous Kind = iota + 1
	Periodic
	SemiSynchronous
	Sporadic
	AsynchronousSM
	AsynchronousMP
)

// String names the model kind.
func (k Kind) String() string {
	switch k {
	case Synchronous:
		return "synchronous"
	case Periodic:
		return "periodic"
	case SemiSynchronous:
		return "semi-synchronous"
	case Sporadic:
		return "sporadic"
	case AsynchronousSM:
		return "asynchronous(SM)"
	case AsynchronousMP:
		return "asynchronous(MP)"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Model is one timing model instance with concrete constants.
type Model struct {
	Kind Kind

	// C1 and C2 bound the time between consecutive steps of a process.
	// C2 may be Infinity (sporadic, asynchronous SM).
	C1, C2 sim.Duration

	// D1 and D2 bound message delay in the message-passing model. They are
	// ignored for shared-memory executions.
	D1, D2 sim.Duration

	// PeriodMin and PeriodMax bound the per-process constants c_i of the
	// periodic model (cmin and cmax in Table 1). Only used by Periodic.
	PeriodMin, PeriodMax sim.Duration

	// GapCap caps the gaps drawn by schedulers for models with no upper
	// bound on step time (Sporadic, AsynchronousSM). It is a property of
	// the scheduler, not of admissibility: admissible computations may have
	// arbitrarily large finite gaps.
	GapCap sim.Duration

	// StartSync adopts [4]'s convention (paper conversion note 3): every
	// process takes a synchronized first step at time 0, yielding one free
	// session at time 0. The paper's own convention — all steps including
	// the first obey the timing constraints from time 0 — is the default.
	StartSync bool
}

// WithSynchronizedStart returns a copy of the model using [4]'s
// synchronized-first-step convention.
func (m Model) WithSynchronizedStart() Model {
	m.StartSync = true
	return m
}

// NewSynchronous returns the synchronous model: every gap is exactly c2 and
// every delay exactly d2.
func NewSynchronous(c2, d2 sim.Duration) Model {
	return Model{Kind: Synchronous, C1: c2, C2: c2, D1: d2, D2: d2}
}

// NewPeriodic returns the periodic model: each process p_i steps at an
// unknown constant period c_i ∈ [periodMin, periodMax]; delays are in
// [0, d2]. Pass d2 = 0 for shared-memory use.
func NewPeriodic(periodMin, periodMax, d2 sim.Duration) Model {
	return Model{
		Kind:      Periodic,
		C1:        periodMin,
		C2:        periodMax,
		D1:        0,
		D2:        d2,
		PeriodMin: periodMin,
		PeriodMax: periodMax,
	}
}

// NewSemiSynchronous returns the semi-synchronous model: gaps in [c1, c2]
// (c1 > 0, both known), delays in [0, d2].
func NewSemiSynchronous(c1, c2, d2 sim.Duration) Model {
	return Model{Kind: SemiSynchronous, C1: c1, C2: c2, D1: 0, D2: d2}
}

// NewSporadic returns the sporadic model: gaps at least c1 with no upper
// bound, delays in [d1, d2]. gapCap bounds the gaps the schedulers draw;
// pass 0 for a default of max(4·c1, d2).
func NewSporadic(c1, d1, d2, gapCap sim.Duration) Model {
	if gapCap <= 0 {
		gapCap = sim.MaxDuration(4*c1, d2)
	}
	return Model{Kind: Sporadic, C1: c1, C2: sim.Infinity, D1: d1, D2: d2, GapCap: gapCap}
}

// NewAsynchronousSM returns the asynchronous shared-memory model of [2]:
// no bounds on gaps; running time is measured in rounds. gapCap bounds the
// gaps schedulers draw; pass 0 for a default of 8.
func NewAsynchronousSM(gapCap sim.Duration) Model {
	if gapCap <= 0 {
		gapCap = 8
	}
	return Model{Kind: AsynchronousSM, C1: 1, C2: sim.Infinity, GapCap: gapCap}
}

// NewAsynchronousMP returns the asynchronous message-passing model of [4]:
// c1 = d1 = 0 with finite known c2 and d2. (Integer time means schedulers
// draw gaps in [1, c2]; a 1-tick gap approximates c1 = 0.)
func NewAsynchronousMP(c2, d2 sim.Duration) Model {
	return Model{Kind: AsynchronousMP, C1: 0, C2: c2, D1: 0, D2: d2}
}

// Validate checks that the constants are coherent.
func (m Model) Validate() error {
	switch m.Kind {
	case Synchronous:
		if m.C2 <= 0 {
			return errors.New("timing: synchronous requires c2 > 0")
		}
	case Periodic:
		if m.PeriodMin <= 0 || m.PeriodMax < m.PeriodMin {
			return fmt.Errorf("timing: periodic requires 0 < cmin <= cmax, got [%v,%v]",
				m.PeriodMin, m.PeriodMax)
		}
	case SemiSynchronous:
		if m.C1 <= 0 || m.C2 < m.C1 || m.C2.IsInfinite() {
			return fmt.Errorf("timing: semi-synchronous requires 0 < c1 <= c2 < ∞, got [%v,%v]",
				m.C1, m.C2)
		}
	case Sporadic:
		if m.C1 <= 0 {
			return errors.New("timing: sporadic requires c1 > 0")
		}
		if m.D1 < 0 || m.D2 < m.D1 || m.D2.IsInfinite() {
			return fmt.Errorf("timing: sporadic requires 0 <= d1 <= d2 < ∞, got [%v,%v]",
				m.D1, m.D2)
		}
		if m.GapCap < m.C1 {
			return errors.New("timing: sporadic gap cap below c1")
		}
	case AsynchronousSM:
		if m.GapCap < 1 {
			return errors.New("timing: asynchronous SM gap cap must be >= 1")
		}
	case AsynchronousMP:
		if m.C2 <= 0 || m.D2 < 0 {
			return errors.New("timing: asynchronous MP requires c2 > 0 and d2 >= 0")
		}
	default:
		return fmt.Errorf("timing: unknown kind %v", m.Kind)
	}
	if m.D1 < 0 || (m.D2 < m.D1 && !m.D2.IsInfinite()) {
		return fmt.Errorf("timing: delay bounds [%v,%v] invalid", m.D1, m.D2)
	}
	return nil
}

// RoundBased reports whether running time under this model is measured in
// rounds rather than real time (asynchronous SM per [2]).
func (m Model) RoundBased() bool { return m.Kind == AsynchronousSM }

// U returns d2 - d1, the delay uncertainty of the sporadic model.
func (m Model) U() sim.Duration { return m.D2 - m.D1 }

// MaxIncrement returns the largest finite scheduling increment this model's
// schedulers can hand to an executor — the bound on how far ahead of the
// current tick a step or delivery is ever pushed. The executors use it to
// size the calendar queue's bucket window so steady-state pushes never spill
// to the overflow heap. Infinite bounds are excluded: schedulers cap
// unbounded gaps with GapCap, so the finite fields cover every draw.
func (m Model) MaxIncrement() sim.Duration {
	inc := sim.Duration(0)
	for _, d := range [...]sim.Duration{m.C2, m.D2, m.PeriodMax, m.GapCap} {
		if d > inc && !d.IsInfinite() {
			inc = d
		}
	}
	return inc
}

// MessageDelay records one message's transit interval for admissibility
// checking: from the send step to the network delivery step.
type MessageDelay struct {
	Src, Dst  int
	Sent      sim.Time
	Delivered sim.Time
}

// Delay returns the transit duration.
func (d MessageDelay) Delay() sim.Duration { return d.Delivered.Sub(d.Sent) }

// CheckAdmissible verifies that the trace's step times and the recorded
// message delays satisfy this model's constraints, independently of how the
// schedule was produced. Gap constraints apply to every regular process that
// appears, counting the gap from time 0 to the first step (the paper
// assumes all steps, including the first, obey the constraints from time 0).
// An invalid trace is reported first; otherwise the first gap violation in
// trace order, then the first delay violation in send order.
// AdmissibilityViolations is the collecting variant.
func (m Model) CheckAdmissible(tr *model.Trace, delays []MessageDelay) error {
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("trace invalid: %w", err)
	}
	return replay(m.NewChecker(tr.NumProcs), tr, delays).Err()
}

// AdmissibilityViolations returns a description of every constraint the
// trace and recorded delays violate under this model, in deterministic
// order: per-process gap violations (processes in index order, steps in
// trace order), then message-delay violations in send order. It returns nil
// for admissible computations. CheckAdmissible is the fail-fast variant;
// the fault auditor uses this collecting one.
func (m Model) AdmissibilityViolations(tr *model.Trace, delays []MessageDelay) []string {
	if err := tr.Validate(); err != nil {
		return []string{fmt.Sprintf("trace invalid: %v", err)}
	}
	return replay(m.NewCollectingChecker(tr.NumProcs), tr, delays).Violations()
}

// replay feeds a recorded trace and its delays through c.
func replay(c *Checker, tr *model.Trace, delays []MessageDelay) *Checker {
	for i := range tr.Steps {
		c.ObserveStep(tr.Steps[i])
	}
	for _, d := range delays {
		c.ObserveDelay(d)
	}
	return c
}

// gapState is one process's running state for gap checking.
type gapState struct {
	last   sim.Time
	period sim.Duration // Periodic: fixed by the first constrained gap
	seen   bool
}

// checkGapStep checks one step's gap against the model.
func (m Model) checkGapStep(st *gapState, proc, index int, at sim.Time) error {
	gap := at.Sub(st.last)
	st.last = at
	first := !st.seen
	st.seen = true
	if first && m.StartSync {
		// [4]'s convention: the synchronized first step occurs at time 0;
		// subsequent gaps obey the model constraints.
		if gap != 0 {
			return fmt.Errorf("p%d: first step at %v, want 0 under synchronized start", proc, at)
		}
		return nil
	}
	switch m.Kind {
	case Synchronous:
		if gap != m.C2 {
			return fmt.Errorf("p%d step %d: gap %v != c2 %v", proc, index, gap, m.C2)
		}
	case Periodic:
		if st.period == 0 {
			// First constrained gap fixes the process's period
			// (PeriodMin > 0, so 0 is a safe "unset" sentinel).
			st.period = gap
			if gap < m.PeriodMin || gap > m.PeriodMax {
				return fmt.Errorf("p%d: period %v outside [%v,%v]", proc, gap, m.PeriodMin, m.PeriodMax)
			}
		} else if gap != st.period {
			return fmt.Errorf("p%d step %d: gap %v != period %v", proc, index, gap, st.period)
		}
	case SemiSynchronous:
		if gap < m.C1 || gap > m.C2 {
			return fmt.Errorf("p%d step %d: gap %v outside [%v,%v]", proc, index, gap, m.C1, m.C2)
		}
	case Sporadic:
		if gap < m.C1 {
			return fmt.Errorf("p%d step %d: gap %v below c1 %v", proc, index, gap, m.C1)
		}
	case AsynchronousSM:
		if gap < 0 {
			return fmt.Errorf("p%d step %d: negative gap", proc, index)
		}
	case AsynchronousMP:
		if gap < 0 || gap > m.C2 {
			return fmt.Errorf("p%d step %d: gap %v outside [0,%v]", proc, index, gap, m.C2)
		}
	}
	return nil
}

// Checker is the one implementation of the gap and delay rules. It verifies
// admissibility online, one step or delay at a time, with O(processes) state
// and no trace; CheckAdmissible and AdmissibilityViolations replay a
// recorded trace through one. Steps and delays may arrive interleaved, as
// the message-passing executor produces them, without changing the answer.
// It checks neither trace validity (see model.ValidateStep) nor anything
// outside [0, numProcs): network steps carry no gap constraint. It
// implements model.StepObserver (and, structurally, the message-passing
// executor's DelayObserver).
type Checker struct {
	m       Model
	st      []gapState
	collect bool
	// gapErr and delayErr are the first gap violation in step order and
	// the first delay violation in send order.
	gapErr, delayErr error
	// Collecting mode only: every violation, gaps tagged with their
	// process and kept in step order.
	gaps   []procViolation
	delays []string
}

type procViolation struct {
	proc int
	msg  string
}

// NewChecker returns a fail-fast checker for a system of numProcs regular
// processes under model m. Err reports what CheckAdmissible would: the first
// gap violation in step order ahead of any delay violation. Once a gap
// violation is known, later observations are no-ops.
func (m Model) NewChecker(numProcs int) *Checker {
	return &Checker{m: m, st: make([]gapState, numProcs)}
}

// NewCollectingChecker returns a checker that records every violation, for
// Violations; Err still reports the fail-fast answer.
func (m Model) NewCollectingChecker(numProcs int) *Checker {
	c := m.NewChecker(numProcs)
	c.collect = true
	return c
}

// ObserveStep checks one executed step's gap constraint.
func (c *Checker) ObserveStep(s model.Step) {
	if (c.gapErr != nil && !c.collect) || s.Proc < 0 || s.Proc >= len(c.st) {
		return
	}
	err := c.m.checkGapStep(&c.st[s.Proc], s.Proc, s.Index, s.Time)
	if err == nil {
		return
	}
	if c.gapErr == nil {
		c.gapErr = err
	}
	if c.collect {
		c.gaps = append(c.gaps, procViolation{s.Proc, err.Error()})
	}
}

// ObserveDelay checks one message's transit interval.
func (c *Checker) ObserveDelay(d MessageDelay) {
	if (c.gapErr != nil || c.delayErr != nil) && !c.collect {
		return
	}
	err := c.m.checkDelay(d)
	if err == nil {
		return
	}
	if c.delayErr == nil {
		c.delayErr = err
	}
	if c.collect {
		c.delays = append(c.delays, err.Error())
	}
}

// Err returns the first gap violation observed, else the first delay
// violation, else nil.
func (c *Checker) Err() error {
	if c.gapErr != nil {
		return c.gapErr
	}
	return c.delayErr
}

// Violations lists every violation a collecting checker observed, in
// AdmissibilityViolations order: gap violations by process index, each
// process's in step order, then delay violations in send order. It returns
// nil when there were none, and always for a fail-fast checker.
func (c *Checker) Violations() []string {
	if len(c.gaps)+len(c.delays) == 0 {
		return nil
	}
	sort.SliceStable(c.gaps, func(i, j int) bool { return c.gaps[i].proc < c.gaps[j].proc })
	out := make([]string, 0, len(c.gaps)+len(c.delays))
	for _, v := range c.gaps {
		out = append(out, v.msg)
	}
	return append(out, c.delays...)
}

func (m Model) checkDelay(d MessageDelay) error {
	delay := d.Delay()
	lo, hi := m.D1, m.D2
	if m.Kind == Synchronous {
		if delay != m.D2 {
			return fmt.Errorf("message %d->%d sent %v: delay %v != d2 %v",
				d.Src, d.Dst, d.Sent, delay, m.D2)
		}
		return nil
	}
	if delay < lo || delay > hi {
		return fmt.Errorf("message %d->%d sent %v: delay %v outside [%v,%v]",
			d.Src, d.Dst, d.Sent, delay, lo, hi)
	}
	return nil
}
