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
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

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
// trace order, then the first delay violation in send order, as a
// Violation. AdmissibilityViolations is the collecting variant.
func (m Model) CheckAdmissible(tr *model.Trace, delays []MessageDelay) error {
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("trace invalid: %w", err)
	}
	return replay(m.NewChecker(tr.NumProcs), tr, delays).Err()
}

// AdmissibilityViolations returns every constraint the trace and recorded
// delays violate under this model, in Checker.Violations order: per-process
// gap violations (processes in index order, steps in trace order), then
// message-delay violations in send order. It returns nil, nil for an
// admissible computation, and only the error CheckAdmissible reports for an
// invalid trace. CheckAdmissible is the fail-fast variant; the fault
// auditor uses this collecting one.
func (m Model) AdmissibilityViolations(tr *model.Trace, delays []MessageDelay) ([]Violation, error) {
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("trace invalid: %w", err)
	}
	return replay(m.NewCollectingChecker(tr.NumProcs), tr, delays).Violations(), nil
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

// Rule names the admissibility rule a Violation breaks.
type Rule uint8

// The rules, one per message Violation.Error renders. The zero Rule is no
// violation.
const (
	// RuleStartSync: under a synchronized start, a first step not at 0.
	RuleStartSync Rule = iota + 1
	// RuleGapC2: a synchronous gap other than c2.
	RuleGapC2
	// RulePeriodRange: a periodic process's period outside [cmin, cmax].
	RulePeriodRange
	// RulePeriodGap: a periodic gap other than the process's period.
	RulePeriodGap
	// RuleGapRange: a gap outside [c1, c2] (semi-synchronous) or [0, c2]
	// (asynchronous message passing).
	RuleGapRange
	// RuleGapBelowC1: a sporadic gap below c1.
	RuleGapBelowC1
	// RuleNegativeGap: an asynchronous shared-memory step back in time.
	RuleNegativeGap
	// RuleDelayD2: a synchronous delay other than d2.
	RuleDelayD2
	// RuleDelayRange: a delay outside [d1, d2].
	RuleDelayRange
)

// Violation is one broken admissibility rule, kept as the numbers its
// message prints; Error renders the message. It is built only when a bound
// fails, so a passing step or delay costs no more than the comparison.
type Violation struct {
	Rule Rule
	// Proc and Index name the step a gap rule faults; Src and Dst the
	// message a delay rule faults.
	Proc, Index int
	Src, Dst    int
	// At is the step's time, or the message's send time.
	At sim.Time
	// Got is the measured gap, period or delay, and [Lo, Hi] the range the
	// rule admits (Lo = Hi for the exact rules).
	Got, Lo, Hi sim.Duration
}

// Error renders the violation's message.
func (v Violation) Error() string {
	switch v.Rule {
	case RuleStartSync:
		return v.proc() + ": first step at " + v.At.String() + ", want 0 under synchronized start"
	case RuleGapC2:
		return v.step() + "gap " + v.Got.String() + " != c2 " + v.Hi.String()
	case RulePeriodRange:
		return v.proc() + ": period " + v.Got.String() + " outside " + interval(v.Lo, v.Hi)
	case RulePeriodGap:
		return v.step() + "gap " + v.Got.String() + " != period " + v.Hi.String()
	case RuleGapRange:
		return v.step() + "gap " + v.Got.String() + " outside " + interval(v.Lo, v.Hi)
	case RuleGapBelowC1:
		return v.step() + "gap " + v.Got.String() + " below c1 " + v.Lo.String()
	case RuleNegativeGap:
		return v.step() + "negative gap"
	case RuleDelayD2:
		return v.message() + "delay " + v.Got.String() + " != d2 " + v.Hi.String()
	case RuleDelayRange:
		return v.message() + "delay " + v.Got.String() + " outside " + interval(v.Lo, v.Hi)
	default:
		return "timing: Rule(" + strconv.Itoa(int(v.Rule)) + ")"
	}
}

func (v Violation) proc() string { return "p" + strconv.Itoa(v.Proc) }

func (v Violation) step() string { return v.proc() + " step " + strconv.Itoa(v.Index) + ": " }

func (v Violation) message() string {
	return "message " + strconv.Itoa(v.Src) + "->" + strconv.Itoa(v.Dst) + " sent " + v.At.String() + ": "
}

func interval(lo, hi sim.Duration) string { return "[" + lo.String() + "," + hi.String() + "]" }

// gapState is one process's running state for gap checking.
type gapState struct {
	last   sim.Time
	period sim.Duration // Periodic: fixed by the first constrained gap
	seen   bool
}

// checkGapStep advances st past a step at time at and returns the step's
// gap and, when the gap breaks a rule, that rule and the range [lo, hi] it
// admits. The caller builds a Violation only then.
func (m *Model) checkGapStep(st *gapState, at sim.Time) (gap sim.Duration, r Rule, lo, hi sim.Duration) {
	gap = at.Sub(st.last)
	st.last = at
	first := !st.seen
	st.seen = true
	if first && m.StartSync {
		// [4]'s convention: the synchronized first step occurs at time 0;
		// subsequent gaps obey the model constraints.
		if gap != 0 {
			return gap, RuleStartSync, 0, 0
		}
		return gap, 0, 0, 0
	}
	switch m.Kind {
	case Synchronous:
		if gap != m.C2 {
			return gap, RuleGapC2, m.C2, m.C2
		}
	case Periodic:
		if st.period == 0 {
			// First constrained gap fixes the process's period
			// (PeriodMin > 0, so 0 is a safe "unset" sentinel).
			st.period = gap
			if gap < m.PeriodMin || gap > m.PeriodMax {
				return gap, RulePeriodRange, m.PeriodMin, m.PeriodMax
			}
		} else if gap != st.period {
			return gap, RulePeriodGap, st.period, st.period
		}
	case SemiSynchronous:
		if gap < m.C1 || gap > m.C2 {
			return gap, RuleGapRange, m.C1, m.C2
		}
	case Sporadic:
		if gap < m.C1 {
			return gap, RuleGapBelowC1, m.C1, m.C2
		}
	case AsynchronousSM:
		if gap < 0 {
			return gap, RuleNegativeGap, 0, m.C2
		}
	case AsynchronousMP:
		if gap < 0 || gap > m.C2 {
			return gap, RuleGapRange, 0, m.C2
		}
	}
	return gap, 0, 0, 0
}

// checkDelay returns the rule a transit of length delay breaks, if any, and
// the range [lo, hi] that rule admits.
func (m *Model) checkDelay(delay sim.Duration) (r Rule, lo, hi sim.Duration) {
	if m.Kind == Synchronous {
		if delay != m.D2 {
			return RuleDelayD2, m.D2, m.D2
		}
		return 0, 0, 0
	}
	if delay < m.D1 || delay > m.D2 {
		return RuleDelayRange, m.D1, m.D2
	}
	return 0, 0, 0
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
	// firstGap and firstDelay are the first gap violation in step order
	// and the first delay violation in send order (Rule 0: none yet).
	firstGap, firstDelay Violation
	// Collecting mode only: every violation, in observation order.
	all []Violation
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
	if (c.firstGap.Rule != 0 && !c.collect) || s.Proc < 0 || s.Proc >= len(c.st) {
		return
	}
	if gap, r, lo, hi := c.m.checkGapStep(&c.st[s.Proc], s.Time); r != 0 {
		c.record(&c.firstGap, Violation{Rule: r, Proc: s.Proc, Index: s.Index, At: s.Time, Got: gap, Lo: lo, Hi: hi})
	}
}

// ObserveDelay checks one message's transit interval.
func (c *Checker) ObserveDelay(d MessageDelay) {
	if (c.firstGap.Rule != 0 || c.firstDelay.Rule != 0) && !c.collect {
		return
	}
	delay := d.Delay()
	if r, lo, hi := c.m.checkDelay(delay); r != 0 {
		c.record(&c.firstDelay, Violation{Rule: r, Src: d.Src, Dst: d.Dst, At: d.Sent, Got: delay, Lo: lo, Hi: hi})
	}
}

// record keeps v as the first violation of its kind, and every violation
// when the checker collects.
func (c *Checker) record(first *Violation, v Violation) {
	if first.Rule == 0 {
		*first = v
	}
	if c.collect {
		c.all = append(c.all, v)
	}
}

// Err returns the first gap violation observed, else the first delay
// violation, else nil.
func (c *Checker) Err() error {
	switch {
	case c.firstGap.Rule != 0:
		return c.firstGap
	case c.firstDelay.Rule != 0:
		return c.firstDelay
	}
	return nil
}

// Violations lists every violation a collecting checker observed: gap
// violations by process index, each process's in step order, then delay
// violations in send order. It returns nil when there were none, and always
// for a fail-fast checker. It sorts the checker's own list in place and
// returns it.
func (c *Checker) Violations() []Violation {
	if len(c.all) == 0 {
		return nil
	}
	slices.SortStableFunc(c.all, func(a, b Violation) int { return cmp.Compare(a.order(), b.order()) })
	return c.all
}

// order is v's key in Violations: its process for a gap rule, after every
// process for a delay rule.
func (v Violation) order() int {
	if v.Rule == RuleDelayD2 || v.Rule == RuleDelayRange {
		return math.MaxInt
	}
	return v.Proc
}
