// Package explore exhaustively enumerates schedules for small
// session-problem instances and verifies the session condition on every one
// of them — bounded model checking, complementing the sampled strategies in
// internal/timing.
//
// A schedule is determined before execution: step gaps (and, in message
// passing, per-message delays) do not depend on the run. The explorer
// therefore enumerates all assignments of
//
//   - one gap choice per (process, step index) up to a depth cap (or one
//     period per process in the periodic model, where gaps are constant),
//     drawn from a finite choice set, and
//   - one delay choice per (broadcast, destination) up to a send cap,
//
// and runs each through core's audited runner, which builds a fresh system
// via the algorithm factory, certifies every step and delay against the
// model online and counts the disjoint sessions without recording a trace.
// A schedule the model does not admit is reported as a violation naming the
// bound it broke, so a choice set outside the model cannot pass unnoticed.
// Upper-bound theorems quantify over all admissible computations; on these
// finite sub-lattices the quantifier is discharged exactly.
package explore

import (
	"context"
	"errors"
	"fmt"

	"sessionproblem/internal/core"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
)

// Limit guards against accidental combinatorial explosions.
const defaultLimit = 250_000

// SMConfig configures an exhaustive shared-memory exploration.
type SMConfig struct {
	Alg   core.SMAlgorithm
	Spec  core.Spec
	Model timing.Model
	// GapChoices are the gaps enumerated per decision point. Every
	// schedule is certified against Model, so a choice the model does not
	// admit shows up as a violation.
	GapChoices []sim.Duration
	// Depth is the number of leading steps per process whose gaps are
	// enumerated; later steps reuse the last chosen gap. For the periodic
	// model Depth is ignored (one period decision per process).
	Depth int
	// Limit caps the number of schedules (default 250k).
	Limit int
}

// MPConfig configures an exhaustive message-passing exploration.
type MPConfig struct {
	Alg   core.MPAlgorithm
	Spec  core.Spec
	Model timing.Model
	// GapChoices as in SMConfig.
	GapChoices []sim.Duration
	// DelayChoices are the delays enumerated per (send, destination)
	// decision, up to SendDepth sends; later messages use the last delay
	// choice.
	DelayChoices []sim.Duration
	// Depth as in SMConfig: ignored for the periodic model, which
	// enumerates one period per process.
	Depth int
	// SendDepth is the number of leading broadcasts whose delays are
	// enumerated (each costs n delay decisions).
	SendDepth int
	Limit     int
}

// Violation records one schedule on which the property failed.
type Violation struct {
	// Digits is the odometer state identifying the schedule.
	Digits []int
	// Sessions achieved, or -1 if the run errored.
	Sessions int
	// Err is the run's error or, for a schedule the model does not admit,
	// the first bound it broke; nil when an admissible schedule completed
	// fewer than spec.S sessions.
	Err error
}

// Result summarizes an exploration.
type Result struct {
	// Explored is the number of schedules run.
	Explored int
	// MinSessions is the fewest sessions over the admissible schedules.
	MinSessions int
	// WorstFinish is the largest running time of an admissible schedule.
	WorstFinish sim.Time
	// Violations lists up to 5 failing schedules.
	Violations []Violation
}

// OK reports whether every explored schedule satisfied the session
// condition.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// odometer enumerates all digit vectors of the given length and base.
type odometer struct {
	digits []int
	base   int
	done   bool
}

func newOdometer(length, base int) *odometer {
	return &odometer{digits: make([]int, length), base: base}
}

func (o *odometer) next() bool {
	if o.done {
		return false
	}
	for i := 0; i < len(o.digits); i++ {
		o.digits[i]++
		if o.digits[i] < o.base {
			return true
		}
		o.digits[i] = 0
	}
	o.done = true
	return false
}

func (o *odometer) count() (int, error) {
	total := 1
	for range o.digits {
		total *= o.base
		if total > 100_000_000 {
			return 0, errors.New("explore: schedule space too large")
		}
	}
	return total, nil
}

// digitScheduler resolves gaps and delays from an odometer's digit vector.
type digitScheduler struct {
	gapChoices   []sim.Duration
	delayChoices []sim.Duration
	digits       []int

	periodic bool
	numProcs int
	depth    int
	sends    int // delay decisions available (sendDepth * numProcs)

	stepIdx   []int
	delayIdx  int
	lastGap   []sim.Duration
	lastDelay sim.Duration
}

func newDigitScheduler(numProcs int, periodic bool, depth, sendDepth int,
	gapChoices, delayChoices []sim.Duration, digits []int) *digitScheduler {
	d := &digitScheduler{
		gapChoices:   gapChoices,
		delayChoices: delayChoices,
		digits:       digits,
		periodic:     periodic,
		numProcs:     numProcs,
		depth:        depth,
		sends:        sendDepth * numProcs,
		stepIdx:      make([]int, numProcs),
		lastGap:      make([]sim.Duration, numProcs),
	}
	if len(delayChoices) > 0 {
		d.lastDelay = delayChoices[0]
	}
	return d
}

// gapDigits returns the number of gap decision digits.
func gapDigits(numProcs int, periodic bool, depth int) int {
	if periodic {
		return numProcs
	}
	return numProcs * depth
}

func (d *digitScheduler) Gap(proc int) sim.Duration {
	if proc >= d.numProcs {
		// Processes beyond the enumerated set (relay processes the
		// algorithm added): reuse the first choice deterministically.
		return d.gapChoices[0]
	}
	if d.periodic {
		return d.gapChoices[d.digits[proc]]
	}
	i := d.stepIdx[proc]
	d.stepIdx[proc]++
	if i >= d.depth {
		return d.lastGap[proc]
	}
	g := d.gapChoices[d.digits[proc*d.depth+i]]
	d.lastGap[proc] = g
	return g
}

func (d *digitScheduler) Delay(src, dst int) sim.Duration {
	base := gapDigits(d.numProcs, d.periodic, d.depth)
	if d.delayIdx >= d.sends || len(d.delayChoices) == 0 {
		return d.lastDelay
	}
	// Delay digits live in a second base region; the caller packed them
	// into the same digit vector with the same base, so choice sets must
	// share a cardinality. The constructor validates this.
	v := d.delayChoices[d.digits[base+d.delayIdx]]
	d.delayIdx++
	d.lastDelay = v
	return v
}

// ExhaustiveSM runs the shared-memory exploration. ctx cancels it between
// and during runs.
func ExhaustiveSM(ctx context.Context, cfg SMConfig) (*Result, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.GapChoices) == 0 {
		return nil, errors.New("explore: no gap choices")
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 3
	}
	periodic := cfg.Model.Kind == timing.Periodic
	// Enumerate gaps for every process in the built system, including any
	// relay processes the algorithm adds; a probe build counts them.
	probe, err := cfg.Alg.BuildSM(cfg.Spec, cfg.Model)
	if err != nil {
		return nil, err
	}
	numProcs := len(probe.Procs)
	nd := gapDigits(numProcs, periodic, cfg.Depth)
	return explore(ctx, nd, len(cfg.GapChoices), cfg.Limit, cfg.Spec.S, func(digits []int, rs *core.RunScratch) (*core.Report, error) {
		sched := newDigitScheduler(numProcs, periodic, cfg.Depth, 0, cfg.GapChoices, nil, digits)
		return core.AuditSM(ctx, cfg.Alg, cfg.Spec, cfg.Model, sched, core.FaultRun{Scratch: rs})
	})
}

// ExhaustiveMP runs the message-passing exploration. Under the periodic
// model it enumerates one period per process, as ExhaustiveSM does.
func ExhaustiveMP(ctx context.Context, cfg MPConfig) (*Result, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.GapChoices) == 0 || len(cfg.DelayChoices) == 0 {
		return nil, errors.New("explore: need gap and delay choices")
	}
	if len(cfg.GapChoices) != len(cfg.DelayChoices) {
		return nil, errors.New("explore: gap and delay choice sets must have equal size")
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 2
	}
	if cfg.SendDepth < 0 {
		cfg.SendDepth = 0
	}
	periodic := cfg.Model.Kind == timing.Periodic
	nd := gapDigits(cfg.Spec.N, periodic, cfg.Depth) + cfg.SendDepth*cfg.Spec.N
	return explore(ctx, nd, len(cfg.GapChoices), cfg.Limit, cfg.Spec.S, func(digits []int, rs *core.RunScratch) (*core.Report, error) {
		sched := newDigitScheduler(cfg.Spec.N, periodic, cfg.Depth, cfg.SendDepth,
			cfg.GapChoices, cfg.DelayChoices, digits)
		return core.AuditMP(ctx, cfg.Alg, cfg.Spec, cfg.Model, sched, core.FaultRun{Scratch: rs})
	})
}

// explore runs every schedule of nd digits in the given base through run,
// on one reusable scratch, and folds the audited reports into a Result. It
// refuses a schedule space larger than limit (0 = the default). A run error
// other than cancellation is that schedule's violation.
func explore(ctx context.Context, nd, base, limit, s int, run func([]int, *core.RunScratch) (*core.Report, error)) (*Result, error) {
	if limit <= 0 {
		limit = defaultLimit
	}
	od := newOdometer(nd, base)
	if total, err := od.count(); err != nil {
		return nil, err
	} else if total > limit {
		return nil, fmt.Errorf("explore: %d schedules exceed limit %d", total, limit)
	}
	var rs core.RunScratch
	res := &Result{MinSessions: int(^uint(0) >> 1)}
	for {
		rep, err := run(od.digits, &rs)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		res.Explored++
		record(res, s, od.digits, rep, err)
		if !od.next() {
			return res, nil
		}
	}
}

// record folds one schedule's outcome into res. An admissible schedule
// counts toward MinSessions and WorstFinish and is a violation when it
// completes fewer than s sessions; a schedule the model does not admit is a
// violation naming the first bound it broke.
func record(res *Result, s int, digits []int, rep *core.Report, err error) {
	var v Violation
	switch {
	case err != nil:
		v = Violation{Sessions: -1, Err: err}
	case rep.Audit.Violations.Len() > 0:
		v = Violation{Sessions: rep.Sessions, Err: fmt.Errorf("explore: schedule not admissible: %s", rep.Audit.Violations.Strings()[0])}
	default:
		res.MinSessions = min(res.MinSessions, rep.Sessions)
		res.WorstFinish = max(res.WorstFinish, rep.Finish)
		if rep.Sessions >= s {
			return
		}
		v = Violation{Sessions: rep.Sessions}
	}
	if len(res.Violations) < 5 {
		v.Digits = append([]int(nil), digits...)
		res.Violations = append(res.Violations, v)
	}
}
