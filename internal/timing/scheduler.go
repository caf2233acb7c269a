package timing

import (
	"fmt"

	"sessionproblem/internal/sim"
)

// Strategy selects how a scheduler picks gaps and delays within the model's
// admissible ranges. Upper bounds quantify over all admissible schedules, so
// the harness exercises every algorithm under all of these.
type Strategy int

// Scheduling strategies.
const (
	// Random draws every gap and delay uniformly from the admissible range.
	Random Strategy = iota + 1
	// Slow is the adversarial strategy for running time: maximum gaps and
	// maximum delays everywhere.
	Slow
	// Fast uses minimum gaps and minimum delays everywhere.
	Fast
	// Skewed makes process 0 as slow as possible and everyone else as fast
	// as possible; delays are random. This is the schedule family the
	// periodic lower-bound proof perturbs.
	Skewed
	// Jittered uses fast gaps with random delays, stressing delivery/step
	// interleavings.
	Jittered
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Random:
		return "random"
	case Slow:
		return "slow"
	case Fast:
		return "fast"
	case Skewed:
		return "skewed"
	case Jittered:
		return "jittered"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// AllStrategies lists every strategy, for harness sweeps.
func AllStrategies() []Strategy {
	return []Strategy{Random, Slow, Fast, Skewed, Jittered}
}

// Scheduler produces admissible gaps and delays for one execution. It is
// bound to a model, a strategy and a seed; the same triple always yields the
// same schedule.
type Scheduler struct {
	model    Model
	strategy Strategy
	rng      *sim.RNG
	periods  map[int]sim.Duration // periodic model: fixed c_i per process
	started  map[int]bool         // StartSync: procs whose first gap was issued
}

// NewScheduler returns a deterministic scheduler for the model.
func (m Model) NewScheduler(strategy Strategy, seed uint64) *Scheduler {
	return &Scheduler{
		model:    m,
		strategy: strategy,
		rng:      sim.NewRNG(seed),
		periods:  make(map[int]sim.Duration),
		started:  make(map[int]bool),
	}
}

// Model returns the timing model this scheduler draws from.
func (s *Scheduler) Model() Model { return s.model }

// Draws reports how many random values the scheduler has consumed so far.
// Deterministic strategies (Slow, Fast, and — for gaps — Skewed and
// Jittered) resolve without touching the stream, as does DurationBetween on
// a degenerate range, so a zero Draws after a run proves the whole schedule
// was seed-independent: the seed feeds only this stream. The seed-group
// runner in internal/core uses that to share one run's result across every
// seed of a cell.
func (s *Scheduler) Draws() uint64 { return s.rng.Draws() }

// gapRange returns the scheduler's drawing range for step gaps (the
// admissible range, with unbounded tops replaced by the model's GapCap).
func (s *Scheduler) gapRange() (lo, hi sim.Duration) {
	m := s.model
	switch m.Kind {
	case Synchronous:
		return m.C2, m.C2
	case SemiSynchronous:
		return m.C1, m.C2
	case Sporadic:
		return m.C1, m.GapCap
	case AsynchronousSM:
		return 1, m.GapCap
	case AsynchronousMP:
		return 1, m.C2
	default:
		panic(fmt.Sprintf("timing: gapRange on %v", m.Kind))
	}
}

// PeriodOf returns the fixed period assigned to proc under the periodic
// model, assigning one on first use according to the strategy. It panics for
// non-periodic models.
func (s *Scheduler) PeriodOf(proc int) sim.Duration {
	if s.model.Kind != Periodic {
		panic("timing: PeriodOf on non-periodic model")
	}
	if p, ok := s.periods[proc]; ok {
		return p
	}
	m := s.model
	var p sim.Duration
	switch s.strategy {
	case Slow:
		p = m.PeriodMax
	case Fast, Jittered:
		p = m.PeriodMin
	case Skewed:
		if proc == 0 {
			p = m.PeriodMax
		} else {
			p = m.PeriodMin
		}
	default: // Random
		p = s.rng.DurationBetween(m.PeriodMin, m.PeriodMax)
	}
	s.periods[proc] = p
	return p
}

// Gap returns the time from a process's current step to its next one (also
// used for the gap from time 0 to the first step; under a synchronized
// start the first gap is 0).
func (s *Scheduler) Gap(proc int) sim.Duration {
	if s.model.StartSync && !s.started[proc] {
		s.started[proc] = true
		return 0
	}
	if s.model.Kind == Periodic {
		return s.PeriodOf(proc)
	}
	lo, hi := s.gapRange()
	switch s.strategy {
	case Slow:
		return hi
	case Fast, Jittered:
		return lo
	case Skewed:
		if proc == 0 {
			return hi
		}
		return lo
	default: // Random
		return s.rng.DurationBetween(lo, hi)
	}
}

// Delay returns a message delay within the model's admissible range.
func (s *Scheduler) Delay(src, dst int) sim.Duration {
	m := s.model
	lo, hi := m.D1, m.D2
	if m.Kind == Synchronous {
		return m.D2
	}
	switch s.strategy {
	case Slow:
		return hi
	case Fast:
		return lo
	default: // Random, Skewed, Jittered
		return s.rng.DurationBetween(lo, hi)
	}
}
