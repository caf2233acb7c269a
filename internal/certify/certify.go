// Package certify verifies runs online, one executor step at a time: it is
// the certifier behind every verified run in internal/core, whether or not
// the run also records its trace. A Counter plugs into the executors'
// observer hooks (sm.Options.Observer / mp.Options.Observer + DelayObserver)
// and replicates exactly the greedy decompositions of
// model.Trace.CountSessions, model.Trace.CountRounds, model.Trace.Gamma and
// trace.Sessions, model.Trace.Validate's per-step checks, and — through a
// timing.Checker — the admissibility verdicts of timing.Model.CheckAdmissible
// and AdmissibilityViolations, all in O(processes) memory.
// FuzzCounterMatchesTrace holds it to those trace methods.
package certify

import (
	"fmt"

	"sessionproblem/internal/model"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
	"sessionproblem/internal/trace"
)

// Counter is a streaming session certifier. Feed it every executed step (in
// execution order, network deliveries included) via ObserveStep and — for
// message-passing runs — every transit interval via ObserveDelay; read the
// totals once the run finishes. The zero value is not ready; use New.
type Counter struct {
	numProcs, numPorts int

	// Greedy session decomposition (model.Trace.CountSessions semantics):
	// close a fragment as soon as every port has been seen.
	portSeen  []bool
	portCount int
	firstStep int // step index opening the current fragment
	firstAt   sim.Time
	spans     []trace.SessionSpan

	// Greedy round decomposition (model.Trace.CountRounds semantics).
	procSeen  []bool
	procCount int
	rounds    int

	// Per-process last step time, for Gamma (gap from time 0 counts).
	last  []sim.Time
	gamma sim.Duration

	steps   int
	prev    sim.Time // time of the previous step, for ValidateStep
	invalid error    // first model.ValidateStep failure
	checker *timing.Checker
}

// New returns a counter for a system of numProcs regular processes and
// numPorts ports.
func New(numProcs, numPorts int) *Counter {
	return &Counter{
		numProcs: numProcs,
		numPorts: numPorts,
		portSeen: make([]bool, numPorts),
		procSeen: make([]bool, numProcs),
		last:     make([]sim.Time, numProcs),
	}
}

// CheckAdmissibility additionally verifies every observed step gap and
// message delay against m with a fail-fast timing.Checker. Err reports the
// first violation.
func (c *Counter) CheckAdmissibility(m timing.Model) *Counter {
	c.checker = m.NewChecker(c.numProcs)
	return c
}

// CollectViolations is CheckAdmissibility with a collecting checker, for
// audited runs: Violations lists every violation.
func (c *Counter) CollectViolations(m timing.Model) *Counter {
	c.checker = m.NewCollectingChecker(c.numProcs)
	return c
}

var _ model.StepObserver = (*Counter)(nil)

// ObserveStep consumes one executed step.
func (c *Counter) ObserveStep(s model.Step) {
	if c.invalid == nil {
		c.invalid = model.ValidateStep(&s, c.steps, c.prev, c.numProcs, c.numPorts)
		c.prev = s.Time
	}
	c.steps++
	if c.checker != nil {
		c.checker.ObserveStep(s)
	}
	if s.Proc >= 0 && s.Proc < c.numProcs {
		if gap := s.Time.Sub(c.last[s.Proc]); gap > c.gamma {
			c.gamma = gap
		}
		c.last[s.Proc] = s.Time
		if !c.procSeen[s.Proc] {
			c.procSeen[s.Proc] = true
			c.procCount++
			if c.procCount == c.numProcs {
				c.rounds++
				for i := range c.procSeen {
					c.procSeen[i] = false
				}
				c.procCount = 0
			}
		}
	}
	if s.Port != model.NoPort && s.Port >= 0 && s.Port < c.numPorts && !c.portSeen[s.Port] {
		if c.portCount == 0 {
			c.firstStep = s.Index
			c.firstAt = s.Time
		}
		c.portSeen[s.Port] = true
		c.portCount++
		if c.portCount == c.numPorts {
			c.spans = append(c.spans, trace.SessionSpan{
				Index:     len(c.spans) + 1,
				FirstStep: c.firstStep,
				LastStep:  s.Index,
				Start:     c.firstAt,
				End:       s.Time,
			})
			for i := range c.portSeen {
				c.portSeen[i] = false
			}
			c.portCount = 0
		}
	}
}

// ObserveDelay consumes one message transit interval (message-passing runs;
// satisfies mp.DelayObserver).
func (c *Counter) ObserveDelay(d timing.MessageDelay) {
	if c.checker != nil {
		c.checker.ObserveDelay(d)
	}
}

// Sessions returns the number of completed disjoint sessions observed.
func (c *Counter) Sessions() int { return len(c.spans) }

// Rounds returns the number of completed disjoint rounds observed.
func (c *Counter) Rounds() int { return c.rounds }

// Gamma returns the largest step gap of any regular process (including the
// gap from time 0 to each process's first step).
func (c *Counter) Gamma() sim.Duration { return c.gamma }

// Steps returns the total number of observed steps (network deliveries
// included).
func (c *Counter) Steps() int { return c.steps }

// Spans returns the greedy session decomposition (trace.Sessions semantics).
// The slice is owned by the counter.
func (c *Counter) Spans() []trace.SessionSpan { return c.spans }

// Err returns what timing.Model.CheckAdmissible would for the observed
// stream: a malformed step first ("trace invalid: …"), else the checker's
// first violation, else nil. Without an attached checker only malformed
// steps are reported.
func (c *Counter) Err() error {
	if c.invalid != nil {
		return fmt.Errorf("trace invalid: %w", c.invalid)
	}
	if c.checker == nil {
		return nil
	}
	return c.checker.Err()
}

// Violations returns what timing.Model.AdmissibilityViolations would for
// the observed stream: for a malformed stream, only the error Err reports
// for it; else every violation a CollectViolations checker recorded (nil
// when there were none).
func (c *Counter) Violations() ([]timing.Violation, error) {
	if c.invalid != nil {
		return nil, c.Err()
	}
	if c.checker == nil {
		return nil, nil
	}
	return c.checker.Violations(), nil
}
