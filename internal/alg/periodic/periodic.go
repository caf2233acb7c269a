// Package periodic implements the paper's algorithm A(p) for the periodic
// model (Section 4): each port process accesses its own port s-1 times, at
// its (s-1)-th step broadcasts that fact, and enters an idle state after it
// hears that all processes have taken s-1 steps and it has taken at least
// one more port step.
//
// Correctness relies on the periodic timing constraint: every process steps
// at a constant (unknown) period at most cmax, so every interval of length
// cmax contains a step of every process, giving one session per cmax until
// the broadcast-and-confirm completes the final session.
//
// In the shared-memory variant the broadcast is the Section-3 relay tree
// (internal/tree): the port process announces its progress in its own port
// variable and the tree spreads it, costing O(log_b n) extra step-times
// (Theorem 4.1). In the message-passing variant the network broadcasts
// directly, costing d2.
package periodic

import (
	"sessionproblem/internal/core"
	"sessionproblem/internal/model"
	"sessionproblem/internal/mp"
	"sessionproblem/internal/sm"
	"sessionproblem/internal/timing"
	"sessionproblem/internal/tree"
)

// SM is algorithm A(p) in the shared-memory model.
type SM struct{}

var _ core.SMAlgorithm = SM{}

// NewSM returns A(p) for shared memory.
func NewSM() SM { return SM{} }

// Name implements core.SMAlgorithm.
func (SM) Name() string { return "periodic A(p)" }

// BuildSM constructs the port processes and the relay tree.
func (SM) BuildSM(spec core.Spec, _ timing.Model) (*sm.System, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	b := spec.B
	if b == 0 {
		b = 2
	}
	// Relays may shut down once every port has announced progress s (the
	// progress value written at a port's final, idling step).
	nw, err := tree.Build(spec.N, b, 0, spec.S)
	if err != nil {
		return nil, err
	}
	sys := &sm.System{B: b, NumVars: int(nw.NextVar), Recycle: nw.Pool.Recycle}
	for i := 0; i < spec.N; i++ {
		p := newSMPort(i, spec.N, spec.S, nw.PortVars[i])
		p.pool = nw.Pool
		sys.Procs = append(sys.Procs, p)
		sys.Ports = append(sys.Ports, sm.PortBinding{Var: nw.PortVars[i], Proc: i})
	}
	sys.Procs = append(sys.Procs, nw.Processes()...)
	return sys, nil
}

// smPort is a port process of A(p) in shared memory. Every one of its steps
// accesses its own port variable: it merges the knowledge the leaf relay has
// deposited there (unless the variable still holds the port's own last
// snapshot), announces its own step count, and idles at the first step that
// both (a) follows hearing that everyone reached s-1 steps and (b) is at
// least its s-th own step.
type smPort struct {
	port, n, s int
	v          model.VarID
	know       tree.Knowledge
	seen       tree.Seen // the snapshot in v when last stepped
	steps      int
	idle       bool
	pool       *tree.Pool
}

var _ sm.Process = (*smPort)(nil)

func newSMPort(port, n, s int, v model.VarID) *smPort {
	return &smPort{port: port, n: n, s: s, v: v, know: tree.NewKnowledge(n)}
}

func (p *smPort) Target() model.VarID { return p.v }

func (p *smPort) Step(old sm.Value) sm.Value {
	if p.idle {
		return old
	}
	p.seen.Merge(&p.know, old)
	p.steps++
	p.know.Raise(p.port, p.steps)
	// The current step counts as the "one more port step" when the merged
	// knowledge (which predates this step for every other port) already
	// certifies that everyone has taken s-1 steps.
	if p.steps >= p.s && p.know.AllAtLeast(p.n, p.s-1) {
		p.idle = true
	}
	return p.seen.Publish(p.know, p.pool)
}

func (p *smPort) Idle() bool { return p.idle }

// MP is algorithm A(p) in the message-passing model.
type MP struct{}

var _ core.MPAlgorithm = MP{}

// NewMP returns A(p) for message passing.
func NewMP() MP { return MP{} }

// Name implements core.MPAlgorithm.
func (MP) Name() string { return "periodic A(p)" }

// BuildMP constructs the n port processes.
func (MP) BuildMP(spec core.Spec, _ timing.Model) (*mp.System, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sys := &mp.System{}
	for i := 0; i < spec.N; i++ {
		sys.Procs = append(sys.Procs, &mpPort{n: spec.N, s: spec.S, heard: make(map[int]bool)})
		sys.PortProcs = append(sys.PortProcs, i)
	}
	return sys, nil
}

// doneMsg announces that the sender has taken s-1 steps.
type doneMsg struct{}

// mpPort is a port process of A(p) in message passing: it counts its own
// steps, broadcasts once at its announce step, and idles at the first step
// that is at least its s-th and at which it has heard the announcement from
// every process (its own included, via the network).
type mpPort struct {
	n, s  int
	steps int
	heard map[int]bool
	idle  bool
}

var _ mp.Process = (*mpPort)(nil)

func (p *mpPort) Step(received []mp.Message) any {
	if p.idle {
		return nil
	}
	for _, m := range received {
		if _, ok := m.Body.(doneMsg); ok {
			p.heard[m.From] = true
		}
	}
	p.steps++
	if p.steps >= p.s && len(p.heard) == p.n {
		p.idle = true
	}
	// "At its s-1-th step, broadcasts the fact." For s == 1 the announce
	// step is the first step.
	announceAt := p.s - 1
	if announceAt < 1 {
		announceAt = 1
	}
	if p.steps == announceAt {
		return doneMsg{}
	}
	return nil
}

func (p *mpPort) Idle() bool { return p.idle }
