// Package async implements the asynchronous-model session algorithms.
//
// Shared memory ([2], Arjomandi-Fischer-Lynch style): with no timing
// information at all, a process must confirm every session through
// communication. Each port process announces progress k at its k-th counted
// port access, then keeps reading its port variable until the relay tree
// (internal/tree) shows every port at progress >= k before advancing. After
// confirming s-1 sessions it takes one final port step and idles, for
// (s-1)*O(log_b n) rounds.
//
// Message passing ([4] style, equivalently A(sp) with only its condition 1):
// each process broadcasts its session counter at every step and advances the
// counter when it has heard a message with value >= session from every
// process. It idles on reaching s-1 — the step at which it receives the
// triggering messages is itself the extra step that completes the s-th
// session (Lemma 6.3's argument), for (s-1)*(d2+c2)+c2 time.
//
// Faithfulness note: the paper's condition 1 tests "m(j, session) is in
// msg_buf" over an ever-growing message set. Since session values climb
// through every integer and msg_buf only accumulates, that is equivalent to
// tracking the maximum value heard per sender, which is what Confirmer and
// MPPort store.
package async

import (
	"sessionproblem/internal/core"
	"sessionproblem/internal/model"
	"sessionproblem/internal/mp"
	"sessionproblem/internal/sm"
	"sessionproblem/internal/timing"
	"sessionproblem/internal/tree"
)

// SM is the asynchronous shared-memory algorithm.
type SM struct{}

var _ core.SMAlgorithm = SM{}

// NewSM returns the asynchronous shared-memory algorithm.
func NewSM() SM { return SM{} }

// Name implements core.SMAlgorithm.
func (SM) Name() string { return "asynchronous" }

// BuildSM constructs confirmer ports over the relay tree.
func (SM) BuildSM(spec core.Spec, _ timing.Model) (*sm.System, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	b := spec.B
	if b == 0 {
		b = 2
	}
	nw, err := tree.Build(spec.N, b, 0, spec.S)
	if err != nil {
		return nil, err
	}
	sys := &sm.System{B: b, NumVars: int(nw.NextVar), Recycle: nw.Pool.Recycle}
	for i := 0; i < spec.N; i++ {
		c := NewConfirmer(i, spec.N, spec.S, nw.PortVars[i])
		c.SetPool(nw.Pool)
		sys.Procs = append(sys.Procs, c)
		sys.Ports = append(sys.Ports, sm.PortBinding{Var: nw.PortVars[i], Proc: i})
	}
	sys.Procs = append(sys.Procs, nw.Processes()...)
	return sys, nil
}

// Confirmer is a port process that advances its announced progress only
// after the tree knowledge confirms every port reached the current value.
// It is shared with the semi-synchronous algorithm's communicate mode.
type Confirmer struct {
	port, n, s int
	v          model.VarID
	know       tree.Knowledge
	seen       tree.Seen // the snapshot in v when last stepped
	progress   int
	idle       bool
	pool       *tree.Pool
}

var _ sm.Process = (*Confirmer)(nil)

// NewConfirmer builds a confirmer port process writing to variable v.
func NewConfirmer(port, n, s int, v model.VarID) *Confirmer {
	return &Confirmer{port: port, n: n, s: s, v: v, know: tree.NewKnowledge(n)}
}

// SetPool routes the confirmer's published snapshots through pool.
func (c *Confirmer) SetPool(pool *tree.Pool) { c.pool = pool }

// Target implements sm.Process.
func (c *Confirmer) Target() model.VarID { return c.v }

// Step implements sm.Process: merge, maybe advance, announce. The
// announcement is lazy: when the step neither learned nor advanced
// anything, the variable's current cell (already merged) stays in place
// and no snapshot is cloned. A cell still holding the snapshot the
// confirmer last read or wrote is not merged again.
func (c *Confirmer) Step(old sm.Value) sm.Value {
	if c.idle {
		return old
	}
	changed := c.seen.Merge(&c.know, old)
	switch {
	case c.progress == 0:
		// First port access: contributes to session 1.
		c.progress = 1
		if c.s == 1 {
			c.idle = true
		}
	case c.progress < c.s-1 && c.know.AllAtLeast(c.n, c.progress):
		// Session c.progress confirmed; this step contributes to the next.
		c.progress++
	case c.progress == c.s-1 && c.know.AllAtLeast(c.n, c.s-1):
		// Final session: one more port step after everyone confirmed s-1.
		c.progress = c.s
		c.idle = true
	}
	if c.progress > c.know.At(c.port) {
		c.know.Raise(c.port, c.progress)
		changed = true
	}
	if !changed {
		return old
	}
	return c.seen.Publish(c.know, c.pool)
}

// Idle implements sm.Process.
func (c *Confirmer) Idle() bool { return c.idle }

// Progress exposes the announced progress (for tests).
func (c *Confirmer) Progress() int { return c.progress }

// MP is the asynchronous message-passing algorithm.
type MP struct{}

var _ core.MPAlgorithm = MP{}

// NewMP returns the asynchronous message-passing algorithm.
func NewMP() MP { return MP{} }

// Name implements core.MPAlgorithm.
func (MP) Name() string { return "asynchronous" }

// BuildMP constructs the n session-confirming port processes.
func (MP) BuildMP(spec core.Spec, _ timing.Model) (*mp.System, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sys := &mp.System{}
	for i := 0; i < spec.N; i++ {
		sys.Procs = append(sys.Procs, NewMPPort(i, spec.N, spec.S))
		sys.PortProcs = append(sys.PortProcs, i)
	}
	return sys, nil
}

// SessionMsg is the message body broadcast at every step: the sender's
// identifier and current session counter (the paper's m(i, V)).
type SessionMsg struct {
	I int
	V int
}

// MPPort is the message-passing confirmer process, shared with the
// semi-synchronous algorithm's communicate mode.
type MPPort struct {
	i, n, s  int
	session  int
	heard    []int // max session value received per sender; -1 = nothing
	idle     bool
	steps    int
	advances []int // own-step ordinal at which session reached value k+1
}

var _ mp.Process = (*MPPort)(nil)

// NewMPPort builds port process i of n requiring s sessions.
func NewMPPort(i, n, s int) *MPPort {
	heard := make([]int, n)
	for j := range heard {
		heard[j] = -1
	}
	return &MPPort{i: i, n: n, s: s, heard: heard}
}

// Step implements mp.Process.
func (p *MPPort) Step(received []mp.Message) any {
	if p.idle {
		return nil
	}
	p.steps++
	for _, m := range received {
		if sm, ok := m.Body.(SessionMsg); ok && sm.V > p.heard[sm.I] {
			p.heard[sm.I] = sm.V
		}
	}
	if p.session < p.s-1 && p.allHeard(p.session) {
		p.session++
		p.advances = append(p.advances, p.steps)
	}
	if p.session >= p.s-1 {
		p.idle = true
	}
	return SessionMsg{I: p.i, V: p.session}
}

// Advances returns, for each session value v = 1, 2, ..., the 1-based
// ordinal of the process's own step at which its counter reached v (used by
// the causal-coverage analysis).
func (p *MPPort) Advances() []int { return p.advances }

func (p *MPPort) allHeard(v int) bool {
	for _, h := range p.heard {
		if h < v {
			return false
		}
	}
	return true
}

// Idle implements mp.Process.
func (p *MPPort) Idle() bool { return p.idle }

// Session exposes the session counter (for tests).
func (p *MPPort) Session() int { return p.session }
