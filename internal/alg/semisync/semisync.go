// Package semisync implements the semi-synchronous session algorithm
// (Section 5, adapting [4]). Knowing c1 and c2 gives a process two ways to
// certify a session, and it picks the cheaper one from the known constants:
//
//   - Step counting: taking W = floor(c2/c1)+1 of its own steps spans more
//     than c2 time, during which every other process must take a step; so W
//     steps per session need no communication at all. Per-session cost
//     W*c2.
//   - Communicating: confirm each session the way the asynchronous
//     algorithm does. Per-session cost O(log_b n)*c2 in shared memory
//     (relay tree), d2+c2 in message passing.
//
// The resulting running time is the min-expression in Table 1's
// semi-synchronous row. The harness's ablation benches force each mode to
// show the min is real.
package semisync

import (
	"sessionproblem/internal/alg/async"
	"sessionproblem/internal/bounds"
	"sessionproblem/internal/core"
	"sessionproblem/internal/model"
	"sessionproblem/internal/mp"
	"sessionproblem/internal/sm"
	"sessionproblem/internal/timing"
)

// Mode selects how sessions are certified.
type Mode int

// Modes. Auto picks the cheaper of the other two from the model constants.
const (
	Auto Mode = iota
	ForceStepCount
	ForceCommunicate
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Auto:
		return "auto"
	case ForceStepCount:
		return "step-count"
	case ForceCommunicate:
		return "communicate"
	default:
		return "unknown"
	}
}

// stepsPerSession returns W = floor(c2/c1) + 1, the number of own steps
// whose span must exceed c2.
func stepsPerSession(m timing.Model) int {
	return int(m.C2/m.C1) + 1
}

// SM is the semi-synchronous shared-memory algorithm.
type SM struct {
	mode Mode
}

var _ core.SMAlgorithm = SM{}

// NewSM returns the shared-memory algorithm; mode Auto chooses per the
// known constants.
func NewSM(mode Mode) SM { return SM{mode: mode} }

// Name implements core.SMAlgorithm.
func (a SM) Name() string { return "semi-synchronous(" + a.mode.String() + ")" }

// BuildSM constructs either step-counting ports (no relays) or the
// tree-confirmed system, whichever the mode dictates.
func (a SM) BuildSM(spec core.Spec, m timing.Model) (*sm.System, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if m.C1 <= 0 || m.C2 <= 0 || m.C2.IsInfinite() {
		return nil, errBadModel(m)
	}
	b := spec.B
	if b == 0 {
		b = 2
	}
	w := stepsPerSession(m)
	mode := a.mode
	if mode == Auto {
		if w <= bounds.CommSteps(spec.N, b) {
			mode = ForceStepCount
		} else {
			mode = ForceCommunicate
		}
	}
	if mode == ForceCommunicate {
		specB := spec
		specB.B = b
		return async.NewSM().BuildSM(specB, m)
	}
	// Step counting: every process takes (s-1)*W + 1 port steps and idles.
	sys := &sm.System{B: b, NumVars: spec.N}
	for i := 0; i < spec.N; i++ {
		v := model.VarID(i)
		sys.Procs = append(sys.Procs, &stepCounter{v: v, left: (spec.S-1)*w + 1})
		sys.Ports = append(sys.Ports, sm.PortBinding{Var: v, Proc: i})
	}
	return sys, nil
}

// stepCounter takes a fixed number of steps on its own port, then idles.
type stepCounter struct {
	v    model.VarID
	left int
}

func (st *stepCounter) Target() model.VarID { return st.v }

func (st *stepCounter) Step(old sm.Value) sm.Value {
	if st.left == 0 {
		return old
	}
	st.left--
	n, _ := old.(int)
	return n + 1
}

func (st *stepCounter) Idle() bool { return st.left == 0 }

// MP is the semi-synchronous message-passing algorithm.
type MP struct {
	mode Mode
}

var _ core.MPAlgorithm = MP{}

// NewMP returns the message-passing algorithm; mode Auto chooses per the
// known constants.
func NewMP(mode Mode) MP { return MP{mode: mode} }

// Name implements core.MPAlgorithm.
func (a MP) Name() string { return "semi-synchronous(" + a.mode.String() + ")" }

// BuildMP constructs either silent step-counting processes or the
// communicate-mode (asynchronous-style) system.
func (a MP) BuildMP(spec core.Spec, m timing.Model) (*mp.System, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if m.C1 <= 0 || m.C2 <= 0 || m.C2.IsInfinite() {
		return nil, errBadModel(m)
	}
	w := stepsPerSession(m)
	mode := a.mode
	if mode == Auto {
		// Per-session costs: W*c2 for step counting vs d2+c2 for
		// communicating.
		if int64(w)*int64(m.C2) <= int64(m.D2)+int64(m.C2) {
			mode = ForceStepCount
		} else {
			mode = ForceCommunicate
		}
	}
	if mode == ForceCommunicate {
		return async.NewMP().BuildMP(spec, m)
	}
	sys := &mp.System{}
	for i := 0; i < spec.N; i++ {
		sys.Procs = append(sys.Procs, &silentCounter{left: (spec.S-1)*w + 1})
		sys.PortProcs = append(sys.PortProcs, i)
	}
	return sys, nil
}

// silentCounter takes a fixed number of steps without communicating.
type silentCounter struct{ left int }

func (s *silentCounter) Step([]mp.Message) any {
	if s.left > 0 {
		s.left--
	}
	return nil
}

func (s *silentCounter) Idle() bool { return s.left == 0 }

type modelError struct{ m timing.Model }

func errBadModel(m timing.Model) error { return modelError{m: m} }

func (e modelError) Error() string {
	return "semisync: model must have finite 0 < c1 <= c2, got [" +
		e.m.C1.String() + "," + e.m.C2.String() + "]"
}
