// Package synchronous implements the no-communication algorithm for the
// synchronous model [2]: every port process simply takes s steps at its own
// port and enters an idle state. Lockstep timing (every gap exactly c2)
// makes each wave of i-th steps a session, so no communication is needed —
// this is the baseline that exhibits the synchronous row of Table 1
// (L = U = s*c2).
//
// The algorithm is correct only under the synchronous model; running it
// under any weaker model is expected to violate the session condition, which
// the lower-bound experiments exploit as a "too fast" victim algorithm.
package synchronous

import (
	"sessionproblem/internal/core"
	"sessionproblem/internal/model"
	"sessionproblem/internal/mp"
	"sessionproblem/internal/sm"
	"sessionproblem/internal/timing"
)

// SM is the shared-memory synchronous algorithm.
type SM struct{}

var _ core.SMAlgorithm = SM{}

// NewSM returns the shared-memory synchronous algorithm.
func NewSM() SM { return SM{} }

// Name implements core.SMAlgorithm.
func (SM) Name() string { return "synchronous" }

// BuildSM constructs n port processes, each stepping s times on its own
// port variable.
func (SM) BuildSM(spec core.Spec, _ timing.Model) (*sm.System, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	b := spec.B
	if b == 0 {
		b = 2
	}
	sys := &sm.System{B: b, NumVars: spec.N}
	for i := 0; i < spec.N; i++ {
		v := model.VarID(i)
		sys.Procs = append(sys.Procs, &stepper{v: v, left: spec.S})
		sys.Ports = append(sys.Ports, sm.PortBinding{Var: v, Proc: i})
	}
	return sys, nil
}

// stepper takes a fixed number of steps on one variable, then idles.
type stepper struct {
	v    model.VarID
	left int
}

func (st *stepper) Target() model.VarID { return st.v }

func (st *stepper) Step(old sm.Value) sm.Value {
	if st.left == 0 {
		return old
	}
	st.left--
	n, _ := old.(int)
	return n + 1
}

func (st *stepper) Idle() bool { return st.left == 0 }

// MP is the message-passing synchronous algorithm.
type MP struct{}

var _ core.MPAlgorithm = MP{}

// NewMP returns the message-passing synchronous algorithm.
func NewMP() MP { return MP{} }

// Name implements core.MPAlgorithm.
func (MP) Name() string { return "synchronous" }

// BuildMP constructs n silent port processes, each stepping s times.
func (MP) BuildMP(spec core.Spec, _ timing.Model) (*mp.System, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sys := &mp.System{}
	for i := 0; i < spec.N; i++ {
		sys.Procs = append(sys.Procs, &silent{left: spec.S})
		sys.PortProcs = append(sys.PortProcs, i)
	}
	return sys, nil
}

// silent takes a fixed number of steps without communicating, then idles.
type silent struct{ left int }

func (s *silent) Step([]mp.Message) any {
	if s.left > 0 {
		s.left--
	}
	return nil
}

func (s *silent) Idle() bool { return s.left == 0 }
