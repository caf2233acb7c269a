// Package model defines the formal objects from Section 2 of the paper:
// steps, computations, timed computations, rounds, and sessions. Both the
// shared-memory and the message-passing simulators emit traces in this
// vocabulary, so session counting, round counting, admissibility checking
// and the lower-bound adversary constructions all operate on one
// representation.
package model

import (
	"fmt"
	"reflect"

	"sessionproblem/internal/sim"
)

// VarID identifies a shared variable. In the message-passing model the
// pseudo-variables net and buf_p also receive IDs, following the paper's
// encoding of the network as shared state.
type VarID int

// NetworkProc is the process index used for steps of the network N in the
// message-passing model. Regular processes are numbered from 0.
const NetworkProc = -1

// NoPort marks a step that is not a port step.
const NoPort = -1

// Value is the contents of a shared variable at some instant. Values are
// compared with reflect.DeepEqual in consistency checks, so they should be
// plain data (ints, strings, small structs, slices).
type Value any

// VarAccess records one variable touched by a step, with the value before
// and after. Shared-memory steps have exactly one access; message-passing
// steps have two (buf_p and net), per Section 2.1.2.
type VarAccess struct {
	Var VarID
	Old Value
	New Value
}

// Step is one step of a timed computation: which process moved, when, which
// variables it touched, and whether it was a port step (and for which port).
type Step struct {
	Index    int         // position in the computation, 0-based
	Proc     int         // process index, or NetworkProc
	Time     sim.Time    // T(π)
	Accesses []VarAccess // variables involved
	Port     int         // port index in [0,n) if a port step, else NoPort
}

// IsPortStep reports whether the step is a port step.
func (s Step) IsPortStep() bool { return s.Port != NoPort }

// StepObserver consumes executed steps online, in execution order, as the
// executors produce them. It is the hook behind online certification:
// every verified run counts sessions incrementally through an observer, and
// trace-free runs never materialize Trace.Steps. Under discarded-step runs
// the observed steps carry no Accesses.
type StepObserver interface {
	ObserveStep(s Step)
}

// Touches reports whether the step accesses variable v.
func (s Step) Touches(v VarID) bool {
	for _, a := range s.Accesses {
		if a.Var == v {
			return true
		}
	}
	return false
}

// String renders a compact human-readable form.
func (s Step) String() string {
	port := ""
	if s.IsPortStep() {
		port = fmt.Sprintf(" port=%d", s.Port)
	}
	return fmt.Sprintf("step{#%d p%d t=%v%s}", s.Index, s.Proc, s.Time, port)
}

// Trace is a timed computation: the ordered step sequence plus metadata
// identifying the process and port structure of the system that produced it.
type Trace struct {
	Steps []Step

	// NumProcs is the number of regular processes (the network process in
	// the MP model is not counted).
	NumProcs int

	// NumPorts is n, the size of the distinguished port set.
	NumPorts int
}

// Validate checks internal consistency: step indices are sequential, times
// are nondecreasing, process indices are in range, and port indices are in
// [0, NumPorts).
func (tr *Trace) Validate() error {
	var prev sim.Time
	for i := range tr.Steps {
		if err := ValidateStep(&tr.Steps[i], i, prev, tr.NumProcs, tr.NumPorts); err != nil {
			return err
		}
		prev = tr.Steps[i].Time
	}
	return nil
}

// ValidateStep applies Validate's per-step checks to s, the i-th step of a
// computation over numProcs processes and numPorts ports whose previous
// step ran at prev (0 for the first step). Streaming certifiers call it one
// step at a time.
func ValidateStep(s *Step, i int, prev sim.Time, numProcs, numPorts int) error {
	if s.Index != i {
		return fmt.Errorf("step %d has index %d", i, s.Index)
	}
	if s.Time < prev {
		return fmt.Errorf("step %d: time %v decreases below %v", i, s.Time, prev)
	}
	if s.Proc != NetworkProc && (s.Proc < 0 || s.Proc >= numProcs) {
		return fmt.Errorf("step %d: process %d out of range [0,%d)", i, s.Proc, numProcs)
	}
	if s.Port != NoPort && (s.Port < 0 || s.Port >= numPorts) {
		return fmt.Errorf("step %d: port %d out of range [0,%d)", i, s.Port, numPorts)
	}
	return nil
}

// CountSessions returns the maximum number of disjoint sessions in the
// trace: the greedy left-to-right decomposition that closes a session as
// soon as all NumPorts ports have been seen. Greedy is optimal for this
// maximization (any decomposition's k-th session boundary can only be moved
// earlier, never later, by the exchange argument), which the tests verify
// against a brute-force search on small traces.
func (tr *Trace) CountSessions() int {
	if tr.NumPorts == 0 {
		return 0
	}
	sessions := 0
	seen := make([]bool, tr.NumPorts)
	count := 0
	for _, s := range tr.Steps {
		if !s.IsPortStep() || seen[s.Port] {
			continue
		}
		seen[s.Port] = true
		count++
		if count == tr.NumPorts {
			sessions++
			for i := range seen {
				seen[i] = false
			}
			count = 0
		}
	}
	return sessions
}

// CountRounds returns the maximum number of disjoint rounds: minimal
// fragments in which every regular process takes at least one step. Network
// steps do not count toward rounds.
func (tr *Trace) CountRounds() int {
	if tr.NumProcs == 0 {
		return 0
	}
	rounds := 0
	seen := make([]bool, tr.NumProcs)
	count := 0
	for _, s := range tr.Steps {
		if s.Proc == NetworkProc || seen[s.Proc] {
			continue
		}
		seen[s.Proc] = true
		count++
		if count == tr.NumProcs {
			rounds++
			for i := range seen {
				seen[i] = false
			}
			count = 0
		}
	}
	return rounds
}

// RoundsBefore returns the number of disjoint rounds in the prefix of the
// trace strictly before time t. This implements the paper's running-time
// measure for the round-based models: "the prefix of C before all processes
// are idle consists of at most r disjoint rounds".
func (tr *Trace) RoundsBefore(t sim.Time) int {
	prefix := Trace{NumProcs: tr.NumProcs, NumPorts: tr.NumPorts}
	for _, s := range tr.Steps {
		if s.Time >= t {
			break
		}
		prefix.Steps = append(prefix.Steps, s)
	}
	return prefix.CountRounds()
}

// FinishTime returns the time of the last step, or 0 for an empty trace.
func (tr *Trace) FinishTime() sim.Time {
	if len(tr.Steps) == 0 {
		return 0
	}
	return tr.Steps[len(tr.Steps)-1].Time
}

// MaxStepGap returns γ for the given process: the largest time between its
// consecutive steps (including the gap from time 0 to its first step). It
// returns 0 if the process takes fewer than one step.
func (tr *Trace) MaxStepGap(proc int) sim.Duration {
	var gamma sim.Duration
	last := sim.Time(0)
	taken := false
	for _, s := range tr.Steps {
		if s.Proc != proc {
			continue
		}
		gap := s.Time.Sub(last)
		if !taken || gap > gamma {
			// The first gap (from time 0) also counts: the paper assumes
			// all steps, including the first, obey the timing constraints
			// starting at time 0.
			gamma = sim.MaxDuration(gamma, gap)
		}
		last = s.Time
		taken = true
	}
	return gamma
}

// Gamma returns the largest step time of any regular process before the
// given time bound (the per-computation parameter γ from Section 2.3).
// Passing the trace's FinishTime covers the whole computation.
//
// Equivalent to maximizing MaxStepGap over all processes, but in one pass
// over the trace with per-process last-step times instead of one pass per
// process: the gap from time 0 to a process's first step counts, and
// processes that never step contribute nothing.
func (tr *Trace) Gamma() sim.Duration {
	if tr.NumProcs == 0 {
		return 0
	}
	last := make([]sim.Time, tr.NumProcs)
	var gamma sim.Duration
	for i := range tr.Steps {
		s := &tr.Steps[i]
		if s.Proc < 0 || s.Proc >= tr.NumProcs {
			continue // network steps
		}
		if gap := s.Time.Sub(last[s.Proc]); gap > gamma {
			gamma = gap
		}
		last[s.Proc] = s.Time
	}
	return gamma
}

// StepsOf returns the indices of all steps taken by proc, in order.
func (tr *Trace) StepsOf(proc int) []int {
	var out []int
	for i, s := range tr.Steps {
		if s.Proc == proc {
			out = append(out, i)
		}
	}
	return out
}

// DependsDirect reports whether two steps are directly dependent in the
// sense of Theorem 5.1's partial order: they involve the same process or
// access a common variable. The order additionally requires a to precede b
// in the computation; callers compare indices.
func DependsDirect(a, b Step) bool {
	if a.Proc == b.Proc {
		return true
	}
	for _, aa := range a.Accesses {
		for _, ba := range b.Accesses {
			if aa.Var == ba.Var {
				return true
			}
		}
	}
	return false
}

// SameProjection reports whether two step sequences are permutations of each
// other that preserve (1) the order of steps of every process and (2) the
// order of accesses to every variable. By Claim 5.2 this implies both lead
// the system to the same global state.
func SameProjection(a, b []Step) bool {
	if len(a) != len(b) {
		return false
	}
	if !sameKeyedOrder(a, b, func(s Step) []int { return []int{s.Proc} }) {
		return false
	}
	varsOf := func(s Step) []int {
		out := make([]int, 0, len(s.Accesses))
		for _, acc := range s.Accesses {
			out = append(out, int(acc.Var))
		}
		return out
	}
	return sameKeyedOrder(a, b, varsOf)
}

// sameKeyedOrder checks that for every key produced by keysOf, the
// subsequence of steps carrying that key is identical (by deep equality,
// ignoring Index and Time, which reorderings legitimately change) in a and b.
func sameKeyedOrder(a, b []Step, keysOf func(Step) []int) bool {
	project := func(steps []Step) map[int][]Step {
		m := make(map[int][]Step)
		for _, s := range steps {
			for _, k := range keysOf(s) {
				m[k] = append(m[k], s)
			}
		}
		return m
	}
	pa, pb := project(a), project(b)
	if len(pa) != len(pb) {
		return false
	}
	for k, sa := range pa {
		sb, ok := pb[k]
		if !ok || len(sa) != len(sb) {
			return false
		}
		for i := range sa {
			if !stepsEquivalent(sa[i], sb[i]) {
				return false
			}
		}
	}
	return true
}

// stepsEquivalent compares two steps ignoring Index and Time.
func stepsEquivalent(a, b Step) bool {
	if a.Proc != b.Proc || a.Port != b.Port || len(a.Accesses) != len(b.Accesses) {
		return false
	}
	for i := range a.Accesses {
		if a.Accesses[i].Var != b.Accesses[i].Var {
			return false
		}
		if !reflect.DeepEqual(a.Accesses[i].Old, b.Accesses[i].Old) {
			return false
		}
		if !reflect.DeepEqual(a.Accesses[i].New, b.Accesses[i].New) {
			return false
		}
	}
	return true
}

// FinalValues replays the write sequence of the trace and returns the last
// value written to each variable (variables never written are absent).
func (tr *Trace) FinalValues() map[VarID]Value {
	out := make(map[VarID]Value)
	for _, s := range tr.Steps {
		for _, a := range s.Accesses {
			out[a.Var] = a.New
		}
	}
	return out
}
