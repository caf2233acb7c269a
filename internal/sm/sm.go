// Package sm implements the shared-memory system of Section 2.1.1: processes
// communicate only through shared variables, each step atomically
// read-modify-writes exactly one variable, and no variable is accessed by
// more than b distinct processes over the whole computation (the b-bound).
//
// The executor turns an algorithm (a set of Process implementations) plus a
// timing.Scheduler into a timed computation recorded as a model.Trace.
package sm

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"sessionproblem/internal/arena"
	"sessionproblem/internal/fault"
	"sessionproblem/internal/model"
	"sessionproblem/internal/sim"
)

// Value is the contents of a shared variable.
type Value = model.Value

// Process is one shared-memory process. The executor drives it:
// at each of its steps it asks Target() for the variable to access, performs
// the atomic read-modify-write by calling Step with the current value, then
// writes back the returned value. Implementations must treat values as
// immutable (return fresh values rather than mutating the old one) and must
// keep Idle stable: once true, Step must return its argument unchanged and
// Idle must stay true.
type Process interface {
	// Target returns the variable this process will access at its next step.
	Target() model.VarID
	// Step performs the read-modify-write: it observes old and returns the
	// new value for the target variable (possibly old itself, unchanged).
	Step(old Value) Value
	// Idle reports whether the process has entered an idle state.
	Idle() bool
}

// PortBinding associates a port variable with its unique port process.
type PortBinding struct {
	Var  model.VarID
	Proc int
}

// System is a complete shared-memory system: processes, initial variable
// values, the access bound b, and the distinguished ports.
type System struct {
	Procs   []Process
	Initial map[model.VarID]Value
	B       int
	Ports   []PortBinding
	// NumVars, when positive, declares that every variable ID lies in
	// [0, NumVars); the executor then finds variable v's slot (its value
	// and b-bound accessors, 32 bytes) at index v of a dense slice instead
	// of through a map, and rejects a step or initial value outside the
	// range. Large systems (million-port topologies) are infeasible without
	// it; small systems are free to leave it zero.
	NumVars int
	// Recycle, when non-nil, is invoked by the executor as a variable's value
	// is overwritten — but only on runs that discard recorded steps, carry no
	// fault injector and probe no idle processes, i.e. exactly when nothing
	// can retain the old value. Algorithms use it to return pooled snapshot
	// buffers (tree.Pool) so steady-state execution is allocation-free.
	Recycle func(old, new Value)
}

// Scratch holds every buffer the executor grows during a run: the event
// queue, the recorded steps and their access-record arena, the per-process
// bookkeeping and the variable slots. Reusing a Scratch across runs
// recycles all of that capacity, making steady-state execution
// allocation-free.
//
// Variable state lives in one []varSlot, 32 bytes per variable, so a step
// reads and writes its variable's value and accessor list on one cache
// line. With System.NumVars set, variable v is slot v; otherwise a map
// assigns slots in first-access order.
//
// Ownership contract: a Result produced with a given Scratch — including
// Trace, IdleAt and Crashed — aliases the scratch's memory and is valid
// only until the next run with the same Scratch. Callers that retain
// results must either copy them or run without a Scratch. Determinism is
// unaffected: reuse recycles backing arrays, never values — every field of
// every recorded step is written fresh by the run that produces it.
type Scratch struct {
	queue    sim.Queue
	steps    []model.Step
	accesses arena.Chunked[model.VarAccess]
	idleAt   []sim.Time
	crashed  []bool
	probes   []int
	portIdx  []int                   // proc -> port index, -1 = none
	portVar  []model.VarID           // proc -> port variable (valid when portIdx >= 0)
	portDup  []PortBinding           // rare: extra bindings for procs with several ports
	portDupI []int                   // port indices parallel to portDup
	slots    []varSlot               // variable state; see the type comment
	dense    bool                    // System.NumVars > 0: variable v is slot v
	slotOf   map[model.VarID]int     // variable -> slot index when System.NumVars == 0
	spill    map[model.VarID][]int32 // accessors past a slot's inline three (b >= 4 only)
	prevVals map[model.VarID]Value   // injected runs: each variable's pre-update value
	batch    []sim.Event             // tick-batch scratch for the dispatch loop
	// lastSteps is the step count of the previous run. Pooled scratches
	// detach the step and access buffers on release (a Result aliases them),
	// so this scalar is what carries the sizing knowledge across pool
	// cycles: the next run pre-sizes from the observed high-water mark
	// instead of the caller's worst-case hint.
	lastSteps int
}

// Options tune an execution.
type Options struct {
	// MaxSteps caps the number of process steps before the run is declared
	// non-terminating. Zero means the default of 1_000_000.
	MaxSteps int
	// ProbeSteps schedules this many extra steps for each process after it
	// goes idle, verifying idle stability (Idle stays true, shared state
	// unchanged). Probe steps are appended to the trace after IdleTime.
	ProbeSteps int
	// StepIdleProcesses keeps scheduling processes after they go idle, until
	// every process is idle. The formal model's computations give idle
	// processes infinitely many (no-op) steps; the lower-bound adversary
	// constructions need those steps in the trace to define rounds.
	StepIdleProcesses bool
	// Injector, when non-nil, is consulted once per popped step and may
	// crash the process, postpone the step beyond the model's bounds, or
	// make it observe a stale value. The fault-free path (nil Injector)
	// costs a single nil check per step. Applied faults are recorded in
	// Result.Faults; crashed processes count as settled for termination.
	Injector fault.Injector
	// Scratch, when non-nil, backs the run with reusable buffers; see the
	// Scratch ownership contract. Nil runs with fresh buffers.
	Scratch *Scratch
	// ExpectedSteps pre-sizes the trace (and the event queue) when the
	// scratch has no warm capacity yet. Zero means no pre-sizing. It is a
	// hint only: runs may exceed it freely.
	ExpectedSteps int
	// WindowHint is the timing model's maximum scheduling increment
	// (timing.Model.MaxIncrement); the calendar queue sizes its bucket
	// window from it so steady-state pushes never hit the overflow heap.
	// Zero leaves the queue's default window. It is a hint only: larger
	// increments (e.g. fault-injected restart pauses) still work, via the
	// overflow path.
	WindowHint sim.Duration
	// Observer, when non-nil, receives every executed step online, in
	// execution order, as it happens (streaming certification). With
	// DiscardSteps set the observed steps carry no access records.
	Observer model.StepObserver
	// DiscardSteps skips materializing Trace.Steps (and the per-step access
	// records): Result.Trace carries only the process/port counts.
	// Trace-free verified runs pair it with Observer so sessions are counted
	// online in O(ports) memory instead of O(steps). The executed schedule
	// is bit-identical either way.
	DiscardSteps bool
}

// Result is the outcome of one execution.
type Result struct {
	// Trace is the recorded timed computation.
	Trace *model.Trace
	// IdleAt[p] is the time of the step at which process p became idle.
	IdleAt []sim.Time
	// Finish is the earliest time by which every port process is idle: the
	// paper's running-time measure.
	Finish sim.Time
	// FinishAll is the earliest time by which every process (ports and
	// relays) is idle.
	FinishAll sim.Time
	// Faults records every fault the injector applied, in execution order.
	// Nil when no fault struck.
	Faults []fault.Event
	// Crashed[p] reports whether process p was permanently crashed.
	Crashed []bool
}

// ErrNoTermination is returned when the step cap is reached before all
// processes go idle.
var ErrNoTermination = errors.New("sm: step cap reached before all processes idle")

const defaultMaxSteps = 1_000_000

// Scheduler is the subset of timing.Scheduler the executor needs, allowing
// adversary packages to substitute hand-crafted schedules.
type Scheduler interface {
	// Gap returns the time to the process's next step (also used for the
	// initial gap from time 0 to the first step).
	Gap(proc int) sim.Duration
}

// Run executes the system until every process is idle, producing the timed
// computation. It enforces single-variable atomic steps and the b-bound.
func Run(sys *System, sched Scheduler, opts Options) (*Result, error) {
	return RunContext(context.Background(), sys, sched, opts)
}

// ctxCheckInterval is how many steps pass between context polls; a single
// step is microseconds, so this keeps cancellation latency well under a
// millisecond without an atomic load on the hot path of every step.
const ctxCheckInterval = 1024

// prepare resets the scratch for a run over np processes, pre-sizing fresh
// buffers from the hint when no warm capacity exists yet.
func (sc *Scratch) prepare(sys *System, opts *Options) error {
	np := len(sys.Procs)
	expectedSteps := opts.ExpectedSteps
	injected := opts.Injector != nil
	sc.queue.Reset()
	sc.queue.Reserve(np)
	if opts.WindowHint > 0 {
		sc.queue.SetWindow(opts.WindowHint)
	}
	if sc.lastSteps > 0 {
		// Observed size beats the caller's worst-case hint: short-lived
		// runs would otherwise pay a multi-kilobyte zeroed allocation for
		// a few dozen steps. The slack absorbs seed-to-seed variation;
		// append growth covers any remainder.
		expectedSteps = sc.lastSteps + sc.lastSteps/8 + 8
	}
	if opts.DiscardSteps {
		// Nothing is appended to the step or access buffers; pre-sizing
		// them would be the very O(steps) allocation streaming avoids.
		expectedSteps = 0
	}
	if sc.steps == nil && expectedSteps > 0 {
		sc.steps = make([]model.Step, 0, expectedSteps)
	}
	sc.steps = sc.steps[:0]
	sc.accesses.Reset()
	sc.accesses.Reserve(expectedSteps) // one access record per step

	sc.idleAt = arena.Resize(sc.idleAt, np)
	sc.crashed = arena.Resize(sc.crashed, np)
	sc.probes = arena.Resize(sc.probes, np)
	sc.portIdx = arena.Resize(sc.portIdx, np)
	sc.portVar = arena.Resize(sc.portVar, np)
	for i := 0; i < np; i++ {
		sc.idleAt[i] = -1
		sc.crashed[i] = false
		sc.probes[i] = 0
		sc.portIdx[i] = -1
		sc.portVar[i] = 0
	}
	sc.portDup = sc.portDup[:0]
	sc.portDupI = sc.portDupI[:0]
	for i, pb := range sys.Ports {
		if pb.Proc < 0 || pb.Proc >= np {
			// A binding whose process is out of range can never match a
			// popped step; skipping it preserves the old map semantics.
			continue
		}
		switch {
		case sc.portIdx[pb.Proc] < 0 || sc.portVar[pb.Proc] == pb.Var:
			sc.portIdx[pb.Proc] = i
			sc.portVar[pb.Proc] = pb.Var
		default:
			// A process with more than one port variable: keep the extras in
			// a (normally empty) overflow list scanned linearly.
			sc.portDup = append(sc.portDup, pb)
			sc.portDupI = append(sc.portDupI, i)
		}
	}

	// Zero the slots the previous run used. No slot past them holds
	// anything either (every run starts with this clear, and a run writes
	// only slots below its length), so a dense resize needs no second one.
	clear(sc.slots)
	sc.dense = sys.NumVars > 0
	if sc.dense {
		sc.slots = arena.Resize(sc.slots, sys.NumVars)
	} else {
		sc.slots = sc.slots[:0]
		if sc.slotOf == nil {
			sc.slotOf = make(map[model.VarID]int, len(sys.Initial))
		} else {
			clear(sc.slotOf)
		}
	}
	clear(sc.spill)
	// An initial value outside the declared range is an error; the lowest
	// such variable is named, whatever the map's iteration order.
	var bad []model.VarID
	for k, v := range sys.Initial {
		if s := sc.slot(k); s != nil {
			s.val = v
		} else {
			bad = append(bad, k)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("sm: initial variable %d outside declared range [0, %d)", slices.Min(bad), sys.NumVars)
	}
	if injected {
		if sc.prevVals == nil {
			sc.prevVals = make(map[model.VarID]Value)
		} else {
			clear(sc.prevVals)
		}
	}
	return nil
}

// varSlot is one shared variable's executor state: its value and the
// distinct processes that have accessed it, for the b-bound. The first
// three accessors sit inline, which covers every variable when b <= 3; a
// fourth and later accessor, possible only when b >= 4, spills to
// Scratch.spill.
type varSlot struct {
	val Value    // current value
	acc [3]int32 // the first min(n, 3) accessors
	n   int32    // distinct accessors so far
}

// slot returns variable v's slot, or nil when v lies outside the declared
// range [0, System.NumVars). Without NumVars every variable is in range
// and gets a fresh slot at its first use; the pointer is valid until the
// next call.
func (sc *Scratch) slot(v model.VarID) *varSlot {
	if sc.dense {
		if uint(v) >= uint(len(sc.slots)) {
			return nil
		}
		return &sc.slots[v]
	}
	i, ok := sc.slotOf[v]
	if !ok {
		i = len(sc.slots)
		sc.slots = append(sc.slots, varSlot{})
		sc.slotOf[v] = i
	}
	return &sc.slots[i]
}

// admit records process p as an accessor of variable v, whose slot is s,
// and returns the number of distinct processes that have accessed v.
func (sc *Scratch) admit(s *varSlot, v model.VarID, p int32) int {
	n := int(s.n)
	for _, a := range s.acc[:min(n, len(s.acc))] {
		if a == p {
			return n
		}
	}
	if n > len(s.acc) {
		for _, a := range sc.spill[v] {
			if a == p {
				return n
			}
		}
	}
	if n < len(s.acc) {
		s.acc[n] = p
	} else {
		if sc.spill == nil {
			sc.spill = make(map[model.VarID][]int32)
		}
		sc.spill[v] = append(sc.spill[v], p)
	}
	s.n++
	return n + 1
}

// scratchPool recycles scratches for scratch-free runs, so the event queue,
// port tables and bookkeeping maps keep their warm capacity even when the
// caller did not supply a Scratch. Only buffers the Result never aliases
// stay attached; release detaches the rest, so a handed-out Result is never
// mutated by a later pooled run. Reuse is invisible to determinism: warm
// capacity changes where values live, never what they are.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// release detaches every buffer a Result may alias (trace steps, the access
// arena, IdleAt, Crashed) and returns the scratch to the pool.
func (sc *Scratch) release() {
	sc.lastSteps = len(sc.steps)
	sc.steps = nil
	sc.accesses = arena.Chunked[model.VarAccess]{}
	sc.idleAt = nil
	sc.crashed = nil
	scratchPool.Put(sc)
}

// portOf resolves the port index of a step of proc p on variable target, or
// model.NoPort.
func (sc *Scratch) portOf(p int, target model.VarID) int {
	if sc.portIdx[p] >= 0 && sc.portVar[p] == target {
		return sc.portIdx[p]
	}
	for i := len(sc.portDup) - 1; i >= 0; i-- { // last binding wins, like the old map
		if sc.portDup[i].Proc == p && sc.portDup[i].Var == target {
			return sc.portDupI[i]
		}
	}
	return model.NoPort
}

// RunContext is Run with cooperative cancellation: it polls ctx every few
// hundred steps and returns ctx.Err() mid-computation when the caller
// cancels or times out.
func RunContext(ctx context.Context, sys *System, sched Scheduler, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(sys.Procs) == 0 {
		return nil, errors.New("sm: no processes")
	}
	if sys.B < 2 {
		return nil, fmt.Errorf("sm: b must be at least 2, got %d", sys.B)
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = defaultMaxSteps
	}

	inj := opts.Injector
	sc := opts.Scratch
	if sc == nil {
		sc = scratchPool.Get().(*Scratch)
		// Registered before the batch save-back below so it runs after it:
		// the scratch must be fully quiescent before re-entering the pool.
		defer sc.release()
	}
	if err := sc.prepare(sys, &opts); err != nil {
		return nil, err
	}

	res := &Result{
		Trace:   &model.Trace{NumProcs: len(sys.Procs), NumPorts: len(sys.Ports)},
		IdleAt:  sc.idleAt,
		Crashed: sc.crashed,
	}
	// finish publishes the recorded steps into the trace; called at every
	// exit that hands res to the caller (appends may have moved sc.steps).
	finish := func() { res.Trace.Steps = sc.steps }

	q := &sc.queue
	for p := range sys.Procs {
		q.Push(sim.Event{At: sim.Time(0).Add(sched.Gap(p)), Kind: sim.KindStep, Proc: p})
	}

	idleCount := 0
	crashedLive := 0 // processes crashed permanently before going idle
	steps := 0
	recorded := 0 // steps recorded/observed (excludes injector-suppressed pops)
	// Recycling overwritten values is sound only when nothing can retain
	// them: no materialized trace, no injector stale-read snapshots, no idle
	// probes comparing pre/post values.
	recycle := sys.Recycle != nil && opts.DiscardSteps && inj == nil &&
		opts.ProbeSteps == 0 && !opts.StepIdleProcesses
	drainUntil := sim.Time(-1)
	// The dispatch loop drains whole ticks at once: PopTick hands over every
	// event at the earliest tick in (Kind, Proc, Seq) order, and the PeekAt
	// guard merges events a step pushes back onto the tick being drained
	// (zero-gap custom schedulers, adversary constructions), so the executed
	// order is identical to a pop-one-at-a-time loop.
	batch := sc.batch[:0]
	defer func() {
		clear(batch)
		sc.batch = batch[:0]
	}()
	var now sim.Time
dispatch:
	for q.Len() > 0 {
		if drainUntil >= 0 && q.PeekTime() > drainUntil {
			break
		}
		now, batch = q.PopTick(batch[:0])
		for bi := 0; bi < len(batch); bi++ {
			if ev0, ok := q.PeekAt(now); ok && sim.SameTickLess(ev0, batch[bi]) {
				batch = sim.MergeSameTick(q, now, batch, bi)
			}
			ev := batch[bi]
			p := ev.Proc
			proc := sys.Procs[p]

			if steps >= maxSteps {
				// Partial result: under fault injection non-termination is a
				// degraded outcome to audit, not an invariant failure, so the
				// trace so far rides along with the error.
				finish()
				return res, fmt.Errorf("%w (cap %d)", ErrNoTermination, maxSteps)
			}
			steps++
			if steps%ctxCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}

			stale := false
			if inj != nil {
				switch eff := inj.StepEffect(p, ev.At); eff.Kind {
				case fault.None:
				case fault.Crash:
					if eff.Restart > 0 {
						res.Faults = append(res.Faults, fault.Event{
							Kind: fault.Crash, At: ev.At, Proc: p, Src: -1,
							Detail: fmt.Sprintf("restart after %v", eff.Restart),
						})
						q.Push(sim.Event{At: ev.At.Add(eff.Restart), Kind: sim.KindStep, Proc: p})
						continue
					}
					res.Faults = append(res.Faults, fault.Event{
						Kind: fault.Crash, At: ev.At, Proc: p, Src: -1, Detail: "permanent",
					})
					res.Crashed[p] = true
					if !proc.Idle() {
						crashedLive++
						if idleCount+crashedLive == len(sys.Procs) && opts.ProbeSteps == 0 && opts.StepIdleProcesses {
							drainUntil = ev.At
						}
					}
					continue
				case fault.StepOverrun:
					res.Faults = append(res.Faults, fault.Event{
						Kind: fault.StepOverrun, At: ev.At, Proc: p, Src: -1,
						Detail: fmt.Sprintf("postponed +%v", eff.Delay),
					})
					q.Push(sim.Event{At: ev.At.Add(eff.Delay), Kind: sim.KindStep, Proc: p})
					continue
				case fault.StaleRead:
					stale = true
				}
			}

			wasIdle := proc.Idle()
			target := proc.Target()
			slot := sc.slot(target)
			if slot == nil {
				return nil, fmt.Errorf("sm: variable %d outside declared range [0, %d)",
					target, sys.NumVars)
			}
			old := slot.val
			observed := old
			if stale {
				if pv, ok := sc.prevVals[target]; ok {
					observed = pv
					res.Faults = append(res.Faults, fault.Event{
						Kind: fault.StaleRead, At: ev.At, Proc: p, Src: -1,
						Detail: fmt.Sprintf("variable %d read pre-update value", target),
					})
				}
				// No previous write to resurrect: the fault has no effect and is
				// not recorded.
			}
			newVal := proc.Step(observed)
			slot.val = newVal
			if inj != nil {
				sc.prevVals[target] = old
			}
			if recycle {
				// Nothing retains the overwritten value (steps are discarded,
				// no injector snapshots, no idle probes): hand it back to the
				// algorithm's buffer pool.
				sys.Recycle(old, newVal)
			}

			// b-bound: the slot lists the distinct processes touching the
			// variable; a run stops at the first access that pushes the
			// count past b, so a known accessor never finds it above b.
			if n := sc.admit(slot, target, int32(p)); n > sys.B {
				return nil, fmt.Errorf("sm: variable %d accessed by %d > b=%d processes",
					target, n, sys.B)
			}

			port := model.NoPort
			if !wasIdle {
				// Steps taken from an idle state are not port steps: the
				// session condition quantifies over the computation up to
				// idleness (otherwise idle processes parked on their ports
				// would accumulate sessions forever and trivialize the
				// problem, contradicting the paper's lower-bound arguments).
				port = sc.portOf(p, target)
			}
			st := model.Step{
				Index: recorded,
				Proc:  p,
				Time:  ev.At,
				Port:  port,
			}
			recorded++
			if !opts.DiscardSteps {
				st.Accesses = sc.accesses.One(model.VarAccess{Var: target, Old: observed, New: newVal})
				sc.steps = append(sc.steps, st)
			}
			if opts.Observer != nil {
				opts.Observer.ObserveStep(st)
			}

			if wasIdle {
				// Idle-stability probe: state must be unchanged and the process
				// must remain idle. The contract is relative to the observed
				// value, so a stale read does not fail an honest idle process.
				if !proc.Idle() {
					return nil, fmt.Errorf("sm: process %d left idle state at %v", p, ev.At)
				}
				if !valuesEqual(observed, newVal) {
					return nil, fmt.Errorf("sm: idle process %d modified variable %d at %v",
						p, target, ev.At)
				}
				switch {
				case opts.StepIdleProcesses && idleCount+crashedLive < len(sys.Procs):
					q.Push(sim.Event{At: ev.At.Add(sched.Gap(p)), Kind: sim.KindStep, Proc: p})
				case sc.probes[p] < opts.ProbeSteps:
					sc.probes[p]++
					q.Push(sim.Event{At: ev.At.Add(sched.Gap(p)), Kind: sim.KindStep, Proc: p})
				}
				continue
			}
			if proc.Idle() {
				res.IdleAt[p] = ev.At
				idleCount++
				if idleCount+crashedLive == len(sys.Procs) {
					res.FinishAll = ev.At
					if opts.ProbeSteps == 0 {
						if !opts.StepIdleProcesses {
							break dispatch
						}
						// Finish the current tick so the final round of the
						// lockstep traces used by the adversary is complete.
						drainUntil = ev.At
					}
				}
				switch {
				case opts.StepIdleProcesses && idleCount+crashedLive < len(sys.Procs):
					q.Push(sim.Event{At: ev.At.Add(sched.Gap(p)), Kind: sim.KindStep, Proc: p})
				case sc.probes[p] < opts.ProbeSteps:
					sc.probes[p]++
					q.Push(sim.Event{At: ev.At.Add(sched.Gap(p)), Kind: sim.KindStep, Proc: p})
				}
				continue
			}
			q.Push(sim.Event{At: ev.At.Add(sched.Gap(p)), Kind: sim.KindStep, Proc: p})
		}
	}
	finish()

	if idleCount+crashedLive != len(sys.Procs) {
		return nil, fmt.Errorf("sm: executor drained queue with %d/%d processes idle",
			idleCount, len(sys.Procs))
	}

	for _, pb := range sys.Ports {
		if pb.Proc >= 0 && pb.Proc < len(sc.idleAt) {
			res.Finish = sim.MaxTime(res.Finish, res.IdleAt[pb.Proc])
		}
	}
	for _, at := range res.IdleAt {
		res.FinishAll = sim.MaxTime(res.FinishAll, at)
	}
	return res, nil
}

func valuesEqual(a, b Value) bool {
	return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}
