// Package mp implements the message-passing system of Section 2.1.2: a step
// of a regular process receives the whole contents of its buffer buf_p,
// updates local state, and broadcasts at most one message to all regular
// processes; a step of the network N delivers one in-transit message to its
// destination's buffer. Message delay is the time from the send step to the
// delivery step; buffer residence is free, exactly as in the paper.
//
// The executor turns an algorithm (a set of Process implementations) plus a
// scheduler into a timed computation recorded as a model.Trace, together
// with the per-message delay records needed for admissibility checking.
package mp

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"sessionproblem/internal/arena"
	"sessionproblem/internal/fault"
	"sessionproblem/internal/model"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
)

// Message is a delivered message: the sender's index and an opaque body.
type Message struct {
	From int
	Body any
}

// Process is one regular message-passing process. At each step the executor
// passes every message currently in the process's buffer (possibly none) and
// the process returns a message body to broadcast, or nil for no broadcast.
// Implementations must keep Idle stable and must not broadcast while idle.
//
// The received slice is owned by the executor and recycled after Step
// returns: implementations must not retain it (retaining individual message
// bodies is fine). Every algorithm in this repository only iterates it.
type Process interface {
	Step(received []Message) (broadcast any)
	Idle() bool
}

// System is a complete message-passing system. PortProcs lists the port
// processes; port i corresponds to buf of process PortProcs[i]. Every step
// of a port process involves its buffer and is therefore a port step.
type System struct {
	Procs     []Process
	PortProcs []int
}

// Scratch holds every buffer the executor grows during a run: the event
// queue, the recorded steps and their access-record arena, the message-delay
// log, and the per-process message buffers with their freelist. Reusing a
// Scratch across runs recycles all of that capacity, making steady-state
// execution allocation-free apart from what the algorithm itself allocates.
//
// Ownership contract: a Result produced with a given Scratch — including
// Trace, Delays, IdleAt and Crashed — aliases the scratch's memory and is
// valid only until the next run with the same Scratch. Determinism is
// unaffected: reuse recycles backing arrays, never values.
type Scratch struct {
	queue    sim.Queue
	steps    []model.Step
	accesses arena.Chunked[model.VarAccess]
	delays   []timing.MessageDelay
	buffers  [][]Message
	free     arena.Freelist[Message]
	idleAt   []sim.Time
	crashed  []bool
	idleMark []bool
	portIdx  []int       // proc -> port index, -1 = none
	batch    []sim.Event // tick-batch scratch for the dispatch loop
	// lastSteps/lastDelays are the record counts of the previous run.
	// Pooled scratches detach the step, access and delay buffers on
	// release (a Result aliases them), so these scalars are what carry the
	// sizing knowledge across pool cycles: the next run pre-sizes from the
	// observed high-water marks instead of the caller's worst-case hints.
	lastSteps  int
	lastDelays int
}

// Options tune an execution.
type Options struct {
	// MaxSteps caps process steps before declaring non-termination.
	// Zero means the default of 1_000_000.
	MaxSteps int
	// StepIdleProcesses keeps scheduling processes after they go idle,
	// until every process is idle. The formal model gives idle processes
	// infinitely many steps; the lower-bound adversary constructions need
	// those steps in the trace to define rounds. Idle processes must not
	// broadcast.
	StepIdleProcesses bool
	// DropEvery, when positive, silently discards every DropEvery-th
	// message delivery. The paper's network is reliable ("the message is
	// guaranteed to be delivered"); this fault injection exists to
	// demonstrate that the reliability assumption is load-bearing — the
	// session algorithms hang without it.
	DropEvery int
	// Injector, when non-nil, is consulted once per popped process step
	// (crash, restart, overrun; stale reads have no message-passing
	// analogue and are ignored) and once per message-destination pair at
	// send time (drop, duplicate, late delivery). The fault-free path (nil
	// Injector) costs a single nil check per step and per send. Applied
	// faults are recorded in Result.Faults; crashed processes count as
	// settled for termination.
	Injector fault.Injector
	// Scratch, when non-nil, backs the run with reusable buffers; see the
	// Scratch ownership contract. Nil runs with fresh buffers.
	Scratch *Scratch
	// ExpectedSteps and ExpectedDelays pre-size the trace and delay log
	// when the scratch has no warm capacity yet. Zero means no pre-sizing;
	// both are hints only.
	ExpectedSteps  int
	ExpectedDelays int
	// WindowHint is the timing model's maximum scheduling increment
	// (timing.Model.MaxIncrement); the calendar queue sizes its bucket
	// window from it so steady-state pushes never hit the overflow heap.
	// Zero leaves the queue's default window; larger increments (e.g.
	// fault-injected restart pauses) still work, via the overflow path.
	WindowHint sim.Duration
	// Observer, when non-nil, receives every executed step online (network
	// deliveries included), in execution order (streaming certification).
	// With DiscardSteps set the observed steps carry no access records.
	Observer model.StepObserver
	// DelayObserver, when non-nil, receives every message's transit interval
	// as the send is scheduled (streaming admissibility checking).
	DelayObserver DelayObserver
	// DiscardSteps skips materializing Trace.Steps and Result.Delays (and
	// the per-step access records): Result.Trace carries only the
	// process/port counts. Trace-free verified runs pair it with
	// Observer/DelayObserver so sessions and admissibility are checked
	// online in O(ports) memory instead of O(steps). The executed schedule
	// is bit-identical either way.
	DiscardSteps bool
}

// DelayObserver consumes message-delay records online, in the order the
// executor creates them (send order, duplicates after their original). It is
// the streaming counterpart of Result.Delays.
type DelayObserver interface {
	ObserveDelay(d timing.MessageDelay)
}

// Result is the outcome of one execution.
type Result struct {
	// Trace is the recorded timed computation, including network delivery
	// steps (Proc = model.NetworkProc).
	Trace *model.Trace
	// Delays records every message's transit interval.
	Delays []timing.MessageDelay
	// IdleAt[p] is the time process p became idle.
	IdleAt []sim.Time
	// Finish is the earliest time by which every port process is idle.
	Finish sim.Time
	// MessagesSent counts broadcasts (each reaching len(Procs) destinations).
	MessagesSent int
	// Faults records every fault the injector applied, in execution order.
	// Nil when no fault struck.
	Faults []fault.Event
	// Crashed[p] reports whether process p was permanently crashed.
	Crashed []bool
}

// ErrNoTermination is returned when the step cap is reached before all
// processes go idle.
var ErrNoTermination = errors.New("mp: step cap reached before all processes idle")

const defaultMaxSteps = 1_000_000

// Scheduler is what the executor needs from a timing scheduler; adversary
// packages substitute hand-crafted schedules.
type Scheduler interface {
	Gap(proc int) sim.Duration
	Delay(src, dst int) sim.Duration
}

// bufVar returns the VarID used to record accesses to buf_p in the trace.
// ID 0 is reserved for net (not recorded; see package comment).
func bufVar(proc int) model.VarID { return model.VarID(proc + 1) }

// Run executes the system until every regular process is idle.
func Run(sys *System, sched Scheduler, opts Options) (*Result, error) {
	return RunContext(context.Background(), sys, sched, opts)
}

// ctxCheckInterval matches internal/sm: context is polled every this many
// process steps, trading one atomic load per interval for sub-millisecond
// cancellation latency.
const ctxCheckInterval = 1024

// scratchPool recycles scratches for scratch-free runs, so the event queue,
// message buffers, freelist and bookkeeping keep their warm capacity even
// when the caller did not supply a Scratch. Only buffers the Result never
// aliases stay attached; release detaches the rest, so a handed-out Result
// is never mutated by a later pooled run. Reuse is invisible to
// determinism: warm capacity changes where values live, never what they
// are.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// release detaches every buffer a Result may alias (trace steps, the access
// arena, Delays, IdleAt, Crashed) and returns the scratch to the pool.
func (sc *Scratch) release() {
	sc.lastSteps = len(sc.steps)
	sc.lastDelays = len(sc.delays)
	sc.steps = nil
	sc.accesses = arena.Chunked[model.VarAccess]{}
	sc.delays = nil
	sc.idleAt = nil
	sc.crashed = nil
	scratchPool.Put(sc)
}

// prepare resets the scratch for a run over n processes.
func (sc *Scratch) prepare(sys *System, opts *Options) {
	n := len(sys.Procs)
	expectedSteps, expectedDelays := opts.ExpectedSteps, opts.ExpectedDelays
	sc.queue.Reset()
	sc.queue.Reserve(n)
	if opts.WindowHint > 0 {
		sc.queue.SetWindow(opts.WindowHint)
	}
	if sc.lastSteps > 0 {
		// Observed sizes beat the caller's worst-case hints: short-lived
		// runs would otherwise pay multi-kilobyte zeroed allocations for
		// a few dozen steps. The slack absorbs seed-to-seed variation;
		// append growth covers any remainder.
		expectedSteps = sc.lastSteps + sc.lastSteps/8 + 8
		expectedDelays = sc.lastDelays + sc.lastDelays/8 + 8
	}
	if opts.DiscardSteps {
		// Nothing is appended to the step, access or delay buffers;
		// pre-sizing them would be the very O(steps) allocation streaming
		// avoids.
		expectedSteps, expectedDelays = 0, 0
	}
	if sc.steps == nil && expectedSteps > 0 {
		sc.steps = make([]model.Step, 0, expectedSteps)
	}
	sc.steps = sc.steps[:0]
	sc.accesses.Reset()
	sc.accesses.Reserve(expectedSteps) // one access record per step
	if sc.delays == nil && expectedDelays > 0 {
		sc.delays = make([]timing.MessageDelay, 0, expectedDelays)
	}
	sc.delays = sc.delays[:0]

	if cap(sc.buffers) >= n {
		// Recycle per-process buffer capacity through the freelist so a
		// shrinking process count doesn't strand backing arrays.
		old := sc.buffers[:cap(sc.buffers)]
		for i := range old {
			if i >= n && old[i] != nil {
				sc.free.Put(old[i])
				old[i] = nil
			}
		}
		sc.buffers = old[:n]
		for i := range sc.buffers {
			if sc.buffers[i] != nil {
				buf := sc.buffers[i]
				clear(buf)
				sc.buffers[i] = buf[:0]
			}
		}
	} else {
		sc.buffers = make([][]Message, n)
	}

	sc.idleAt = arena.Resize(sc.idleAt, n)
	sc.crashed = arena.Resize(sc.crashed, n)
	sc.idleMark = arena.Resize(sc.idleMark, n)
	sc.portIdx = arena.Resize(sc.portIdx, n)
	for i := 0; i < n; i++ {
		sc.idleAt[i] = -1
		sc.crashed[i] = false
		sc.idleMark[i] = false
		sc.portIdx[i] = -1
	}
	for i, pp := range sys.PortProcs {
		sc.portIdx[pp] = i // last binding wins, like the old map
	}
}

// RunContext is Run with cooperative cancellation: it polls ctx every few
// hundred steps and returns ctx.Err() mid-computation when the caller
// cancels or times out.
func RunContext(ctx context.Context, sys *System, sched Scheduler, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(sys.Procs)
	if n == 0 {
		return nil, errors.New("mp: no processes")
	}
	for _, pp := range sys.PortProcs {
		if pp < 0 || pp >= n {
			return nil, fmt.Errorf("mp: port process %d out of range", pp)
		}
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
	sc.prepare(sys, &opts)

	res := &Result{
		Trace:   &model.Trace{NumProcs: n, NumPorts: len(sys.PortProcs)},
		IdleAt:  sc.idleAt,
		Crashed: sc.crashed,
	}
	// finish publishes the recorded steps and delays into the result;
	// called at every exit that hands res to the caller (appends may have
	// moved sc.steps and sc.delays).
	finish := func() {
		res.Trace.Steps = sc.steps
		res.Delays = sc.delays
	}

	q := &sc.queue
	for p := 0; p < n; p++ {
		q.Push(sim.Event{At: sim.Time(0).Add(sched.Gap(p)), Kind: sim.KindStep, Proc: p})
	}

	idleCount := 0
	crashedLive := 0 // processes crashed permanently before going idle
	steps := 0
	recorded := 0 // steps recorded/observed (excludes injector-suppressed pops)
	sendCounter := 0
	drainUntil := sim.Time(-1)
	// The dispatch loop drains whole ticks at once: PopTick hands over every
	// event at the earliest tick in (Kind, Proc, Seq) order — deliveries
	// before steps — and the PeekAt guard merges events pushed back onto the
	// tick being drained (zero-delay deliveries under asynchronous models),
	// so the executed order is identical to a pop-one-at-a-time loop.
	batch := sc.batch[:0]
	defer func() {
		clear(batch) // release message-body references
		sc.batch = batch[:0]
	}()
	var now sim.Time
dispatch:
	for q.Len() > 0 {
		if idleCount+crashedLive == n {
			// With StepIdleProcesses the current tick is finished so the
			// final round of lockstep traces is complete; otherwise stop.
			if !opts.StepIdleProcesses || q.PeekTime() > drainUntil {
				break
			}
		}
		now, batch = q.PopTick(batch[:0])
		for bi := 0; bi < len(batch); bi++ {
			if idleCount+crashedLive == n {
				if !opts.StepIdleProcesses || now > drainUntil {
					break dispatch
				}
			}
			if ev0, ok := q.PeekAt(now); ok && sim.SameTickLess(ev0, batch[bi]) {
				batch = sim.MergeSameTick(q, now, batch, bi)
			}
			ev := batch[bi]
			switch ev.Kind {
			case sim.KindDelivery:
				dst := ev.Proc
				buf := sc.buffers[dst]
				if buf == nil {
					buf = sc.free.Get()
				}
				sc.buffers[dst] = append(buf, Message{From: ev.Src, Body: ev.Body})
				st := model.Step{
					Index: recorded,
					Proc:  model.NetworkProc,
					Time:  ev.At,
					Port:  model.NoPort,
				}
				recorded++
				if !opts.DiscardSteps {
					st.Accesses = sc.accesses.One(model.VarAccess{Var: bufVar(dst)})
					sc.steps = append(sc.steps, st)
				}
				if opts.Observer != nil {
					opts.Observer.ObserveStep(st)
				}

			case sim.KindStep:
				if steps >= maxSteps {
					// Partial result: under fault injection non-termination is a
					// degraded outcome to audit, not an invariant failure, so
					// the trace so far rides along with the error.
					finish()
					return res, fmt.Errorf("%w (cap %d)", ErrNoTermination, maxSteps)
				}
				steps++
				if steps%ctxCheckInterval == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				p := ev.Proc
				proc := sys.Procs[p]
				wasIdle := sc.idleMark[p]
				if inj != nil {
					switch eff := inj.StepEffect(p, ev.At); eff.Kind {
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
						if !wasIdle {
							crashedLive++
							if idleCount+crashedLive == n {
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
					default:
						// None; StaleRead has no message-passing analogue.
					}
				}
				received := sc.buffers[p]
				sc.buffers[p] = nil
				body := proc.Step(received)
				// Step's contract forbids retaining the slice, so its backing
				// array goes straight back to the freelist for the next
				// delivery burst.
				sc.free.Put(received)
				if wasIdle {
					if !proc.Idle() {
						return nil, fmt.Errorf("mp: process %d left idle state at %v", p, ev.At)
					}
					if body != nil {
						return nil, fmt.Errorf("mp: idle process %d broadcast at %v", p, ev.At)
					}
				}

				port := model.NoPort
				if !wasIdle {
					// Steps taken from an idle state are not port steps (see
					// the matching comment in internal/sm).
					port = sc.portIdx[p]
				}
				st := model.Step{
					Index: recorded,
					Proc:  p,
					Time:  ev.At,
					Port:  port,
				}
				recorded++
				if !opts.DiscardSteps {
					st.Accesses = sc.accesses.One(model.VarAccess{Var: bufVar(p)})
					sc.steps = append(sc.steps, st)
				}
				if opts.Observer != nil {
					opts.Observer.ObserveStep(st)
				}

				if body != nil {
					res.MessagesSent++
					for dst := 0; dst < n; dst++ {
						sendCounter++
						if opts.DropEvery > 0 && sendCounter%opts.DropEvery == 0 {
							continue // fault injection: message lost in transit
						}
						delay := sched.Delay(p, dst)
						var eff fault.DeliveryEffect
						if inj != nil {
							eff = inj.DeliveryEffect(p, dst, ev.At)
						}
						switch eff.Kind {
						case fault.MessageDrop:
							// Dropped in transit: no delivery event and no delay
							// record — only the fault log witnesses the message.
							res.Faults = append(res.Faults, fault.Event{
								Kind: fault.MessageDrop, At: ev.At, Proc: dst, Src: p,
								Detail: "lost in transit",
							})
							continue
						case fault.LateDelivery:
							res.Faults = append(res.Faults, fault.Event{
								Kind: fault.LateDelivery, At: ev.At, Proc: dst, Src: p,
								Detail: fmt.Sprintf("delayed +%v beyond schedule", eff.Delay),
							})
							delay += eff.Delay
						}
						at := ev.At.Add(delay)
						q.Push(sim.Event{
							At:   at,
							Kind: sim.KindDelivery,
							Proc: dst,
							Src:  p,
							Body: body,
						})
						d := timing.MessageDelay{Src: p, Dst: dst, Sent: ev.At, Delivered: at}
						if !opts.DiscardSteps {
							sc.delays = append(sc.delays, d)
						}
						if opts.DelayObserver != nil {
							opts.DelayObserver.ObserveDelay(d)
						}
						if eff.Kind == fault.MessageDuplicate {
							dupAt := at.Add(eff.DuplicateDelay)
							res.Faults = append(res.Faults, fault.Event{
								Kind: fault.MessageDuplicate, At: ev.At, Proc: dst, Src: p,
								Detail: fmt.Sprintf("second copy delivered at %v", dupAt),
							})
							q.Push(sim.Event{
								At:   dupAt,
								Kind: sim.KindDelivery,
								Proc: dst,
								Src:  p,
								Body: body,
							})
							dd := timing.MessageDelay{Src: p, Dst: dst, Sent: ev.At, Delivered: dupAt}
							if !opts.DiscardSteps {
								sc.delays = append(sc.delays, dd)
							}
							if opts.DelayObserver != nil {
								opts.DelayObserver.ObserveDelay(dd)
							}
						}
					}
				}

				if proc.Idle() {
					if !wasIdle {
						// A process may broadcast at the step on which it enters
						// an idle state (A(sp) does), but never afterwards.
						res.IdleAt[p] = ev.At
						sc.idleMark[p] = true
						idleCount++
						if idleCount+crashedLive == n {
							drainUntil = ev.At
						}
					}
					if opts.StepIdleProcesses && idleCount+crashedLive < n {
						q.Push(sim.Event{At: ev.At.Add(sched.Gap(p)), Kind: sim.KindStep, Proc: p})
					}
					continue
				}
				q.Push(sim.Event{At: ev.At.Add(sched.Gap(p)), Kind: sim.KindStep, Proc: p})
			}
		}
	}
	finish()

	if idleCount+crashedLive != n {
		return nil, fmt.Errorf("mp: executor drained queue with %d/%d processes idle", idleCount, n)
	}
	for _, pp := range sys.PortProcs {
		res.Finish = sim.MaxTime(res.Finish, res.IdleAt[pp])
	}
	return res, nil
}
