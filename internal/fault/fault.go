// Package fault is the deterministic fault-injection layer of the execution
// stack. It deliberately violates the assumptions every bound in Table 1 is
// conditioned on — step times in [c1, c2], message delays in [d1, d2], a
// reliable network, coherent shared-memory reads, processes that never stop —
// and then audits the resulting computation honestly: did the session
// guarantee survive the violations, and if not, which bound broke first?
//
// The layer has three parts:
//
//   - an Injector interface the executors (internal/sm, internal/mp) consult
//     once per step and once per message send when — and only when — a fault
//     plan is wired in, so the fault-free path stays zero-cost;
//   - Plan, a seeded, fully deterministic fault schedule built on sim.RNG
//     (this package is in the nodeterm lint set: wall clocks and math/rand
//     can never leak into fault schedules);
//   - an auditor (Classify, and AuditTrace over a recorded trace)
//     classifying each run as admissible, violated-but-recovered, or
//     guarantee-broken.
package fault

import (
	"fmt"

	"sessionproblem/internal/sim"
)

// Kind enumerates the injectable fault classes. The zero value None marks
// the absence of a fault in effects and events.
type Kind int

const (
	// None is the zero value: no fault.
	None Kind = iota
	// Crash stops a process, either permanently or with a restart after a
	// pause that exceeds the model's step bound (state survives the crash).
	Crash
	// StepOverrun postpones a process step so its gap exceeds c2.
	StepOverrun
	// StaleRead makes a shared-memory step observe the previous value of its
	// target variable instead of the current one (no message-passing
	// analogue; the MP executor ignores it).
	StaleRead
	// MessageDrop discards a message in transit.
	MessageDrop
	// MessageDuplicate delivers a second copy of a message.
	MessageDuplicate
	// LateDelivery delays a message beyond d2.
	LateDelivery
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Crash:
		return "crash"
	case StepOverrun:
		return "step-overrun"
	case StaleRead:
		return "stale-read"
	case MessageDrop:
		return "message-drop"
	case MessageDuplicate:
		return "message-duplicate"
	case LateDelivery:
		return "late-delivery"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AllKinds returns every injectable fault kind, in declaration order.
func AllKinds() []Kind {
	return []Kind{Crash, StepOverrun, StaleRead, MessageDrop, MessageDuplicate, LateDelivery}
}

// StepEffect is the injector's verdict for one process step about to
// execute. The zero value means "no fault": executors test Kind against
// None and take the unmodified path.
type StepEffect struct {
	// Kind identifies the fault; None means no effect.
	Kind Kind
	// Delay postpones the step by this much (StepOverrun).
	Delay sim.Duration
	// Restart, for Crash, is the pause before the process resumes with its
	// state intact; zero means the crash is permanent.
	Restart sim.Duration
}

// DeliveryEffect is the injector's verdict for one message about to be sent
// to one destination. The zero value means "no fault".
type DeliveryEffect struct {
	// Kind identifies the fault; None means no effect.
	Kind Kind
	// Delay is added to the scheduled transit time (LateDelivery).
	Delay sim.Duration
	// DuplicateDelay, for MessageDuplicate, separates the duplicate copy
	// from the original delivery.
	DuplicateDelay sim.Duration
}

// Injector decides, deterministically, which faults strike a computation.
// The executors consult it exactly once per popped process step and once per
// (message, destination) pair at send time, in execution order, so any
// stateful implementation sees a reproducible call sequence for a given
// schedule. Implementations need not be safe for concurrent use: one
// injector serves one run.
type Injector interface {
	// StepEffect is consulted when proc's step pops at virtual time at.
	StepEffect(proc int, at sim.Time) StepEffect
	// DeliveryEffect is consulted when a message from src to dst is sent at
	// virtual time at.
	DeliveryEffect(src, dst int, at sim.Time) DeliveryEffect
}

// Event records one fault the executor actually applied. Events are the
// ground truth the auditor treats as assumption violations — faults like
// message drops or stale reads leave traces that still look admissible to
// the timing checker, and only the event log reveals them.
type Event struct {
	// Kind is the applied fault class.
	Kind Kind
	// At is the virtual time the fault struck.
	At sim.Time
	// Proc is the affected process (the destination, for delivery faults).
	Proc int
	// Src is the sending process for delivery faults, -1 otherwise.
	Src int
	// Detail describes the magnitude ("postponed +13", "restart after 40").
	Detail string
}

// String renders the event for violation lists and logs.
func (e Event) String() string {
	if e.Src >= 0 {
		return fmt.Sprintf("fault %v at t=%v on message %d->%d: %s", e.Kind, e.At, e.Src, e.Proc, e.Detail)
	}
	return fmt.Sprintf("fault %v at t=%v on p%d: %s", e.Kind, e.At, e.Proc, e.Detail)
}
