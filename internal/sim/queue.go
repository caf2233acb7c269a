package sim

// EventKind orders events that fall on the same tick. Lower kinds run first:
// network deliveries are processed before process steps at the same time, so
// a message delivered "at" time t is visible to a step taken at time t. This
// matches the paper's convention that message delay counts only transit time
// and buffer residence is free.
type EventKind int32

// Event kinds, in same-tick execution order.
const (
	KindDelivery EventKind = iota + 1
	KindStep
)

// Event is a scheduled occurrence in virtual time. Proc identifies the
// process taking a step (KindStep) or the destination process (KindDelivery).
// Msg is an executor-owned handle on a delivery's payload (the message
// package keeps a per-run table and a delivery names its entry); the queue
// never reads it, and step events leave it zero.
//
// The layout is 32 bytes with no pointer field: bucket arrays are never
// scanned by the garbage collector, and copying an event needs no write
// barrier. A message-passing run keeps Θ(n²) deliveries pending, so the
// event size is what its memory follows.
type Event struct {
	At   Time
	Seq  uint64 // assigned by the queue; breaks remaining ties FIFO
	Proc int
	Kind EventKind
	Msg  int32
}

// SameTickLess reports whether a orders before b among events scheduled at
// the same tick: by Kind, then Proc, then Seq. It is the tail of the full
// (At, Kind, Proc, Seq) event order; the executors use it to merge events
// pushed back onto the tick currently being drained.
func SameTickLess(a, b Event) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Proc != b.Proc {
		return a.Proc < b.Proc
	}
	return a.Seq < b.Seq
}

// HeapQueue is a deterministic priority queue of events ordered by
// (At, Kind, Proc, Seq), backed by a binary heap. The zero value is ready
// to use.
//
// It is the reference implementation: CalendarQueue (the default Queue) must
// pop byte-identical event sequences, and the differential tests in this
// package check exactly that. Build with -tags sessionheap to run the whole
// simulator on the heap instead.
//
// The heap is concrete and inlined: no container/heap, no heap.Interface,
// no any-boxing on Push or Pop. Pushing into spare capacity is
// allocation-free, so a warmed queue runs the whole simulation steady state
// without touching the allocator.
type HeapQueue struct {
	h   []Event
	seq uint64
}

// Push schedules ev. The queue assigns ev.Seq.
func (q *HeapQueue) Push(ev Event) {
	q.seq++
	ev.Seq = q.seq
	q.h = append(q.h, ev)
	q.siftUp(len(q.h) - 1)
}

// Pop removes and returns the earliest event. It panics on an empty queue;
// use Len to guard.
func (q *HeapQueue) Pop() Event {
	h := q.h
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	q.h = h[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return ev
}

// Peek returns the earliest event without removing it. It panics on an empty
// queue.
func (q *HeapQueue) Peek() Event {
	return q.h[0]
}

// PeekTime returns the earliest pending tick without removing anything. It
// panics on an empty queue.
func (q *HeapQueue) PeekTime() Time {
	return q.h[0].At
}

// PeekAt returns the earliest pending event if it is scheduled at exactly
// tick t, without removing it. The executors call it with the tick of the
// batch they are draining, to detect events pushed back onto that tick.
func (q *HeapQueue) PeekAt(t Time) (Event, bool) {
	if len(q.h) == 0 || q.h[0].At != t {
		return Event{}, false
	}
	return q.h[0], true
}

// PopTick removes every pending event at the earliest tick, appends them to
// dst in (Kind, Proc, Seq) order, and returns the tick and the extended
// slice. It panics on an empty queue. Events pushed at the same tick after
// PopTick returns are not part of the batch; callers merge them via PeekAt.
func (q *HeapQueue) PopTick(dst []Event) (Time, []Event) {
	t := q.h[0].At
	for len(q.h) > 0 && q.h[0].At == t {
		dst = append(dst, q.Pop())
	}
	return t, dst
}

// MergeSameTick pops every event still pending at tick now — pushed there by
// the executor while it drains a PopTick batch — and inserts each into the
// unprocessed tail batch[bi:] at its (Kind, Proc, Seq) position, so the
// combined drain order matches what a pop-one-at-a-time loop over a single
// priority queue would have produced. Returns the (possibly grown) batch.
//
// Callers invoke it before processing each batch element, guarded by a
// PeekAt check, so an event pushed back onto the current tick is interleaved
// exactly where the full (At, Kind, Proc, Seq) order places it.
func MergeSameTick(q *Queue, now Time, batch []Event, bi int) []Event {
	for {
		if _, ok := q.PeekAt(now); !ok {
			return batch
		}
		ev := q.Pop()
		lo, hi := bi, len(batch)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if SameTickLess(batch[mid], ev) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		batch = append(batch, Event{})
		copy(batch[lo+1:], batch[lo:])
		batch[lo] = ev
	}
}

// Len reports the number of pending events.
func (q *HeapQueue) Len() int { return len(q.h) }

// Reset empties the queue and restarts the tie-breaking sequence, keeping
// the backing array so a reused queue pushes into warm capacity.
func (q *HeapQueue) Reset() {
	q.h = q.h[:0]
	q.seq = 0
}

// Reserve grows the backing array to hold at least n events without further
// allocation.
func (q *HeapQueue) Reserve(n int) {
	if cap(q.h) >= n {
		return
	}
	h := make([]Event, len(q.h), n)
	copy(h, q.h)
	q.h = h
}

// SetWindow is a no-op on the heap implementation; it exists so HeapQueue
// and CalendarQueue share a method set and the executors can be compiled
// against either via the sessionheap build tag.
func (q *HeapQueue) SetWindow(span Duration) {}

// less orders the heap by (At, Kind, Proc, Seq).
func (q *HeapQueue) less(i, j int) bool {
	a, b := &q.h[i], &q.h[j]
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Proc != b.Proc {
		return a.Proc < b.Proc
	}
	return a.Seq < b.Seq
}

func (q *HeapQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *HeapQueue) siftDown(i int) {
	n := len(q.h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && q.less(right, left) {
			least = right
		}
		if !q.less(least, i) {
			return
		}
		q.h[i], q.h[least] = q.h[least], q.h[i]
		i = least
	}
}
