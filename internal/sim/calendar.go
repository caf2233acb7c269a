package sim

import "slices"

// Calendar window sizing. Buckets cover the half-open tick range
// [cur, cur+window); window is a power of two so bucket indexing is a mask.
// The defaults are generous for the paper's models: every scheduling
// increment is bounded by max(c2, d2, gap cap, period), which Table-1
// configurations keep well under 64.
const (
	minWindow     = 64
	defaultWindow = 256
	maxWindow     = 4096
)

// CalendarQueue is a monotone calendar (bucket) queue of events ordered by
// (At, Kind, Proc, Seq), following Brown's calendar-queue design (CACM
// 1988) specialized to the simulator's monotone virtual clock:
// executors only push events at or after the tick currently being drained,
// and every increment is bounded by the timing model's max(c2, d2, gap cap,
// period). Under that contract Push and Pop are O(1) amortized — a push
// indexes a bucket by At & mask, and the per-tick sort that restores
// (Kind, Proc, Seq) order is paid once per tick over all its events.
//
// Events scheduled at or beyond cur+window (e.g. fault-injected restart
// pauses that exceed the model's bounds) spill into a small overflow
// min-heap keyed by At alone and migrate into buckets as the clock
// approaches them — migration order within a tick doesn't matter because
// buckets are sorted before they are drained.
//
// Non-monotone pushes (an event earlier than the current front) are not an
// error: they trigger an O(n + window) rebase that rehomes every pending
// event, preserving already-assigned Seq values. Executors never take that
// path, but ad-hoc users (tests, tools) may push in any order.
//
// The zero value is ready to use. See HeapQueue for the differential-test
// reference implementation; build with -tags sessionheap to select it.
type CalendarQueue struct {
	buckets [][]Event
	mask    Time // len(buckets) - 1
	cur     Time // lower bound on every pending event's At
	pos     int  // consumed prefix of the bucket at cur
	sorted  bool // buckets[cur&mask][pos:] is in (Kind, Proc, Seq) order
	n       int  // total pending events
	nb      int  // pending events held in buckets (rest are in overflow)
	seq     uint64
	over    []Event   // min-heap on At: events at or beyond cur+window
	spare   []Event   // rebase/sort scratch, kept to avoid slow-path allocation
	arrays  [][]Event // drained bucket arrays larger than a chunk, reused before append grows one
	chunks  [][]Event // carved chunks given back by buckets that outgrew them
	blocks  [][]Event // pooled blocks carved into bucket capacity chunks
	bi, bo  int       // carve cursor into blocks: block index, offset
	cnt     []int32   // counting-sort histogram over (Kind, Proc) keys
}

// Bucket storage follows the pending events, not the largest tick a bucket
// ever held.
//
// An empty bucket's first append would otherwise allocate, and fresh queues
// touch many buckets (one per distinct tick in the window), turning queue
// construction into hundreds of tiny allocations. Instead, first-touched
// buckets get a fixed-size capacity chunk carved from a pooled block, so a
// fresh run pays one allocation per blockChunks touched buckets. Blocks are
// retained and the carve cursor rewinds on Reset, so a warm queue re-carves
// the same memory instead of growing run over run.
//
// A bucket that outgrows its chunk gives the chunk back (to the chunks list,
// never to the arrays stack) and moves to a larger array: the top of the
// arrays stack when that one is larger, else append's regular growth. When a
// tick drains, its array goes onto the arrays stack for the next bucket that
// fills. So a window whose ticks take turns holding a broadcast wave
// circulates a few wave-sized arrays instead of keeping one per bucket.
//
// A chunk is recognized by cap == bucketChunk alone (grown arrays have at
// least twice that), which is how Reset finds the chunks still on buckets
// before it rewinds the carve cursor. A chunk on the arrays stack would
// outlive that rewind and be carved a second time.
const (
	bucketChunk = 16
	blockChunks = 16
)

func (q *CalendarQueue) newChunk() []Event {
	if n := len(q.chunks); n > 0 {
		c := q.chunks[n-1]
		q.chunks = q.chunks[:n-1]
		return c
	}
	if q.bi == len(q.blocks) {
		q.blocks = append(q.blocks, make([]Event, bucketChunk*blockChunks))
	}
	blk := q.blocks[q.bi]
	c := blk[q.bo : q.bo : q.bo+bucketChunk]
	q.bo += bucketChunk
	if q.bo == len(blk) {
		q.bi++
		q.bo = 0
	}
	return c
}

// bucketAppend appends ev to bucket idx.
func (q *CalendarQueue) bucketAppend(idx Time, ev Event) {
	q.buckets[idx] = append(q.room(q.buckets[idx]), ev)
}

// room returns bucket b, or b moved to a larger array, with capacity for
// one more event: an empty bucket gets a chunk, and a full one takes the
// top of the arrays stack when that is larger, else grows as append would.
func (q *CalendarQueue) room(b []Event) []Event {
	switch {
	case len(b) < cap(b):
		return b
	case cap(b) == 0:
		return q.newChunk()
	}
	var nb []Event
	if n := len(q.arrays); n > 0 && cap(q.arrays[n-1]) > len(b) {
		nb = q.arrays[n-1][:len(b)]
		q.arrays = q.arrays[:n-1]
		copy(nb, b)
	} else {
		nb = slices.Grow(b, 1)
	}
	if cap(b) == bucketChunk {
		q.chunks = append(q.chunks, b[:0])
	}
	return nb
}

// drained empties bucket idx once its tick is consumed and rewinds the
// drain cursor. An array larger than a chunk goes onto the arrays stack; a
// chunk stays on its bucket.
func (q *CalendarQueue) drained(idx Time) {
	b := q.buckets[idx][:0]
	if cap(b) > bucketChunk {
		q.arrays = append(q.arrays, b)
		b = nil
	}
	q.buckets[idx] = b
	q.pos = 0
	q.sorted = false
}

// Push schedules ev. The queue assigns ev.Seq.
func (q *CalendarQueue) Push(ev Event) {
	q.seq++
	ev.Seq = q.seq
	if q.buckets == nil {
		q.init(defaultWindow)
	}
	if q.n == 0 {
		// Every bucket is empty: rehome the clock at the new event. This is
		// what lets a drained queue be reused at earlier ticks for free.
		q.cur = ev.At
		q.pos = 0
		q.sorted = false
	} else if ev.At < q.cur {
		q.rebase(ev.At)
	}
	q.n++
	q.place(ev)
}

// place routes an already-sequenced event to its bucket or to overflow.
// Precondition: ev.At >= q.cur.
func (q *CalendarQueue) place(ev Event) {
	if ev.At-q.cur >= Time(len(q.buckets)) {
		q.overPush(ev)
		return
	}
	q.nb++
	idx := ev.At & q.mask
	if ev.At == q.cur && q.sorted {
		b := q.buckets[idx]
		// The front bucket is mid-drain and already sorted: insert at the
		// event's ordered position so the drain sees it in (Kind, Proc, Seq)
		// order without a re-sort.
		lo, hi := q.pos, len(b)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if SameTickLess(b[mid], ev) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		b = append(q.room(b), Event{})
		copy(b[lo+1:], b[lo:])
		b[lo] = ev
		q.buckets[idx] = b
		return
	}
	q.bucketAppend(idx, ev)
}

// Pop removes and returns the earliest event. It panics on an empty queue;
// use Len to guard.
func (q *CalendarQueue) Pop() Event {
	if q.n == 0 {
		panic("sim: Pop on empty CalendarQueue")
	}
	q.front()
	idx := q.cur & q.mask
	b := q.buckets[idx]
	if !q.sorted {
		q.sortSameTick(b[q.pos:])
		q.sorted = true
	}
	ev := b[q.pos]
	q.pos++
	q.n--
	q.nb--
	if q.pos == len(b) {
		q.drained(idx)
	}
	return ev
}

// Peek returns the earliest event without removing it. It panics on an empty
// queue.
func (q *CalendarQueue) Peek() Event {
	if q.n == 0 {
		panic("sim: Peek on empty CalendarQueue")
	}
	q.front()
	b := q.buckets[q.cur&q.mask]
	if !q.sorted {
		q.sortSameTick(b[q.pos:])
		q.sorted = true
	}
	return b[q.pos]
}

// PeekTime returns the earliest pending tick without removing anything. It
// panics on an empty queue.
func (q *CalendarQueue) PeekTime() Time {
	if q.n == 0 {
		panic("sim: PeekTime on empty CalendarQueue")
	}
	q.front()
	return q.cur
}

// PeekAt returns the earliest pending event if it is scheduled at exactly
// tick t, without removing it and — unlike Peek — without advancing the
// internal clock. The executors call it with the tick of the batch they are
// draining to detect events pushed back onto that tick; not advancing
// matters because moving cur past a tick the executor is about to push to
// would force a rebase.
func (q *CalendarQueue) PeekAt(t Time) (Event, bool) {
	if q.n == 0 || q.cur != t {
		return Event{}, false
	}
	b := q.buckets[q.cur&q.mask]
	if q.pos >= len(b) {
		return Event{}, false
	}
	if !q.sorted {
		q.sortSameTick(b[q.pos:])
		q.sorted = true
	}
	return b[q.pos], true
}

// PopTick removes every pending event at the earliest tick, appends them to
// dst in (Kind, Proc, Seq) order, and returns the tick and the extended
// slice. It panics on an empty queue. The clock stays on the returned tick,
// so events pushed at the same tick afterwards land at the front and are
// observable via PeekAt.
func (q *CalendarQueue) PopTick(dst []Event) (Time, []Event) {
	if q.n == 0 {
		panic("sim: PopTick on empty CalendarQueue")
	}
	q.front()
	idx := q.cur & q.mask
	b := q.buckets[idx]
	if !q.sorted {
		q.sortSameTick(b[q.pos:])
	}
	dst = append(dst, b[q.pos:]...)
	k := len(b) - q.pos
	q.n -= k
	q.nb -= k
	q.drained(idx)
	return q.cur, dst
}

// Len reports the number of pending events.
func (q *CalendarQueue) Len() int { return q.n }

// Reset empties the queue and restarts the tie-breaking sequence, keeping
// the bucket window and every backing array so a reused queue pushes into
// warm capacity.
//
// Every bucket is detached. Arrays larger than a chunk go onto the arrays
// stack; chunks (cap exactly bucketChunk) are reclaimed, with the chunks
// list, by rewinding the carve cursor, so the next run re-carves the same
// blocks no matter which buckets it touches.
func (q *CalendarQueue) Reset() {
	for i, b := range q.buckets {
		if cap(b) > bucketChunk {
			q.arrays = append(q.arrays, b[:0])
		}
		q.buckets[i] = nil
	}
	q.chunks = q.chunks[:0]
	q.bi = 0
	q.bo = 0
	q.over = q.over[:0]
	q.cur = 0
	q.pos = 0
	q.sorted = false
	q.n = 0
	q.nb = 0
	q.seq = 0
}

// Reserve is accepted for interface parity with HeapQueue. Bucket slices
// grow on demand and stay warm across Reset, so there is no single backing
// array to pre-size.
func (q *CalendarQueue) Reserve(n int) {}

// SetWindow sizes the bucket window for a maximum scheduling increment of
// span ticks: pushes at most span ahead of the current tick stay O(1), and
// only farther pushes spill to the overflow heap. The window is rounded up
// to a power of two and clamped to [64, 4096]; it only ever grows, so a
// queue shared across timing models keeps the largest window it has seen.
// Calls on a non-empty queue are ignored.
func (q *CalendarQueue) SetWindow(span Duration) {
	if q.n != 0 {
		return
	}
	target := minWindow
	for Duration(target) <= span && target < maxWindow {
		target <<= 1
	}
	if q.buckets == nil {
		q.init(target)
		return
	}
	if target <= len(q.buckets) {
		return
	}
	// Grow, keeping the warm per-bucket capacity accumulated so far.
	old := q.buckets
	q.init(target)
	copy(q.buckets, old)
}

func (q *CalendarQueue) init(window int) {
	q.buckets = make([][]Event, window)
	q.mask = Time(window) - 1
}

// front positions the clock on the earliest pending tick, migrating overflow
// events into buckets as they come within the window. Precondition: n > 0.
// Postcondition: the bucket at cur has an unconsumed event.
func (q *CalendarQueue) front() {
	if q.pos < len(q.buckets[q.cur&q.mask]) {
		return // still on a live tick
	}
	// The front bucket is exhausted (Pop and PopTick already drain it, so
	// this is always a cheap no-op or a reset of stale state).
	q.drained(q.cur & q.mask)
	if q.nb == 0 {
		// Everything pending lives in overflow: jump the clock straight to
		// its minimum instead of scanning empty buckets.
		q.cur = q.over[0].At
		q.migrate()
		return
	}
	w := Time(len(q.buckets))
	for {
		q.cur++
		if len(q.over) > 0 && q.over[0].At-q.cur < w {
			q.migrate()
		}
		if len(q.buckets[q.cur&q.mask]) > 0 {
			return
		}
	}
}

// migrate moves every overflow event that now falls inside the window into
// its bucket. Migrated events always land at or after cur — they were at
// least a full window ahead when pushed and the clock is checked on every
// advance — so the bucket invariant [cur, cur+window) is preserved.
func (q *CalendarQueue) migrate() {
	w := Time(len(q.buckets))
	for len(q.over) > 0 && q.over[0].At-q.cur < w {
		ev := q.overPop()
		q.nb++
		q.bucketAppend(ev.At&q.mask, ev)
	}
}

// rebase rehomes every pending event after a push earlier than the current
// front — non-monotone usage outside the executors' contract. O(n + window),
// allocation-free after the first call thanks to the spare scratch.
func (q *CalendarQueue) rebase(to Time) {
	tmp := q.spare[:0]
	front := q.cur & q.mask
	for i := range q.buckets {
		b := q.buckets[i]
		if Time(i) == front {
			b = b[q.pos:] // skip the consumed prefix
		}
		tmp = append(tmp, b...)
		q.buckets[i] = q.buckets[i][:0]
	}
	tmp = append(tmp, q.over...)
	q.over = q.over[:0]
	q.cur = to
	q.pos = 0
	q.sorted = false
	q.nb = 0
	for i := range tmp {
		q.place(tmp[i])
	}
	q.spare = tmp[:0]
}

// overPush inserts into the overflow min-heap, ordered by At alone. Order
// within a tick is irrelevant: events are re-sorted by (Kind, Proc, Seq)
// when their bucket is drained, and Seq is already assigned.
func (q *CalendarQueue) overPush(ev Event) {
	q.over = append(q.over, ev)
	i := len(q.over) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q.over[parent].At <= q.over[i].At {
			break
		}
		q.over[i], q.over[parent] = q.over[parent], q.over[i]
		i = parent
	}
}

func (q *CalendarQueue) overPop() Event {
	h := q.over
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	q.over = h[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h[right].At < h[left].At {
			least = right
		}
		if h[i].At <= h[least].At {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return ev
}

// sortSameTick restores (Kind, Proc, Seq) order within one tick's events.
// The common cases are already sorted — SM pushes steps in process order,
// single-sender delivery waves arrive in destination order — so a linear
// sortedness check runs first and usually wins.
func (q *CalendarQueue) sortSameTick(evs []Event) {
	for i := 1; i < len(evs); i++ {
		if SameTickLess(evs[i], evs[i-1]) {
			q.countingSort(evs)
			return
		}
	}
}

// maxCountProc bounds the (Kind, Proc) key space of the counting sort;
// events outside it (huge or negative Proc values from ad-hoc users, or
// unknown kinds) fall back to a comparison sort.
const maxCountProc = 4096

// countingSort is the same-tick sort for the executor workloads:
// multi-sender delivery waves interleave destination-ordered runs, which is
// a worst case for a comparison sort (O(m log m) swaps of 32-byte events)
// but a single stable scatter pass here. Scatter preserves slice order
// inside each (Kind, Proc) group; that is Seq order for bucket appends, and
// the final fixup pass repairs the rare groups that a rebase or an overflow
// migration left out of order.
func (q *CalendarQueue) countingSort(evs []Event) {
	maxProc := 0
	for i := range evs {
		e := &evs[i]
		if e.Proc < 0 || e.Proc >= maxCountProc || e.Kind < KindDelivery || e.Kind > KindStep {
			slices.SortFunc(evs, cmpSameTick)
			return
		}
		if e.Proc > maxProc {
			maxProc = e.Proc
		}
	}
	span := maxProc + 1
	nk := 2 * span // kinds are KindDelivery and KindStep
	if cap(q.cnt) < nk {
		q.cnt = make([]int32, nk)
	}
	cnt := q.cnt[:nk]
	clear(cnt)
	key := func(e *Event) int {
		return (int(e.Kind)-1)*span + e.Proc
	}
	for i := range evs {
		cnt[key(&evs[i])]++
	}
	sum := int32(0)
	for k := range cnt {
		c := cnt[k]
		cnt[k] = sum
		sum += c
	}
	if cap(q.spare) < len(evs) {
		q.spare = make([]Event, len(evs))
	}
	tmp := q.spare[:len(evs)]
	for i := range evs {
		k := key(&evs[i])
		tmp[cnt[k]] = evs[i]
		cnt[k]++
	}
	copy(evs, tmp)
	for i := 1; i < len(evs); i++ {
		if evs[i].Kind == evs[i-1].Kind && evs[i].Proc == evs[i-1].Proc && evs[i].Seq < evs[i-1].Seq {
			ev := evs[i]
			j := i
			for j > 0 && evs[j-1].Kind == ev.Kind && evs[j-1].Proc == ev.Proc && evs[j-1].Seq > ev.Seq {
				evs[j] = evs[j-1]
				j--
			}
			evs[j] = ev
		}
	}
}

func cmpSameTick(a, b Event) int {
	if a.Kind != b.Kind {
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	}
	if a.Proc != b.Proc {
		if a.Proc < b.Proc {
			return -1
		}
		return 1
	}
	if a.Seq < b.Seq {
		return -1
	}
	return 1
}
