package sim

import (
	"testing"
)

// diffPair drives a CalendarQueue and a HeapQueue through the same operation
// sequence and fails the test at the first divergence. It is the oracle for
// the tentpole claim: the calendar queue pops byte-identical event sequences,
// including same-tick Kind/Proc/Seq tie-breaks.
type diffPair struct {
	t    *testing.T
	cal  CalendarQueue
	heap HeapQueue
	now  Time // executor-style current tick (last popped)
}

func (d *diffPair) push(ev Event) {
	d.cal.Push(ev)
	d.heap.Push(ev)
	if cl, hl := d.cal.Len(), d.heap.Len(); cl != hl {
		d.t.Fatalf("Len diverged after push: calendar=%d heap=%d", cl, hl)
	}
}

func (d *diffPair) pop() (Event, bool) {
	if d.heap.Len() == 0 {
		return Event{}, false
	}
	ce, he := d.cal.Pop(), d.heap.Pop()
	if ce != he {
		d.t.Fatalf("Pop diverged: calendar=%+v heap=%+v", ce, he)
	}
	d.now = ce.At
	return ce, true
}

func (d *diffPair) peekTime() {
	if d.heap.Len() == 0 {
		return
	}
	ct, ht := d.cal.PeekTime(), d.heap.PeekTime()
	if ct != ht {
		d.t.Fatalf("PeekTime diverged: calendar=%v heap=%v", ct, ht)
	}
}

func (d *diffPair) popTick(scratch []Event) []Event {
	if d.heap.Len() == 0 {
		return scratch
	}
	ctick, cb := d.cal.PopTick(scratch[:0])
	htick, hb := d.heap.PopTick(nil)
	if ctick != htick || len(cb) != len(hb) {
		d.t.Fatalf("PopTick diverged: calendar t=%v n=%d, heap t=%v n=%d", ctick, len(cb), htick, len(hb))
	}
	for i := range cb {
		if cb[i] != hb[i] {
			d.t.Fatalf("PopTick batch[%d] diverged: calendar=%+v heap=%+v", i, cb[i], hb[i])
		}
	}
	d.now = ctick
	return cb
}

func (d *diffPair) peekAt(t Time) {
	ce, cok := d.cal.PeekAt(t)
	he, hok := d.heap.PeekAt(t)
	if cok != hok || (cok && ce != he) {
		d.t.Fatalf("PeekAt(%v) diverged: calendar=(%+v,%v) heap=(%+v,%v)", t, ce, cok, he, hok)
	}
}

// runDifferential interprets a byte string as an operation sequence. The
// stream mimics the executors' monotone usage — pushes land at now plus a
// bounded increment — with deliberate excursions: increments past the
// calendar window (overflow heap), pushes onto the tick being drained
// (mid-drain sorted insert), and occasional non-monotone pushes (rebase).
func runDifferential(t *testing.T, data []byte) {
	d := &diffPair{t: t}
	d.cal.SetWindow(1) // clamps to the 64-tick minimum: smallest legal window
	var scratch []Event
	var msg int32
	next := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	for i := 0; i < len(data); i++ {
		op := data[i] % 8
		arg := next(i + 1)
		switch op {
		case 0, 1, 2: // bounded-increment push (the executors' contract)
			inc := Duration(arg % 96) // up to 1.5x the 64-tick window: exercises overflow
			msg++
			d.push(Event{
				At:   d.now.Add(inc),
				Kind: EventKind(arg%2) + 1,
				Proc: int(arg % 5),
				Msg:  msg,
			})
			i++
		case 3: // pop one
			d.pop()
		case 4: // batch-drain a whole tick
			scratch = d.popTick(scratch)
		case 5: // same-tick push while the tick is current, then observe it
			msg++
			d.push(Event{At: d.now, Kind: EventKind(arg%2) + 1, Proc: int(arg % 7), Msg: msg})
			d.peekAt(d.now)
			i++
		case 6: // peeks are pure: interleave them freely
			d.peekTime()
			d.peekAt(d.now)
		case 7:
			if arg%16 == 0 { // rare: reset both, restarting Seq
				d.cal.Reset()
				d.heap.Reset()
				d.now = 0
			} else if arg%4 == 0 && d.now > 4 { // rare: non-monotone push (rebase)
				msg++
				d.push(Event{At: d.now - 3, Kind: KindStep, Proc: int(arg % 5), Msg: msg})
			} else {
				d.pop()
			}
			i++
		}
	}
	// Drain the remainder one event at a time: every residual event must
	// match, including ones still parked in the calendar's overflow heap.
	for {
		if _, ok := d.pop(); !ok {
			break
		}
	}
	if d.cal.Len() != 0 {
		t.Fatalf("calendar not empty after drain: len=%d", d.cal.Len())
	}
}

func FuzzQueueDifferential(f *testing.F) {
	f.Add([]byte{0, 5, 0, 9, 3, 4, 5, 1, 0, 200, 7, 0, 3, 3, 3})
	f.Add([]byte{0, 23, 0, 23, 0, 23, 4, 5, 2, 6, 3, 7, 4, 0, 0})
	f.Add([]byte{2, 255, 1, 128, 0, 64, 7, 8, 4, 4, 4, 5, 3, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("cap input size: queue growth is linear in pushes")
		}
		runDifferential(t, data)
	})
}

// TestQueueDifferentialSeeded drives the differential interpreter over
// deterministic pseudo-random streams so the property is exercised on every
// plain `go test` run, not only under `go test -fuzz`.
func TestQueueDifferentialSeeded(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		r := NewRNG(seed)
		data := make([]byte, 800)
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		runDifferential(t, data)
	}
}

// TestQueueDifferentialSameTickTies pins the exact scenario the executors
// depend on: a burst of same-tick deliveries and steps from interleaved
// senders must pop in (Kind, Proc, Seq) order on both implementations.
func TestQueueDifferentialSameTickTies(t *testing.T) {
	d := &diffPair{t: t}
	for wave := 0; wave < 3; wave++ {
		at := Time(wave * 7)
		for src := 0; src < 4; src++ {
			for dst := 0; dst < 4; dst++ {
				d.push(Event{At: at, Kind: KindDelivery, Proc: dst, Msg: int32(src*10 + dst)})
			}
			d.push(Event{At: at, Kind: KindStep, Proc: src})
		}
	}
	var scratch []Event
	for d.heap.Len() > 0 {
		scratch = d.popTick(scratch)
	}
}

// TestQueueOverflowMigration pushes events far past the calendar window and
// checks they migrate back into buckets in the right order as the clock
// approaches them.
func TestQueueOverflowMigration(t *testing.T) {
	d := &diffPair{t: t}
	d.cal.SetWindow(16)
	// Fault-injected restart pauses can exceed any model bound; emulate a
	// striped mix of near and far events.
	for i := 0; i < 200; i++ {
		inc := Duration(i%5) * 37 // 0, 37, 74, 111, 148: mostly beyond the window
		d.push(Event{At: d.now.Add(inc), Kind: KindStep, Proc: i % 6, Msg: int32(i)})
		if i%3 == 0 {
			d.pop()
		}
	}
	for {
		if _, ok := d.pop(); !ok {
			break
		}
	}
}

// TestHeapQueueReserveKeepsCapacity pins the heap-specific Reserve contract
// (the calendar queue's Reserve is a documented no-op).
func TestHeapQueueReserveKeepsCapacity(t *testing.T) {
	var q HeapQueue
	q.Reserve(128)
	if cap(q.h) < 128 {
		t.Fatalf("Reserve(128): cap=%d", cap(q.h))
	}
	for i := 0; i < 100; i++ {
		q.Push(Event{At: Time(i), Kind: KindStep})
	}
	grown := cap(q.h)
	q.Reset()
	if q.Len() != 0 || cap(q.h) != grown {
		t.Fatalf("Reset: len=%d cap=%d, want 0 and %d", q.Len(), cap(q.h), grown)
	}
}
