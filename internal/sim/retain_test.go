package sim

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestEventLayout pins the event at 32 bytes with no pointer field, so
// bucket arrays are never scanned by the garbage collector and copying an
// event needs no write barrier.
func TestEventLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(Event{}) != 32 {
		t.Errorf("sizeof(Event) = %d, want 32", unsafe.Sizeof(Event{}))
	}
	typ := reflect.TypeOf(Event{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int, reflect.Int32, reflect.Int64, reflect.Uint64:
		default:
			t.Errorf("Event.%s is a %s; every field must be a plain integer", f.Name, f.Type)
		}
	}
}

// retainedSlots counts the event slots the queue keeps: bucket arrays
// larger than a chunk, the arrays stack, and the carved blocks (which hold
// every chunk, on a bucket or on the chunks list).
func (q *CalendarQueue) retainedSlots() int {
	slots := len(q.blocks) * bucketChunk * blockChunks
	for _, b := range q.buckets {
		if cap(b) > bucketChunk {
			slots += cap(b)
		}
	}
	for _, a := range q.arrays {
		slots += cap(a)
	}
	return slots
}

// TestQueueRetainsWhatIsPending drives broadcast-shaped waves over the
// window, as a message-passing run does: each of n processes steps every
// 1..10 ticks and every step sends n deliveries 1..28 ticks ahead. Once the
// waves drain, the queue must keep at most 2.5 times the peak pending
// slots. Buckets that each keep the largest tick they ever held keep
// more than four times as many.
func TestQueueRetainsWhatIsPending(t *testing.T) {
	const n, ticks = 64, 600
	var q CalendarQueue
	q.SetWindow(28)
	r := NewRNG(1)
	for p := 0; p < n; p++ {
		q.Push(Event{At: Time(1 + r.Intn(10)), Kind: KindStep, Proc: p})
	}
	peak := 0
	var batch []Event
	for q.Len() > 0 {
		peak = max(peak, q.Len())
		var now Time
		now, batch = q.PopTick(batch[:0])
		if now > ticks {
			continue // drain: no new waves
		}
		for _, ev := range batch {
			if ev.Kind != KindStep {
				continue
			}
			for dst := 0; dst < n; dst++ {
				q.Push(Event{At: now + Time(1+r.Intn(28)), Kind: KindDelivery, Proc: dst})
			}
			q.Push(Event{At: now + Time(1+r.Intn(10)), Kind: KindStep, Proc: ev.Proc})
		}
	}
	got := q.retainedSlots()
	t.Logf("peak pending %d, retained %d slots (%.2fx)", peak, got, float64(got)/float64(peak))
	if float64(got) > 2.5*float64(peak) {
		t.Fatalf("queue retains %d slots after draining a peak of %d pending (%.2fx), want <= 2.5x",
			got, peak, float64(got)/float64(peak))
	}
}
