package arena

import "testing"

func TestChunkedOneStoresAndIsolates(t *testing.T) {
	var a Chunked[int]
	s1 := a.One(10)
	s2 := a.One(20)
	if len(s1) != 1 || cap(s1) != 1 || s1[0] != 10 {
		t.Fatalf("s1 = %v (cap %d), want [10] cap 1", s1, cap(s1))
	}
	if s2[0] != 20 {
		t.Fatalf("s2 = %v, want [20]", s2)
	}
	// Full-capacity slicing: appending to a handed-out slice must not
	// clobber its neighbor.
	_ = append(s1, 99)
	if s2[0] != 20 {
		t.Fatal("append to s1 clobbered s2: handed-out slices share capacity")
	}
}

func TestChunkedSurvivesChunkBoundary(t *testing.T) {
	var a Chunked[int]
	first := a.One(-1)
	for i := 0; i < 3*chunkSize; i++ {
		a.One(i)
	}
	if first[0] != -1 {
		t.Fatal("growing the arena moved an earlier slice")
	}
}

func TestFreelistRoundTrip(t *testing.T) {
	var f Freelist[string]
	if got := f.Get(); got != nil {
		t.Fatalf("empty freelist returned %v", got)
	}
	buf := append(f.Get(), "a", "b", "c")
	f.Put(buf)
	got := f.Get()
	if len(got) != 0 || cap(got) < 3 {
		t.Fatalf("recycled buffer has len %d cap %d, want len 0 cap >= 3", len(got), cap(got))
	}
	// Put must clear elements so payload values are not retained.
	if full := got[:3]; full[0] != "" || full[1] != "" || full[2] != "" {
		t.Fatalf("Put left payloads behind: %v", full)
	}
	f.Put(nil) // no-op
	if got := f.Get(); got != nil {
		t.Fatalf("Put(nil) enqueued a buffer: %v", got)
	}
}

func TestFreelistSteadyStateAllocFree(t *testing.T) {
	var f Freelist[int]
	f.Put(make([]int, 0, 64))
	allocs := testing.AllocsPerRun(100, func() {
		buf := f.Get()
		for i := 0; i < 64; i++ {
			buf = append(buf, i)
		}
		f.Put(buf)
	})
	if allocs != 0 {
		t.Fatalf("freelist cycle allocated %.1f times per run, want 0", allocs)
	}
}

func TestResize(t *testing.T) {
	s := make([]int, 4, 16)
	grown := Resize(s, 10)
	if len(grown) != 10 || cap(grown) != 16 {
		t.Fatalf("Resize reallocated despite capacity: len %d cap %d", len(grown), cap(grown))
	}
	bigger := Resize(s, 32)
	if len(bigger) != 32 {
		t.Fatalf("Resize(32) has len %d", len(bigger))
	}
}
