// Package arena provides the allocation primitives behind the simulator hot
// path: a chunked slice arena for the per-step access records and a
// freelist for delivered-message buffers. Both are deterministic by
// construction — they only move memory around, never consult time, rand or
// the environment — and the lint suite pins the package inside the nodeterm
// deterministic set so that stays true.
//
// Each run owns the arena behind its recorded steps, so a handed-out trace
// is never overwritten; a freelist recycles buffers only within a scratch
// that no caller sees (see DESIGN.md §11).
package arena

// Chunk sizing: handed-out slices point into a chunk, and a chunk is never
// reallocated or moved once created, so growing the arena cannot invalidate
// earlier slices. Chunks may have different sizes: Reserve seeds an empty
// arena with one exactly-sized chunk, the first organic chunk starts small
// (short runs dominate, and a zeroed 1024-entry chunk of pointer-bearing
// records is the single biggest allocation of such a run), and later
// chunks use the full size to amortize long runs.
const (
	chunkSize      = 1024
	firstChunkSize = 256
)

// Chunked hands out small full-capacity slices of T backed by chunks. The
// zero value is ready to use. Only the chunk being filled is held here; a
// full chunk lives on through the slices handed out of it.
type Chunked[T any] struct {
	chunk []T
}

// One stores v and returns a 1-element slice with capacity 1 pointing at
// it. The slice never moves, however far the arena grows.
func (a *Chunked[T]) One(v T) []T {
	if len(a.chunk) == cap(a.chunk) {
		n := chunkSize
		if a.chunk == nil {
			n = firstChunkSize
		}
		a.chunk = make([]T, 0, n)
	}
	i := len(a.chunk)
	a.chunk = append(a.chunk, v)
	return a.chunk[i : i+1 : i+1]
}

// Reserve seeds an empty arena with a single chunk of capacity n, so a run
// whose record count is known in advance allocates exactly once. It is a
// no-op on an arena that already holds a chunk or for n <= 0; overflow
// past the reserved chunk falls back to regular chunks.
func (a *Chunked[T]) Reserve(n int) {
	if n > 0 && a.chunk == nil {
		a.chunk = make([]T, 0, n)
	}
}

// Freelist recycles variable-length []T buffers between producers and
// consumers of the same run (e.g. message buffers that are filled by
// delivery events and drained by process steps). The zero value is ready.
type Freelist[T any] struct {
	bufs [][]T
}

// Get returns a zero-length buffer, reusing the capacity of a previously
// Put one when available. It returns nil when the freelist is empty, which
// append handles transparently.
func (f *Freelist[T]) Get() []T {
	n := len(f.bufs)
	if n == 0 {
		return nil
	}
	buf := f.bufs[n-1]
	f.bufs[n-1] = nil
	f.bufs = f.bufs[:n-1]
	return buf
}

// Put recycles buf's backing array. Elements are cleared first so the
// freelist never keeps payload values (message bodies) reachable. Putting a
// nil or zero-capacity buffer is a no-op.
func (f *Freelist[T]) Put(buf []T) {
	if cap(buf) == 0 {
		return
	}
	clear(buf)
	f.bufs = append(f.bufs, buf[:0])
}

// Resize returns a slice of length n, reusing s's backing array when it is
// large enough. Contents are unspecified — callers fill every element. It
// is the shared helper for scratch-owned bookkeeping slices (idle times,
// crash flags, port lookups) that are rebuilt at the start of every run.
func Resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
