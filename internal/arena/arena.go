// Package arena provides the allocation-recycling primitives behind the
// simulator hot path: a chunked slice arena for the per-step access records
// and a freelist for delivered-message buffers. Both are deterministic by
// construction — they only move memory around, never consult time, rand or
// the environment — and the lint suite pins the package inside the nodeterm
// deterministic set so that stays true.
//
// Ownership rule (see DESIGN.md §11): memory handed out by an arena or
// freelist belongs to the current run. Reset and Put recycle it wholesale,
// so any slice obtained before a Reset is invalid afterwards. Executors
// surface this as the Scratch contract: a Result produced with a given
// Scratch is valid only until the next run with the same Scratch.
package arena

// Chunk sizing: handed-out slices point into a chunk, and chunks are never
// reallocated or moved once created, so growing the arena cannot invalidate
// earlier slices. Chunks may have different sizes: Reserve seeds an empty
// arena with one exactly-sized chunk, the first organic chunk starts small
// (short runs dominate the fresh-scratch path, and a zeroed 1024-entry
// chunk of pointer-bearing records is the single biggest allocation of such
// a run), and later chunks use the full size to amortize long runs.
const (
	chunkSize      = 1024
	firstChunkSize = 256
)

// Chunked hands out small full-capacity slices of T backed by chunks. The
// zero value is ready to use; Reset recycles every chunk for the next run
// without freeing them.
type Chunked[T any] struct {
	chunks [][]T
	ci     int // index of the chunk currently being filled
	used   int // entries used in chunks[ci]
}

// One stores v and returns a 1-element slice with capacity 1 pointing at
// it. The slice stays valid (and immovable) until the next Reset.
func (a *Chunked[T]) One(v T) []T {
	if a.ci == len(a.chunks) {
		n := chunkSize
		if len(a.chunks) == 0 {
			n = firstChunkSize
		}
		a.chunks = append(a.chunks, make([]T, n))
	}
	c := a.chunks[a.ci]
	i := a.used
	c[i] = v
	a.used++
	if a.used == len(c) {
		a.ci++
		a.used = 0
	}
	return c[i : i+1 : i+1]
}

// Reserve seeds an empty arena with a single chunk of capacity n, so a run
// whose record count is known in advance allocates exactly once. It is a
// no-op on an arena that already owns chunks (warm scratch reuse) or for
// n <= 0; overflow past the reserved chunk falls back to regular chunks.
func (a *Chunked[T]) Reserve(n int) {
	if n > 0 && len(a.chunks) == 0 {
		a.chunks = append(a.chunks, make([]T, n))
	}
}

// Reset recycles all chunks for reuse. Previously handed-out slices become
// invalid: the next run will overwrite their contents.
func (a *Chunked[T]) Reset() {
	a.ci, a.used = 0, 0
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
