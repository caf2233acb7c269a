// Package tree implements the Section-3 communication substrate for the
// shared-memory model: a b-bounded relay tree that propagates information
// from any port process to all others in O(log_b n) steps.
//
// Layout. The n port variables are the leaves. Relay processes form a tree
// with branching factor max(b-1, 2). A leaf relay polls the port variables
// of its child ports; an interior relay polls one "edge" variable per child
// relay. Every variable on the tree is therefore accessed by exactly two
// processes (parent and child, or port process and leaf relay), which
// satisfies the b-bound for every b >= 2. A relay's sweep costs
// (children + 1) steps and the tree has O(log_b n) levels, so one-way
// propagation costs O(log_b n) steps for constant b, matching Section 3.
//
// Payload. Every variable on the tree carries a Cell holding a Knowledge
// vector: for each port, the largest progress value it has announced.
// Relays cycle through their variables merging knowledge both ways
// (read-merge-write), so any announcement climbs to the root and spreads
// back down to every leaf within O(depth) relay sweeps. Progress values are
// monotone by construction, which makes merging order-insensitive.
//
// Representation. Knowledge packs its per-port progress values into uint64
// words, several lanes per word, with the lane width (8/16/32/64 bits)
// widening automatically when a value overflows. Each lane keeps its top
// bit spare, which lets MergeFrom compute a per-lane maximum and AllAtLeast
// a per-lane comparison with a handful of word-parallel operations (SWAR) —
// O(n/lanes) per merge instead of O(n). A monotone cached floor (every lane
// is known to be >= floor) short-circuits the AllAtLeast checks that
// dominate the confirmers' steady state. Snapshots published into cells are
// cloned through a per-network freelist (Pool) and, when the executor runs
// with discarded steps, recycled on overwrite, which keeps memory O(ports)
// at any n. The word buffers are then reused, but each publish still boxes
// one Cell into the variable's interface value: one small allocation per
// publish, and publishes are a minority of steps.
//
// Skipped merges. Every snapshot cloned through a network's Pool carries a
// stamp unique within that network; a recycled buffer gets a fresh stamp
// when it is cloned again. Each process remembers, per variable it
// accesses (Seen), the stamp of the snapshot it last read or wrote there.
// Knowledge only grows, so while the variable still holds that snapshot a
// merge would change nothing, and the process skips it. Relays revisit
// their variables in a cycle and most visits find the cell as they left
// it, so a step pays the O(n/lanes) merge only when another process has
// written its variable since.
package tree

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"sessionproblem/internal/model"
	"sessionproblem/internal/sm"
)

// wordsInFlight tracks knowledge words handed out (fresh allocations and
// pool reuses) minus words returned to a Pool. Under a streaming run with
// recycling it approximates the live packed-knowledge footprint; without
// recycling it is a cumulative allocation counter. Exposed for the
// sessiond /v1/stats mem block.
var wordsInFlight atomic.Int64

// KnowledgeWords reports the package-wide count of packed knowledge words
// in flight (handed out and not yet recycled).
func KnowledgeWords() int64 { return wordsInFlight.Load() }

// Knowledge records, per port index, the largest progress value announced
// by that port; entry p covers port p and absent entries (beyond Len)
// count as progress 0. Values are non-negative and monotone per entry.
// Merging takes the pointwise maximum.
//
// The zero value is an empty vector. Copying a Knowledge copies the word
// slice header, so two copies share storage: use Clone for a snapshot.
type Knowledge struct {
	n     int    // tracked entries
	width uint   // bits per lane: 8, 16, 32 or 64
	floor int    // cached summary: every entry in [0, n) is >= floor
	stamp uint64 // snapshot identity from Pool.stamp; 0 = not a pooled snapshot
	words []uint64
}

// Lane-width helpers. Values occupy width-1 bits; the top bit of every lane
// stays spare so SWAR comparisons never borrow across lanes.
func hiMask(w uint) uint64 {
	switch w {
	case 8:
		return 0x8080808080808080
	case 16:
		return 0x8000800080008000
	case 32:
		return 0x8000000080000000
	default:
		return 1 << 63
	}
}

func loMask(w uint) uint64 {
	switch w {
	case 8:
		return 0x0101010101010101
	case 16:
		return 0x0001000100010001
	case 32:
		return 0x0000000100000001
	default:
		return 1
	}
}

// maxLaneValue is the largest value a lane of width w can hold.
func maxLaneValue(w uint) int {
	if w >= 64 {
		return int(^uint64(0) >> 1) // values are ints; the spare bit caps at 2^63-1
	}
	return int(uint64(1)<<(w-1)) - 1
}

// widthFor returns the smallest supported lane width holding v.
func widthFor(v int) uint {
	for _, w := range [...]uint{8, 16, 32} {
		if v <= maxLaneValue(w) {
			return w
		}
	}
	return 64
}

// wordsFor returns the word count covering n lanes of width w.
func wordsFor(n int, w uint) int {
	lpw := int(64 / w)
	return (n + lpw - 1) / lpw
}

func newWords(n int) []uint64 {
	wordsInFlight.Add(int64(n))
	return make([]uint64, n)
}

// NewKnowledge returns a zeroed knowledge vector covering ports [0, n).
func NewKnowledge(n int) Knowledge {
	if n <= 0 {
		return Knowledge{width: 8}
	}
	return Knowledge{n: n, width: 8, words: newWords(wordsFor(n, 8))}
}

// FromSlice builds a knowledge vector from explicit per-port values
// (test helper; values must be non-negative).
func FromSlice(vals []int) Knowledge {
	k := NewKnowledge(len(vals))
	for p, v := range vals {
		if v < 0 {
			panic("tree: impossible construction: negative progress value " + strconv.Itoa(v))
		}
		k.Raise(p, v)
	}
	return k
}

// Len returns the number of tracked entries.
func (k Knowledge) Len() int { return k.n }

// At returns port p's progress (0 for ports beyond the vector).
func (k Knowledge) At(p int) int {
	if p < 0 || p >= k.n {
		return 0
	}
	lpw := int(64 / k.width)
	sh := uint(p%lpw) * k.width
	return int(k.words[p/lpw] >> sh & uint64(maxLaneValue(k.width)))
}

// set overwrites entry p (caller guarantees 0 <= p < n, 0 <= v <= lane max).
func (k *Knowledge) set(p, v int) {
	lpw := int(64 / k.width)
	sh := uint(p%lpw) * k.width
	lane := uint64(maxLaneValue(k.width)) << sh
	k.words[p/lpw] = k.words[p/lpw]&^lane | uint64(v)<<sh
}

// Raise lifts entry p to at least v, widening the lane width if v
// overflows the current representation. Entries beyond Len are ignored.
func (k *Knowledge) Raise(p, v int) {
	if p < 0 || p >= k.n || v <= k.At(p) {
		return
	}
	if v > maxLaneValue(k.width) {
		k.widenTo(widthFor(v))
	}
	k.set(p, v)
}

// widenTo re-encodes the vector at a wider lane width.
func (k *Knowledge) widenTo(w uint) {
	if w <= k.width {
		return
	}
	old := *k
	k.width = w
	k.words = newWords(wordsFor(k.n, w))
	for p := 0; p < k.n; p++ {
		k.set(p, old.At(p))
	}
}

// maxLanes returns the per-lane maximum of a and b (both with spare high
// bits clear) at lane width w.
func maxLanes(a, b uint64, w uint) uint64 {
	h := hiMask(w)
	ge := ((a | h) - b) & h >> (w - 1) // 1 at each lane's low bit where a >= b
	sel := (h - ge) ^ h                // all-ones lanes where a >= b
	return a&sel | b&^sel
}

// MergeFrom raises k's entries to at least those of other, reporting
// whether anything changed. Entries of other beyond k's length are
// ignored; callers size every vector they merge to the same port count.
// Matching lane widths merge word-parallel; a width mismatch widens k (or
// falls back to a per-entry scan when other is narrower), which happens at
// most a handful of times over a vector's life.
func (k *Knowledge) MergeFrom(other Knowledge) bool {
	n := min(k.n, other.n)
	if n == 0 || other.words == nil {
		return false
	}
	if other.width > k.width {
		k.widenTo(other.width)
	}
	changed := false
	if other.width < k.width {
		for p := 0; p < n; p++ {
			if v := other.At(p); v > k.At(p) {
				k.set(p, v)
				changed = true
			}
		}
	} else {
		changed = mergeWords(k.words, other.words, n, k.width)
	}
	if other.n >= k.n && other.floor > k.floor {
		k.floor = other.floor
	}
	return changed
}

// mergeWords raises the first n lanes (width w) of dst to the lane-wise
// maximum with src and reports whether any lane rose. The whole words go
// through maxWords; a partial final word, with src's lanes beyond n masked
// off, is merged once after it.
func mergeWords(dst, src []uint64, n int, w uint) bool {
	lpw := int(64 / w)
	full := n / lpw
	diff := maxWords(dst[:full], src[:full], hiMask(w), w-1)
	if rem := n - full*lpw; rem > 0 {
		a := dst[full]
		m := maxLanes(a, src[full]&(uint64(1)<<(uint(rem)*w)-1), w)
		diff |= m ^ a
		dst[full] = m
	}
	return diff != 0
}

// maxWords is maxLanes over whole words, d[i] = max(d[i], s[i]) lane-wise,
// with the lane masks hoisted out of the loop: h is hiMask(w) and sh is
// w-1. It returns the OR of every changed bit, zero when d is unchanged. A
// word is stored only when it rises, so a merge that learns nothing writes
// nothing; the loop sits apart from mergeWords so that its few live values
// stay in registers.
func maxWords(d, s []uint64, h uint64, sh uint) (diff uint64) {
	s = s[:len(d)]
	for i, a := range d {
		b := s[i]
		ge := ((a | h) - b) & h >> (sh & 63) // 1 at each lane's low bit where a >= b
		sel := (h - ge) ^ h                  // all-ones lanes where a >= b
		if m := a&sel | b&^sel; m != a {
			diff |= m ^ a
			d[i] = m
		}
	}
	return diff
}

// AllAtLeast reports whether every port in [0, n) has progress >= v. The
// scan is word-parallel — O(n/lanes) — and a success over the full vector
// is cached in the floor summary, so repeated confirmations of the same
// threshold are O(1). Values only grow, so the floor never invalidates.
func (k *Knowledge) AllAtLeast(n, v int) bool {
	if v <= 0 {
		return true
	}
	if n > k.n {
		return false // absent ports count as progress 0
	}
	if v <= k.floor {
		return true
	}
	if v > maxLaneValue(k.width) {
		return false // no lane can hold a value that large yet
	}
	h := hiMask(k.width)
	bv := uint64(v) * loMask(k.width)
	lpw := int(64 / k.width)
	nw := (n + lpw - 1) / lpw
	for wi := 0; wi < nw; wi++ {
		um := h
		if rem := n - wi*lpw; rem < lpw && k.width != 64 {
			um &= uint64(1)<<(uint(rem)*k.width) - 1
		}
		if ((k.words[wi]|h)-bv)&um != um {
			return false
		}
	}
	if n == k.n && v > k.floor {
		k.floor = v
	}
	return true
}

// minLanes returns the per-lane minimum of a and b (spare high bits clear).
func minLanes(a, b uint64, w uint) uint64 {
	h := hiMask(w)
	ge := ((a | h) - b) & h >> (w - 1)
	sel := (h - ge) ^ h // all-ones lanes where a >= b
	return b&sel | a&^sel
}

// Min returns the smallest progress over ports [0, n) (0 for absent
// ports). Each word folds to its lane minimum in log2(lanes) SWAR steps,
// so the scan is O(n/lanes); a full-vector result refreshes the floor.
func (k *Knowledge) Min(n int) int {
	if n <= 0 {
		return 0
	}
	if n > k.n {
		return 0 // absent ports count as progress 0
	}
	lpw := int(64 / k.width)
	nw := (n + lpw - 1) / lpw
	pad := ^hiMask(k.width) // every lane at its maximum value
	best := maxLaneValue(k.width)
	for wi := 0; wi < nw; wi++ {
		w := k.words[wi]
		if rem := n - wi*lpw; rem < lpw && k.width != 64 {
			w |= pad &^ (uint64(1)<<(uint(rem)*k.width) - 1)
		}
		// Tournament fold: halves, quarters, ... — garbage shifts into the
		// upper lanes but the chain feeding lane 0 only ever uses lanes
		// that were valid at the previous stage.
		for sh := uint(32); sh >= k.width; sh >>= 1 {
			w = minLanes(w, w>>sh, k.width)
		}
		if m := int(w & uint64(maxLaneValue(k.width))); m < best {
			best = m
		}
	}
	if n == k.n && best > k.floor {
		k.floor = best
	}
	return best
}

// Clone returns a freshly allocated copy of k. The copy is a vector of its
// own, not a pooled snapshot, so it carries no stamp.
func (k Knowledge) Clone() Knowledge {
	out := k
	out.stamp = 0
	if k.words != nil {
		out.words = newWords(len(k.words))
		copy(out.words, k.words)
	}
	return out
}

// ClonePooled is Clone with the word buffer drawn from pool when one of
// the right capacity is available (nil pool falls back to Clone). The
// snapshot gets the pool's next stamp, so no two snapshots cloned through
// one pool share a stamp, even when one reuses the other's recycled buffer.
func (k Knowledge) ClonePooled(pool *Pool) Knowledge {
	if pool == nil || k.words == nil {
		return k.Clone()
	}
	out := k
	out.words = pool.get(len(k.words))
	copy(out.words, k.words)
	pool.stamp++
	out.stamp = pool.stamp
	return out
}

// GoString renders the canonical per-port values, independent of lane
// width and floor caching, so content-equal vectors compare equal under
// %#v (the executor's value-stability probe).
func (k Knowledge) GoString() string {
	vals := make([]int, k.n)
	for p := range vals {
		vals[p] = k.At(p)
	}
	return fmt.Sprintf("tree.Knowledge%v", vals)
}

// sharesWords reports whether two vectors share a word buffer.
func sharesWords(a, b Knowledge) bool {
	return len(a.words) > 0 && len(b.words) > 0 && &a.words[0] == &b.words[0]
}

// Pool recycles the word buffers behind published knowledge snapshots and
// stamps every snapshot it clones. One executor goroutine owns a network
// (and therefore its pool), so no locking is needed. Returned buffers keep
// their stale words: the words hold no pointers, and the clone that reuses
// a buffer overwrites all of it.
type Pool struct {
	free  [][]uint64 // returned buffers, reused last in first out
	stamp uint64     // last stamp handed out
}

// NewPool returns an empty snapshot pool.
func NewPool() *Pool { return &Pool{} }

// get returns a buffer of exactly n words, reusing a pooled buffer of
// sufficient capacity when one exists. A reused buffer's contents are
// unspecified; the caller overwrites every word.
func (p *Pool) get(n int) []uint64 {
	if k := len(p.free); k > 0 {
		buf := p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
		if cap(buf) >= n {
			wordsInFlight.Add(int64(n))
			return buf[:n]
		}
	}
	// Undersized pooled buffers (a width widening grew the clone size) are
	// dropped for the collector; the pool refills at the new size.
	return newWords(n)
}

// put returns a buffer to the pool.
func (p *Pool) put(buf []uint64) {
	if cap(buf) == 0 {
		return
	}
	wordsInFlight.Add(-int64(len(buf)))
	p.free = append(p.free, buf)
}

// Recycle is the executor overwrite hook (sm.System.Recycle): when a
// variable's cell is replaced and the replacement does not share the old
// cell's buffer, the old snapshot's words return to the pool. Only safe
// when recorded steps are discarded (no trace retains the old cell) —
// which is exactly when the executor invokes the hook.
func (p *Pool) Recycle(old, new sm.Value) {
	oc, ok := old.(Cell)
	if !ok {
		return
	}
	if nc, ok := new.(Cell); ok && sharesWords(oc.Know, nc.Know) {
		return
	}
	p.put(oc.Know.words)
}

// Cell is the value stored in every tree variable (port variables
// included). The knowledge inside a published cell is an immutable
// snapshot: readers merge from it, never into it.
type Cell struct {
	Know Knowledge
}

// cellKnow extracts the knowledge from a variable value (nil-safe:
// variables start at the zero value).
func cellKnow(v sm.Value) Knowledge {
	if v == nil {
		return Knowledge{}
	}
	c, ok := v.(Cell)
	if !ok {
		return Knowledge{}
	}
	return c.Know
}

// MergeCell merges the knowledge in variable value v into know, reporting
// whether know changed. It suits a one-off merge; a process that revisits
// a variable merges through its Seen for that variable instead.
func MergeCell(know *Knowledge, v sm.Value) bool {
	return know.MergeFrom(cellKnow(v))
}

// Seen is one process's memory of one variable: the stamp of the last
// pooled snapshot it read from or wrote to that variable. The process's
// knowledge contains that snapshot, and knowledge only grows, so while the
// variable still holds the snapshot a merge from it would change nothing.
// The zero value remembers nothing.
type Seen uint64

// Merge merges the knowledge in variable value v into know, reporting
// whether know changed, and remembers v's snapshot. It skips the merge
// when v is the snapshot s already remembers. Unstamped values (nil, a
// Clone, a foreign value) are always merged.
func (s *Seen) Merge(know *Knowledge, v sm.Value) bool {
	k := cellKnow(v)
	if k.stamp != 0 && k.stamp == uint64(*s) {
		return false
	}
	*s = Seen(k.stamp)
	return know.MergeFrom(k)
}

// Publish snapshots know through pool into a cell for the variable and
// remembers the snapshot.
func (s *Seen) Publish(know Knowledge, pool *Pool) Cell {
	snap := know.ClonePooled(pool)
	*s = Seen(snap.stamp)
	return Cell{Know: snap}
}

// Relay is one relay process. It cycles through its variable list (children
// edge/port variables first, then the parent edge variable), merging its
// local knowledge with each variable's cell in a single read-modify-write
// step. It idles once every port has announced progress >= doneAt and it has
// completed one more full sweep to push that fact everywhere.
//
// Publishing is lazy: a relay re-snapshots into a variable only when its
// knowledge changed since it last wrote that slot. A step that has nothing
// new to say returns the variable's current value unchanged — information
// already merged flows on, and idle sweeps allocate nothing. Merging is
// lazy too: a variable still holding the snapshot the relay last read or
// wrote there is not merged again.
type Relay struct {
	vars    []model.VarID
	i       int
	know    Knowledge
	nPorts  int
	doneAt  int
	sweepsL int // full sweeps left once knowledge is complete; -1 = not yet
	idle    bool

	pool  *Pool
	seq   uint64      // bumped whenever know changes
	slots []relaySlot // per variable, parallel to vars
}

// relaySlot is a relay's memory of one of its variables.
type relaySlot struct {
	pubSeq uint64 // seq at the last snapshot written there
	seen   Seen   // the snapshot the variable held when last stepped
}

var _ sm.Process = (*Relay)(nil)

// NewRelay builds a relay over the given variables. doneAt is the progress
// value meaning "this port has finished"; once all ports reach it the relay
// performs one more full sweep and idles. pool (optional) supplies snapshot
// buffers.
func NewRelay(vars []model.VarID, nPorts, doneAt int) *Relay {
	return &Relay{
		vars:    vars,
		know:    NewKnowledge(nPorts),
		nPorts:  nPorts,
		doneAt:  doneAt,
		sweepsL: -1,
		seq:     1,
		slots:   make([]relaySlot, len(vars)),
	}
}

// SetPool routes the relay's snapshot clones through pool.
func (r *Relay) SetPool(pool *Pool) { r.pool = pool }

// Target returns the variable for the relay's next step.
func (r *Relay) Target() model.VarID { return r.vars[r.i] }

// Step merges the relay's knowledge with the target variable's cell.
func (r *Relay) Step(old sm.Value) sm.Value {
	if r.idle {
		return old
	}
	slot := &r.slots[r.i]
	if slot.seen.Merge(&r.know, old) {
		r.seq++
	}
	r.i++
	if r.i == len(r.vars) {
		r.i = 0
		switch {
		case r.sweepsL > 0:
			r.sweepsL--
			if r.sweepsL == 0 {
				r.idle = true
			}
		case r.sweepsL < 0 && r.know.AllAtLeast(r.nPorts, r.doneAt):
			// Knowledge is complete; one more sweep spreads it to every
			// variable this relay serves, then the relay can idle.
			r.sweepsL = 1
		}
	}
	if slot.pubSeq == r.seq {
		// The snapshot last written here already carries everything the
		// relay knows (whoever overwrote it merged that snapshot first).
		return old
	}
	slot.pubSeq = r.seq
	return slot.seen.Publish(r.know, r.pool)
}

// Idle reports whether the relay has shut down.
func (r *Relay) Idle() bool { return r.idle }

// Know exposes the relay's current knowledge (for tests).
func (r *Relay) Know() Knowledge { return r.know }

// Vars exposes the relay's variable cycle (for tests and step accounting).
func (r *Relay) Vars() []model.VarID { return r.vars }

// Network is the assembled relay tree for n ports with access bound b.
type Network struct {
	// PortVars[i] is the variable serving as port i (accessed by port
	// process i and one leaf relay).
	PortVars []model.VarID
	// Relays are the relay processes, leaf level first.
	Relays []*Relay
	// Depth is the number of relay levels.
	Depth int
	// NextVar is the first variable ID not used by the tree.
	NextVar model.VarID
	// Pool recycles published snapshot buffers for every process on the
	// tree (relays and the port processes the algorithms attach).
	Pool *Pool
}

// Build constructs the relay tree for n ports under access bound b >= 2,
// allocating variable IDs from firstVar upward. doneAt configures when
// relays may shut down (see NewRelay).
func Build(n, b int, firstVar model.VarID, doneAt int) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("tree: need at least one port, got %d", n)
	}
	if b < 2 {
		return nil, fmt.Errorf("tree: b must be at least 2, got %d", b)
	}
	arity := b - 1
	if arity < 2 {
		arity = 2
	}

	nw := &Network{NextVar: firstVar, Pool: NewPool()}
	alloc := func() model.VarID {
		v := nw.NextVar
		nw.NextVar++
		return v
	}
	for i := 0; i < n; i++ {
		nw.PortVars = append(nw.PortVars, alloc())
	}

	// Level 0: leaf relays polling up to arity port variables each.
	level := make([]*Relay, 0, (n+arity-1)/arity)
	for lo := 0; lo < n; lo += arity {
		hi := min(lo+arity, n)
		vars := make([]model.VarID, 0, hi-lo+1)
		vars = append(vars, nw.PortVars[lo:hi]...)
		level = append(level, NewRelay(vars, n, doneAt))
	}
	nw.Relays = append(nw.Relays, level...)
	nw.Depth = 1

	// Interior levels: each group of up to arity relays hangs off one
	// parent relay via per-child edge variables (two users each), until a
	// single root remains.
	for len(level) > 1 {
		next := make([]*Relay, 0, (len(level)+arity-1)/arity)
		for lo := 0; lo < len(level); lo += arity {
			hi := min(lo+arity, len(level))
			edges := make([]model.VarID, 0, hi-lo)
			for _, child := range level[lo:hi] {
				edge := alloc()
				child.vars = append(child.vars, edge)
				child.slots = append(child.slots, relaySlot{})
				edges = append(edges, edge)
			}
			next = append(next, NewRelay(edges, n, doneAt))
		}
		nw.Relays = append(nw.Relays, next...)
		level = next
		nw.Depth++
	}
	for _, r := range nw.Relays {
		r.SetPool(nw.Pool)
	}
	return nw, nil
}

// NumRelays returns the number of relay processes.
func (nw *Network) NumRelays() int { return len(nw.Relays) }

// Processes returns the relays as sm.Process values, for appending to a
// System's process list.
func (nw *Network) Processes() []sm.Process {
	out := make([]sm.Process, len(nw.Relays))
	for i, r := range nw.Relays {
		out[i] = r
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
