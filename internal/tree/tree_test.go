package tree

import (
	"math"
	"testing"
	"testing/quick"

	"sessionproblem/internal/bounds"
	"sessionproblem/internal/model"
	"sessionproblem/internal/sm"
	"sessionproblem/internal/timing"
)

func TestKnowledgeMerge(t *testing.T) {
	k := FromSlice([]int{1, 5, 0})
	changed := k.MergeFrom(FromSlice([]int{3, 0, 2}))
	if !changed {
		t.Error("merge should report change")
	}
	if k.At(0) != 3 || k.At(1) != 5 || k.At(2) != 2 {
		t.Errorf("merge result wrong: %#v", k)
	}
	if k.MergeFrom(FromSlice([]int{1})) {
		t.Error("no-op merge reported change")
	}
}

func TestKnowledgeAllAtLeastAndMin(t *testing.T) {
	k := FromSlice([]int{2, 3})
	if !k.AllAtLeast(2, 2) {
		t.Error("AllAtLeast(2,2) should hold")
	}
	if k.AllAtLeast(2, 3) {
		t.Error("AllAtLeast(2,3) should fail")
	}
	if k.AllAtLeast(3, 1) {
		t.Error("missing port should count as 0")
	}
	if got := k.Min(2); got != 2 {
		t.Errorf("Min(2): got %d, want 2", got)
	}
	if got := k.Min(3); got != 0 {
		t.Errorf("Min(3): got %d, want 0", got)
	}
	var empty Knowledge
	if got := empty.Min(0); got != 0 {
		t.Errorf("Min(0): got %d, want 0", got)
	}
}

func TestKnowledgeWidening(t *testing.T) {
	k := NewKnowledge(5)
	for p, v := range []int{1, 300, 2, 70_000, 5_000_000_000} {
		k.Raise(p, v)
	}
	for p, want := range []int{1, 300, 2, 70_000, 5_000_000_000} {
		if got := k.At(p); got != want {
			t.Errorf("At(%d) after widening: got %d, want %d", p, got, want)
		}
	}
	if !k.AllAtLeast(5, 1) {
		t.Error("AllAtLeast(5,1) should hold after widening")
	}
	if got := k.Min(5); got != 1 {
		t.Errorf("Min(5): got %d, want 1", got)
	}
	other := NewKnowledge(5)
	other.Raise(0, 2)
	if !other.MergeFrom(k) {
		t.Error("merge from wider vector not reported")
	}
	if other.At(3) != 70_000 || other.At(0) != 2 {
		t.Errorf("cross-width merge wrong: %#v", other)
	}
	narrow := NewKnowledge(5)
	narrow.Raise(1, 7)
	if !k.MergeFrom(narrow) && k.At(1) != 300 {
		t.Errorf("merge from narrower vector wrong: %#v", k)
	}
}

func TestKnowledgeClone(t *testing.T) {
	k := FromSlice([]int{1})
	c := k.Clone()
	c.Raise(0, 9)
	if k.At(0) != 1 {
		t.Error("Clone aliases original")
	}
}

func TestMergeCellNilSafety(t *testing.T) {
	k := NewKnowledge(4)
	if MergeCell(&k, nil) {
		t.Error("merging nil value reported change")
	}
	if MergeCell(&k, "garbage") {
		t.Error("merging foreign value reported change")
	}
	if !MergeCell(&k, Cell{Know: FromSlice([]int{0, 4})}) {
		t.Error("real merge not reported")
	}
	if k.At(1) != 4 {
		t.Errorf("merge result wrong: %#v", k)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(0, 3, 1, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Build(4, 1, 1, 1); err == nil {
		t.Error("b=1 accepted")
	}
}

func TestBuildShape(t *testing.T) {
	tests := []struct {
		n, b       int
		wantRelays int
		wantDepth  int
	}{
		{n: 1, b: 2, wantRelays: 1, wantDepth: 1},
		{n: 2, b: 3, wantRelays: 1, wantDepth: 1},
		{n: 4, b: 3, wantRelays: 2 + 1, wantDepth: 2},
		{n: 8, b: 3, wantRelays: 4 + 2 + 1, wantDepth: 3},
		{n: 9, b: 4, wantRelays: 3 + 1, wantDepth: 2},
	}
	for _, tt := range tests {
		nw, err := Build(tt.n, tt.b, 10, 1)
		if err != nil {
			t.Fatalf("Build(%d,%d): %v", tt.n, tt.b, err)
		}
		if got := nw.NumRelays(); got != tt.wantRelays {
			t.Errorf("Build(%d,%d) relays: got %d, want %d", tt.n, tt.b, got, tt.wantRelays)
		}
		if nw.Depth != tt.wantDepth {
			t.Errorf("Build(%d,%d) depth: got %d, want %d", tt.n, tt.b, nw.Depth, tt.wantDepth)
		}
		if len(nw.PortVars) != tt.n {
			t.Errorf("Build(%d,%d) port vars: got %d", tt.n, tt.b, len(nw.PortVars))
		}
		if nw.PortVars[0] != 10 {
			t.Errorf("first var: got %v, want 10", nw.PortVars[0])
		}
	}
}

// TestBuildRespectsBBound verifies statically that no variable is wired to
// more than b processes (port processes count for their port variable).
func TestBuildRespectsBBound(t *testing.T) {
	for _, tt := range []struct{ n, b int }{{1, 2}, {5, 2}, {16, 3}, {33, 5}, {64, 4}} {
		nw, err := Build(tt.n, tt.b, 0, 1)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		users := make(map[model.VarID]int)
		for _, v := range nw.PortVars {
			users[v]++ // the port process itself
		}
		for _, r := range nw.Relays {
			for _, v := range r.Vars() {
				users[v]++
			}
		}
		for v, c := range users {
			if c > tt.b {
				t.Errorf("n=%d b=%d: var %v used by %d > b processes", tt.n, tt.b, v, c)
			}
		}
	}
}

// announcer is a port process that writes progress 1 to its port at its
// first step, then keeps reading until it sees everyone at >= 1, then idles.
type announcer struct {
	port    int
	n       int
	v       model.VarID
	know    Knowledge
	stepped bool
	idle    bool
}

func newAnnouncer(port, n int, v model.VarID) *announcer {
	return &announcer{port: port, n: n, v: v, know: NewKnowledge(n)}
}

func (a *announcer) Target() model.VarID { return a.v }

func (a *announcer) Step(old sm.Value) sm.Value {
	if a.idle {
		return old
	}
	a.know.MergeFrom(cellKnow(old))
	if !a.stepped {
		a.stepped = true
		a.know.Raise(a.port, 1)
	}
	if a.know.AllAtLeast(a.n, 1) {
		a.idle = true
	}
	return Cell{Know: a.know.Clone()}
}

func (a *announcer) Idle() bool { return a.idle }

func buildAnnouncerSystem(t *testing.T, n, b int) (*sm.System, *Network) {
	t.Helper()
	nw, err := Build(n, b, 0, 1)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sys := &sm.System{B: b}
	for i := 0; i < n; i++ {
		sys.Procs = append(sys.Procs, newAnnouncer(i, n, nw.PortVars[i]))
		sys.Ports = append(sys.Ports, sm.PortBinding{Var: nw.PortVars[i], Proc: i})
	}
	sys.Procs = append(sys.Procs, nw.Processes()...)
	return sys, nw
}

// TestPropagationEndToEnd runs announcers over the tree and checks that the
// executor terminates with everyone informed, under several n and b.
func TestPropagationEndToEnd(t *testing.T) {
	for _, tt := range []struct{ n, b int }{{1, 2}, {2, 2}, {3, 2}, {8, 3}, {16, 2}, {27, 4}} {
		sys, _ := buildAnnouncerSystem(t, tt.n, tt.b)
		m := timing.NewAsynchronousSM(4)
		res, err := sm.Run(sys, m.NewScheduler(timing.Random, 17), sm.Options{})
		if err != nil {
			t.Fatalf("n=%d b=%d: %v", tt.n, tt.b, err)
		}
		if got := res.Trace.CountSessions(); got < 1 {
			t.Errorf("n=%d b=%d: sessions %d < 1", tt.n, tt.b, got)
		}
	}
}

// TestPropagationRoundCount checks the O(log_b n) shape: rounds to complete
// grow logarithmically, not linearly, in n.
func TestPropagationRoundCount(t *testing.T) {
	rounds := func(n int) int {
		sys, _ := buildAnnouncerSystem(t, n, 3)
		m := timing.NewAsynchronousSM(1) // lockstep round-robin
		res, err := sm.Run(sys, m.NewScheduler(timing.Slow, 1), sm.Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		return res.Trace.CountRounds()
	}
	r8, r64 := rounds(8), rounds(64)
	if r64 > 4*r8 {
		// Depth grows from 3 to 6 when n goes 8 -> 64 at arity 2; rounds
		// must scale with depth (x2), not with n (x8).
		t.Errorf("rounds grew too fast: rounds(8)=%d rounds(64)=%d", r8, r64)
	}
}

// TestRelayIdlesAfterCompletion ensures relays shut down and the final
// knowledge is complete at every port variable.
func TestRelayIdlesAfterCompletion(t *testing.T) {
	sys, nw := buildAnnouncerSystem(t, 6, 3)
	m := timing.NewAsynchronousSM(3)
	res, err := sm.Run(sys, m.NewScheduler(timing.Random, 5), sm.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, r := range nw.Relays {
		if !r.Idle() {
			t.Error("relay did not idle")
		}
		kn := r.Know()
		if !kn.AllAtLeast(6, 1) {
			t.Errorf("relay idled with incomplete knowledge: %#v", kn)
		}
	}
	_ = res
}

func TestRelayStaysIdle(t *testing.T) {
	r := NewRelay([]model.VarID{1}, 1, 1)
	r.Step(Cell{Know: FromSlice([]int{1})}) // learns port 0 done; schedules final sweep
	r.Step(nil)                             // final sweep
	if !r.Idle() {
		t.Fatal("relay should be idle after final sweep")
	}
	out := r.Step(Cell{Know: FromSlice([]int{5})})
	if c, ok := out.(Cell); !ok || c.Know.At(0) != 5 {
		t.Error("idle relay must return its input unchanged")
	}
	if !r.Idle() {
		t.Error("relay left idle state")
	}
}

// TestCommStepsIsATrueBound checks that bounds.CommSteps dominates the
// measured one-way propagation cost of the real tree: an announcement made
// at one port reaches every port within CommSteps lockstep rounds, across a
// range of n and b.
func TestCommStepsIsATrueBound(t *testing.T) {
	for _, tt := range []struct{ n, b int }{
		{2, 2}, {4, 2}, {16, 2}, {9, 3}, {27, 4}, {64, 3}, {40, 5},
	} {
		sys, _ := buildAnnouncerSystem(t, tt.n, tt.b)
		m := timing.NewAsynchronousSM(1) // lockstep: one round per tick
		res, err := sm.Run(sys, m.NewScheduler(timing.Slow, 1), sm.Options{})
		if err != nil {
			t.Fatalf("n=%d b=%d: %v", tt.n, tt.b, err)
		}
		rounds := res.Trace.CountRounds()
		limit := bounds.CommSteps(tt.n, tt.b)
		if rounds > limit {
			t.Errorf("n=%d b=%d: %d propagation rounds exceed CommSteps=%d",
				tt.n, tt.b, rounds, limit)
		}
	}
}

// Property: merging is idempotent, commutative and monotone.
func TestMergeProperties(t *testing.T) {
	gen := func(seed uint64) Knowledge {
		k := NewKnowledge(5)
		s := seed
		for i := 0; i < 4; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			k.Raise(int(s%5), int(s%7))
		}
		return k
	}
	f := func(s1, s2 uint64) bool {
		a, b := gen(s1), gen(s2)
		ab := a.Clone()
		ab.MergeFrom(b)
		ba := b.Clone()
		ba.MergeFrom(a)
		// Commutative.
		for p := 0; p < 5; p++ {
			if ab.At(p) != ba.At(p) {
				return false
			}
		}
		// Idempotent.
		again := ab.Clone()
		if again.MergeFrom(b) {
			return false
		}
		// Monotone.
		for p := 0; p < 5; p++ {
			if ab.At(p) < a.At(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// laneWidths are the four lane widths a vector can take.
var laneWidths = [...]uint{8, 16, 32, 64}

// fuzzVector builds a vector of n entries at lane width w (widened up
// front, as a vector is after a large value passed through it) with
// values drawn from data; each value fits the width.
func fuzzVector(n int, w uint, data []byte, salt byte) (Knowledge, []int) {
	k := NewKnowledge(n)
	k.widenTo(w)
	vals := make([]int, n)
	for p := range vals {
		var x uint64
		for j := 0; j < 8 && len(data) > 0; j++ {
			x = x<<8 | uint64(data[(p*3+j)%len(data)]^salt^byte(p))
		}
		// Small values most of the time, so the two sides often tie.
		switch x % 4 {
		case 0, 1:
			x %= 4
		case 2:
			x %= 128
		}
		vals[p] = int(x % uint64(maxLaneValue(w)+1))
		k.set(p, vals[p])
	}
	return k, vals
}

// FuzzMergeFromMatchesScalar checks the word-parallel merge against a
// per-port scalar maximum: vector lengths that end mid-word, every lane
// width, mixed widths on the two sides and unequal lengths. MergeFrom must
// produce the scalar result, report a change exactly when some port rose,
// and leave the floor summary consistent with the true minimum.
func FuzzMergeFromMatchesScalar(f *testing.F) {
	for _, seed := range []struct {
		na, nb uint16
		wa, wb uint8
	}{{5, 5, 0, 0}, {9, 9, 0, 0}, {131, 131, 0, 1}, {70, 64, 1, 0}, {33, 40, 2, 3}, {3, 3, 3, 3}, {1, 1, 0, 2}} {
		f.Add(seed.na, seed.nb, seed.wa, seed.wb, false, []byte("\x01\x07\x00\x7f\x80\xff\x10\x02\x03"))
		f.Add(seed.na, seed.nb, seed.wa, seed.wb, true, []byte("\x05\x00\x00\x09"))
	}
	f.Fuzz(func(t *testing.T, na, nb uint16, wa, wb uint8, dominated bool, data []byte) {
		n1, n2 := int(na%300)+1, int(nb%300)+1
		w1, w2 := laneWidths[wa%4], laneWidths[wb%4]
		k, a := fuzzVector(n1, w1, data, 0x5a)
		other, b := fuzzVector(n2, w2, data, 0xc3)
		if dominated {
			// other adds nothing: every shared port is at most k's value.
			for p := 0; p < min(n1, n2); p++ {
				b[p] = min(b[p], a[p])
				other.set(p, b[p])
			}
		}
		want := append([]int(nil), a...)
		wantChanged := false
		for p := 0; p < min(n1, n2); p++ {
			if b[p] > want[p] {
				want[p] = b[p]
				wantChanged = true
			}
		}
		if got := k.MergeFrom(other); got != wantChanged {
			t.Fatalf("n=%d/%d w=%d/%d: changed = %v, want %v", n1, n2, w1, w2, got, wantChanged)
		}
		for p, v := range want {
			if got := k.At(p); got != v {
				t.Fatalf("n=%d/%d w=%d/%d: port %d = %d, want %d", n1, n2, w1, w2, p, got, v)
			}
		}
		lo := want[0]
		for _, v := range want {
			lo = min(lo, v)
		}
		if !k.AllAtLeast(n1, lo) || lo < math.MaxInt && k.AllAtLeast(n1, lo+1) {
			t.Fatalf("n=%d/%d w=%d/%d: floor inconsistent with minimum %d", n1, n2, w1, w2, lo)
		}
		if got := k.Min(n1); got != lo {
			t.Fatalf("n=%d/%d w=%d/%d: Min = %d, want %d", n1, n2, w1, w2, got, lo)
		}
		if k.MergeFrom(other) {
			t.Fatalf("n=%d/%d w=%d/%d: repeated merge reported a change", n1, n2, w1, w2)
		}
	})
}

// TestRecycledSnapshotGetsFreshStamp: a snapshot buffer recycled and
// cloned again is a new snapshot with a new stamp, so a process that
// remembers the old snapshot still merges the cell that reuses its buffer.
func TestRecycledSnapshotGetsFreshStamp(t *testing.T) {
	pool := NewPool()
	var seen Seen
	mine := FromSlice([]int{1, 2, 3})
	left := seen.Publish(mine, pool) // the process leaves this in its variable
	pool.Recycle(left, nil)          // another process overwrites it
	next := FromSlice([]int{5, 0, 9}).ClonePooled(pool)
	if !sharesWords(left.Know, next) {
		t.Fatal("the clone did not reuse the recycled buffer; the test needs it to")
	}
	if next.stamp == 0 || next.stamp == left.Know.stamp {
		t.Fatalf("recycled buffer kept stamp %d (old %d)", next.stamp, left.Know.stamp)
	}
	if !seen.Merge(&mine, Cell{Know: next}) {
		t.Fatal("cell reusing the remembered snapshot's buffer was not merged")
	}
	if got := []int{mine.At(0), mine.At(1), mine.At(2)}; got[0] != 5 || got[1] != 2 || got[2] != 9 {
		t.Fatalf("merge result %v, want [5 2 9]", got)
	}
}

// TestSeenSkipsOnlyTheRememberedSnapshot: Merge skips a cell holding the
// snapshot it remembers (even were its content new, which the invariant
// rules out) and merges any other cell, stamped or not.
func TestSeenSkipsOnlyTheRememberedSnapshot(t *testing.T) {
	pool := NewPool()
	var seen Seen
	know := FromSlice([]int{1, 1})
	mine := seen.Publish(know, pool)
	forged := mine
	forged.Know.words = FromSlice([]int{7, 7}).words // same stamp, new content
	if seen.Merge(&know, forged) || know.At(0) != 1 {
		t.Fatal("the remembered snapshot was merged again")
	}
	if !seen.Merge(&know, Cell{Know: FromSlice([]int{2, 0})}) || know.At(0) != 2 {
		t.Fatal("an unstamped cell was not merged")
	}
	var fresh Seen // remembers nothing, so a stamp of 0 must not match it
	empty := NewKnowledge(2)
	if !fresh.Merge(&empty, Cell{Know: FromSlice([]int{1, 0})}) ||
		!fresh.Merge(&empty, Cell{Know: FromSlice([]int{1, 4})}) || empty.At(1) != 4 {
		t.Fatal("unstamped cells were not all merged")
	}
	other := FromSlice([]int{2, 3}).ClonePooled(pool)
	if !seen.Merge(&know, Cell{Know: other}) || know.At(1) != 3 {
		t.Fatal("another process's snapshot was not merged")
	}
	if seen.Merge(&know, Cell{Know: other}) {
		t.Fatal("a snapshot merged once was merged again")
	}
	if FromSlice([]int{1}).Clone().stamp != 0 || mine.Know.Clone().stamp != 0 {
		t.Fatal("Clone kept a stamp")
	}
}
