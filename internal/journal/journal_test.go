package journal_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"sessionproblem/internal/core"
	"sessionproblem/internal/engine"
	"sessionproblem/internal/journal"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "run.journal")
}

func testSummary(i int) *core.RunSummary {
	return &core.RunSummary{
		Algorithm: "A(test)",
		Model:     timing.Kind(1),
		Spec:      core.Spec{S: 2, N: 2},
		Sessions:  2,
		Finish:    sim.Time(100 + i),
		Steps:     10 * i,
	}
}

func appendFrames(t *testing.T, w *journal.Writer, n int) (keys []string, payloads [][]byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		payload, err := core.EncodeSummary(testSummary(i))
		if err != nil {
			t.Fatalf("EncodeSummary: %v", err)
		}
		if err := w.Append(key, payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
		keys = append(keys, key)
		payloads = append(payloads, payload)
	}
	return keys, payloads
}

func scanAll(t *testing.T, path string) (journal.Stats, []string, [][]byte) {
	t.Helper()
	var keys []string
	var payloads [][]byte
	st, err := journal.Scan(path, func(key string, payload []byte) error {
		keys = append(keys, key)
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return st, keys, payloads
}

func TestScanMissingFileIsEmpty(t *testing.T) {
	st, err := journal.Scan(filepath.Join(t.TempDir(), "absent"), nil)
	if err != nil {
		t.Fatalf("Scan missing file: %v", err)
	}
	if st != (journal.Stats{}) {
		t.Fatalf("Scan missing file: stats = %+v, want zero", st)
	}
}

func TestAppendScanRoundTrip(t *testing.T) {
	path := journalPath(t)
	w, st, err := journal.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if st.Frames != 0 {
		t.Fatalf("fresh journal reports %d frames", st.Frames)
	}
	keys, payloads := appendFrames(t, w, 5)
	if got := w.Frames(); got != 5 {
		t.Fatalf("Frames() = %d, want 5", got)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st, gotKeys, gotPayloads := scanAll(t, path)
	if st.Frames != 5 || st.Damaged {
		t.Fatalf("Scan stats = %+v, want 5 clean frames", st)
	}
	fi, _ := os.Stat(path)
	if st.Bytes != fi.Size() {
		t.Fatalf("Scan bytes = %d, file size %d", st.Bytes, fi.Size())
	}
	for i := range keys {
		if gotKeys[i] != keys[i] || !bytes.Equal(gotPayloads[i], payloads[i]) {
			t.Fatalf("frame %d: got (%q, %x), want (%q, %x)", i, gotKeys[i], gotPayloads[i], keys[i], payloads[i])
		}
	}
}

// TestReopenResumesAppending pins that open-append-close-open-append yields
// one contiguous journal.
func TestReopenResumesAppending(t *testing.T) {
	path := journalPath(t)
	w, _, err := journal.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendFrames(t, w, 3)
	w.Close()

	w, st, err := journal.Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if st.Frames != 3 || st.Damaged {
		t.Fatalf("reopen stats = %+v, want 3 clean frames", st)
	}
	if err := w.Append("late", []byte("payload")); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if got := w.Frames(); got != 4 {
		t.Fatalf("Frames() after reopen = %d, want 4", got)
	}
	w.Close()
	st, keys, _ := scanAll(t, path)
	if st.Frames != 4 || keys[3] != "late" {
		t.Fatalf("after reopen scan = %+v keys %v, want 4 frames ending in \"late\"", st, keys)
	}
}

func TestTornTailIsToleratedAndTruncatedOnOpen(t *testing.T) {
	path := journalPath(t)
	w, _, err := journal.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	keys, _ := appendFrames(t, w, 3)
	w.Close()

	garbage := []byte("torn tail from a kill mid-write")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("append garbage: %v", err)
	}
	f.Write(garbage)
	f.Close()

	st, gotKeys, _ := scanAll(t, path)
	if st.Frames != 3 || !st.Damaged || st.DroppedBytes != int64(len(garbage)) {
		t.Fatalf("Scan of torn journal = %+v, want 3 frames, damaged, %d dropped", st, len(garbage))
	}
	if len(gotKeys) != 3 || gotKeys[2] != keys[2] {
		t.Fatalf("torn journal replayed keys %v", gotKeys)
	}

	// Open must truncate the garbage so new appends stay reachable.
	w, st, err = journal.Open(path)
	if err != nil {
		t.Fatalf("reopen torn journal: %v", err)
	}
	if st.Frames != 3 || !st.Damaged {
		t.Fatalf("reopen stats = %+v", st)
	}
	if fi, _ := os.Stat(path); fi.Size() != st.Bytes {
		t.Fatalf("open left %d bytes, want truncation to %d", fi.Size(), st.Bytes)
	}
	if err := w.Append("after-damage", []byte("x")); err != nil {
		t.Fatalf("Append after truncation: %v", err)
	}
	w.Close()
	st, gotKeys, _ = scanAll(t, path)
	if st.Frames != 4 || st.Damaged || gotKeys[3] != "after-damage" {
		t.Fatalf("post-repair scan = %+v keys %v", st, gotKeys)
	}
}

func TestTornFrameBodyStopsScan(t *testing.T) {
	path := journalPath(t)
	w, _, _ := journal.Open(path)
	appendFrames(t, w, 2)
	w.Close()

	// A frame whose header landed but whose body was cut short mid-write.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	fi, _ := f.Stat()
	whole := fi.Size()
	w2 := &bytes.Buffer{}
	w2.Write([]byte("SPJL"))                       // magic
	w2.Write([]byte{1, 0, 0, 0})                   // version + reserved
	w2.Write([]byte{5, 0, 0, 0, 200, 0, 0, 0})     // keyLen=5, dataLen=200
	w2.Write([]byte{0, 0, 0, 0})                   // crc (irrelevant: body is short)
	w2.Write([]byte("key-2 but the payload dies")) // far fewer than 205 bytes
	f.Write(w2.Bytes())
	f.Close()

	st, keys, _ := scanAll(t, path)
	if st.Frames != 2 || !st.Damaged || st.Bytes != whole {
		t.Fatalf("Scan = %+v (prefix %d), want 2 frames and a damaged tail", st, whole)
	}
	if len(keys) != 2 {
		t.Fatalf("replayed %d frames, want 2", len(keys))
	}
}

// TestDamagedLengthAllocatesNothing: a header whose length field claims
// more bytes than the file holds ends the scan before the body is
// allocated, so damage to a length costs nothing.
func TestDamagedLengthAllocatesNothing(t *testing.T) {
	path := journalPath(t)
	hdr := make([]byte, 20)
	copy(hdr, "SPJL")
	hdr[4] = 1                                       // version
	binary.LittleEndian.PutUint32(hdr[8:12], 60<<20) // a 60 MiB key
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := journal.Scan(path, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != 0 || !st.Damaged {
		t.Errorf("Scan = %+v, want no frames and a damaged tail", st)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("Scan of a %d-byte journal allocated %d bytes", len(hdr), alloc)
	}
}

func TestBitFlippedFrameStopsScan(t *testing.T) {
	path := journalPath(t)
	w, _, _ := journal.Open(path)
	keys, payloads := appendFrames(t, w, 3)
	w.Close()

	// Flip one payload byte inside the second frame. Frame layout is
	// header + key + payload, so the offset is computable from lengths.
	frame0 := int64(20 + len(keys[0]) + len(payloads[0]))
	flipAt := frame0 + 20 + int64(len(keys[1])) + 3
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[flipAt] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st, gotKeys, _ := scanAll(t, path)
	if st.Frames != 1 || !st.Damaged || st.Bytes != frame0 {
		t.Fatalf("Scan of bit-flipped journal = %+v, want 1 frame, prefix %d", st, frame0)
	}
	if len(gotKeys) != 1 || gotKeys[0] != keys[0] {
		t.Fatalf("replayed keys %v, want just %q", gotKeys, keys[0])
	}

	// Repair truncates to the surviving prefix; repairing again is a no-op.
	rst, err := journal.Repair(path)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if rst.Frames != 1 || !rst.Damaged || rst.DroppedBytes != int64(len(raw))-frame0 {
		t.Fatalf("Repair stats = %+v", rst)
	}
	if fi, _ := os.Stat(path); fi.Size() != frame0 {
		t.Fatalf("Repair left %d bytes, want %d", fi.Size(), frame0)
	}
	rst, err = journal.Repair(path)
	if err != nil || rst.Damaged || rst.Frames != 1 {
		t.Fatalf("second Repair = %+v, %v; want clean no-op", rst, err)
	}
}

func TestRepairMissingJournalFails(t *testing.T) {
	if _, err := journal.Repair(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("Repair of a missing journal succeeded; want error")
	}
}

func TestLoadReplaysIntoCache(t *testing.T) {
	path := journalPath(t)
	w, _, _ := journal.Open(path)
	keys, _ := appendFrames(t, w, 4)
	// An intact frame holding a payload from a future codec version: Load
	// must skip it (the cell recomputes on resume), not fail or guess.
	if err := w.Append("skewed", []byte(`{"v":999}`)); err != nil {
		t.Fatal(err)
	}
	w.Close()

	cache := engine.NewRunCache()
	ls, err := journal.Load(path, cache)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if ls.Loaded != 4 || ls.Skipped != 1 || ls.Frames != 5 || ls.Damaged {
		t.Fatalf("LoadStats = %+v, want 4 loaded, 1 skipped, 5 frames", ls)
	}
	for i, key := range keys {
		v, ok := cache.Get(key)
		if !ok {
			t.Fatalf("cache miss for replayed key %q", key)
		}
		sum := v.(*core.RunSummary)
		if want := testSummary(i); *sumEssentials(sum) != *sumEssentials(want) {
			t.Fatalf("replayed summary %d = %+v, want %+v", i, sum, want)
		}
	}
	if _, ok := cache.Get("skewed"); ok {
		t.Fatal("version-skewed frame was loaded into the cache")
	}
}

// sumEssentials projects the fields the tests populate into a comparable.
func sumEssentials(s *core.RunSummary) *struct {
	Alg      string
	Finish   int64
	Steps    int
	Sessions int
} {
	return &struct {
		Alg      string
		Finish   int64
		Steps    int
		Sessions int
	}{s.Algorithm, int64(s.Finish), s.Steps, s.Sessions}
}

func TestCacheDecoratorJournalsPuts(t *testing.T) {
	path := journalPath(t)
	w, _, _ := journal.Open(path)
	defer w.Close()
	mem := engine.NewRunCache()
	c := journal.NewCache(mem, w)

	if _, ok := c.Get("absent"); ok {
		t.Fatal("Get on empty cache hit")
	}
	sum := testSummary(7)
	c.Put("k7", sum)
	if v, ok := c.Get("k7"); !ok || v.(*core.RunSummary) != sum {
		t.Fatal("decorated Put did not reach the inner cache")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hit/miss accounting = %d/%d, want 1/1", c.Hits(), c.Misses())
	}
	if got := w.Frames(); got != 1 {
		t.Fatalf("journal holds %d frames after a summary Put, want 1", got)
	}
	// Non-summary values pass through unjournaled.
	c.Put("other", 42)
	if got := w.Frames(); got != 1 {
		t.Fatalf("journal holds %d frames after a non-summary Put, want 1", got)
	}
	if c.AppendErrors() != 0 {
		t.Fatalf("AppendErrors = %d, want 0", c.AppendErrors())
	}

	// The journaled frame replays into a fresh cache.
	fresh := engine.NewRunCache()
	ls, err := journal.Load(path, fresh)
	if err != nil || ls.Loaded != 1 {
		t.Fatalf("Load = %+v, %v", ls, err)
	}
	if _, ok := fresh.Get("k7"); !ok {
		t.Fatal("replay of a decorator-journaled frame missed")
	}
}

func TestGateBlocksAppends(t *testing.T) {
	t.Setenv(journal.GateEnv, "2")
	path := journalPath(t)
	w, _, err := journal.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendFrames(t, w, 2)

	blocked := make(chan struct{})
	go func() {
		w.Append("gated", []byte("never lands"))
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("gated append returned; want it to block forever")
	case <-time.After(100 * time.Millisecond): //lint:allow nodeterm crash-test gate verification, test-only timing
	}
	if got := w.Frames(); got != 2 {
		t.Fatalf("Frames() = %d after gate, want 2", got)
	}
}
