package sessionproblem_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sessionproblem"
)

// Cache-on and cache-off must be observationally identical: same reports,
// same cells, byte for byte. These tests run every facade surface twice —
// without a cache, with a cold cache, and with a warm cache — and demand
// reflect.DeepEqual across all three.

func TestSolveCacheByteIdentical(t *testing.T) {
	cache := sessionproblem.NewRunCache()
	for _, comm := range []sessionproblem.Comm{sessionproblem.SharedMemory, sessionproblem.MessagePassing} {
		opts := []sessionproblem.Option{
			sessionproblem.WithSpec(2, 3),
			sessionproblem.WithSchedule("random", 5),
		}
		plain, err := sessionproblem.Solve(context.Background(),
			sessionproblem.Periodic, comm, opts...)
		if err != nil {
			t.Fatalf("%s plain: %v", comm, err)
		}
		cold, err := sessionproblem.Solve(context.Background(),
			sessionproblem.Periodic, comm,
			append(opts, sessionproblem.WithRunCache(cache))...)
		if err != nil {
			t.Fatalf("%s cold cache: %v", comm, err)
		}
		if !reflect.DeepEqual(plain, cold) {
			t.Errorf("%s: cold-cache report differs:\nplain: %+v\ncache: %+v", comm, plain, cold)
		}
		h0 := cache.Hits()
		warm, err := sessionproblem.Solve(context.Background(),
			sessionproblem.Periodic, comm,
			append(opts, sessionproblem.WithRunCache(cache))...)
		if err != nil {
			t.Fatalf("%s warm cache: %v", comm, err)
		}
		if !reflect.DeepEqual(plain, warm) {
			t.Errorf("%s: warm-cache report differs:\nplain: %+v\ncache: %+v", comm, plain, warm)
		}
		if cache.Hits() != h0+1 {
			t.Errorf("%s: warm solve hits = %d, want %d", comm, cache.Hits(), h0+1)
		}
	}
}

func TestSolveFaultedCacheByteIdentical(t *testing.T) {
	opts := []sessionproblem.Option{
		sessionproblem.WithSpec(2, 2),
		sessionproblem.WithSchedule("random", 3),
		sessionproblem.WithFaultPlan(sessionproblem.NewFaultPlan(2, 0.3)),
		sessionproblem.WithRetries(2),
		sessionproblem.WithRobustnessMargin(),
		sessionproblem.WithFaultIntensities(0, 0.3),
		sessionproblem.WithParallelism(2),
	}
	plain, err := sessionproblem.Solve(context.Background(),
		sessionproblem.Synchronous, sessionproblem.MessagePassing, opts...)
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	cache := sessionproblem.NewRunCache()
	cached, err := sessionproblem.Solve(context.Background(),
		sessionproblem.Synchronous, sessionproblem.MessagePassing,
		append(opts, sessionproblem.WithRunCache(cache))...)
	if err != nil {
		t.Fatalf("cold cache: %v", err)
	}
	if !reflect.DeepEqual(plain, cached) {
		t.Errorf("cold-cache faulted report differs:\nplain: %+v\ncache: %+v", plain, cached)
	}
	warm, err := sessionproblem.Solve(context.Background(),
		sessionproblem.Synchronous, sessionproblem.MessagePassing,
		append(opts, sessionproblem.WithRunCache(cache))...)
	if err != nil {
		t.Fatalf("warm cache: %v", err)
	}
	if !reflect.DeepEqual(plain, warm) {
		t.Errorf("warm-cache faulted report differs:\nplain: %+v\ncache: %+v", plain, warm)
	}
	if cache.Hits() == 0 {
		t.Error("warm faulted solve produced no cache hits")
	}
	// Mutating one report's violations must not leak into the next: the
	// cache hands out copies.
	if len(warm.Violations) > 0 {
		warm.Violations[0] = "CLOBBERED"
		again, err := sessionproblem.Solve(context.Background(),
			sessionproblem.Synchronous, sessionproblem.MessagePassing,
			append(opts, sessionproblem.WithRunCache(cache))...)
		if err != nil {
			t.Fatalf("third solve: %v", err)
		}
		if !reflect.DeepEqual(plain, again) {
			t.Error("caller mutation leaked into a later cached report")
		}
	}
}

func TestTable1CacheFacade(t *testing.T) {
	opts := []sessionproblem.Option{
		sessionproblem.WithSpec(2, 3),
		sessionproblem.WithSeeds(1),
		sessionproblem.WithParallelism(2),
	}
	plain, err := sessionproblem.Table1(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.CacheHits != 0 || plain.Stats.CacheMisses != 0 {
		t.Errorf("cache counters without cache: %d/%d", plain.Stats.CacheHits, plain.Stats.CacheMisses)
	}

	cache := sessionproblem.NewRunCache()
	cold, err := sessionproblem.Table1(context.Background(),
		append(opts, sessionproblem.WithRunCache(cache))...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Cells, cold.Cells) {
		t.Errorf("cold-cache cells differ")
	}
	if cold.Stats.CacheHits != 0 || cold.Stats.CacheMisses != int64(cold.Stats.Runs) {
		t.Errorf("cold stats hits/misses = %d/%d, want 0/%d",
			cold.Stats.CacheHits, cold.Stats.CacheMisses, cold.Stats.Runs)
	}
	warm, err := sessionproblem.Table1(context.Background(),
		append(opts, sessionproblem.WithRunCache(cache))...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Cells, warm.Cells) {
		t.Errorf("warm-cache cells differ")
	}
	if warm.Stats.CacheHits != int64(warm.Stats.Runs) || warm.Stats.CacheMisses != 0 {
		t.Errorf("warm stats hits/misses = %d/%d, want %d/0",
			warm.Stats.CacheHits, warm.Stats.CacheMisses, warm.Stats.Runs)
	}
	// Simulator accounting is attributed on hits too: aggregation reads the
	// same counts either way.
	if warm.Stats.Steps != plain.Stats.Steps || warm.Stats.Sessions != plain.Stats.Sessions {
		t.Errorf("warm counts diverge: steps %d vs %d, sessions %d vs %d",
			warm.Stats.Steps, plain.Stats.Steps, warm.Stats.Sessions, plain.Stats.Sessions)
	}
}

func TestSolvePerKindMargins(t *testing.T) {
	rep, err := sessionproblem.Solve(context.Background(),
		sessionproblem.Synchronous, sessionproblem.MessagePassing,
		sessionproblem.WithSpec(2, 2),
		sessionproblem.WithSchedule("random", 3),
		sessionproblem.WithFaultPlan(sessionproblem.NewFaultPlan(2, 0.3)),
		sessionproblem.WithPerKindMargins(),
		sessionproblem.WithFaultIntensities(0, 0.3),
		sessionproblem.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	kinds := sessionproblem.AllFaultKinds()
	if len(rep.RobustnessMargins) != len(kinds) {
		t.Fatalf("per-kind margins = %d entries, want %d: %v",
			len(rep.RobustnessMargins), len(kinds), rep.RobustnessMargins)
	}
	for _, k := range kinds {
		m, ok := rep.RobustnessMargins[k]
		if !ok {
			t.Errorf("kind %v missing from margins", k)
			continue
		}
		if m < -1 || m > 0.3 {
			t.Errorf("kind %v margin %v out of range", k, m)
		}
	}
	// The overall margin can never exceed the weakest per-kind margin when
	// the overall plan injects all kinds.
	for _, k := range kinds {
		if rep.RobustnessMargin > rep.RobustnessMargins[k]+1e-9 &&
			rep.RobustnessMargins[k] >= 0 {
			// Overall margin draws different fault schedules than the
			// single-kind rows, so strict dominance need not hold; only
			// sanity-check the bounds above.
			break
		}
	}
	// Determinism: a second call reproduces the margins exactly.
	rep2, err := sessionproblem.Solve(context.Background(),
		sessionproblem.Synchronous, sessionproblem.MessagePassing,
		sessionproblem.WithSpec(2, 2),
		sessionproblem.WithSchedule("random", 3),
		sessionproblem.WithFaultPlan(sessionproblem.NewFaultPlan(2, 0.3)),
		sessionproblem.WithPerKindMargins(),
		sessionproblem.WithFaultIntensities(0, 0.3),
		sessionproblem.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.RobustnessMargins, rep2.RobustnessMargins) {
		t.Errorf("per-kind margins not deterministic across parallelism:\n%v\nvs\n%v",
			rep.RobustnessMargins, rep2.RobustnessMargins)
	}
}

func TestWithCacheDirPersistsAcrossCalls(t *testing.T) {
	dir := t.TempDir()
	opts := []sessionproblem.Option{
		sessionproblem.WithSpec(2, 3),
		sessionproblem.WithSeeds(1),
		sessionproblem.WithParallelism(2),
	}
	plain, err := sessionproblem.Table1(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := sessionproblem.Table1(context.Background(),
		append(opts, sessionproblem.WithCacheDir(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Cells, cold.Cells) {
		t.Errorf("cold disk-cache cells differ from plain")
	}
	if cold.Stats.CacheMisses != int64(cold.Stats.Runs) || cold.Stats.CacheHits != 0 {
		t.Errorf("cold stats hits/misses = %d/%d, want 0/%d",
			cold.Stats.CacheHits, cold.Stats.CacheMisses, cold.Stats.Runs)
	}
	// Each call builds a fresh two-tier cache over the directory, so this
	// warm call's memory tier is empty: every hit below is served from disk,
	// proving the summaries persisted and decode back to identical results.
	warm, err := sessionproblem.Table1(context.Background(),
		append(opts, sessionproblem.WithCacheDir(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Cells, warm.Cells) {
		t.Errorf("disk-served cells differ from plain")
	}
	if warm.Stats.CacheHits != int64(warm.Stats.Runs) || warm.Stats.CacheMisses != 0 {
		t.Errorf("warm stats hits/misses = %d/%d, want %d/0",
			warm.Stats.CacheHits, warm.Stats.CacheMisses, warm.Stats.Runs)
	}
}

func TestWithCacheDirSolveAndMemTierCompose(t *testing.T) {
	dir := t.TempDir()
	mem := sessionproblem.NewRunCache()
	opts := []sessionproblem.Option{
		sessionproblem.WithSpec(2, 3),
		sessionproblem.WithSchedule("random", 5),
		sessionproblem.WithRunCache(mem),
		sessionproblem.WithCacheDir(dir),
	}
	plain, err := sessionproblem.Solve(context.Background(),
		sessionproblem.Periodic, sessionproblem.SharedMemory,
		sessionproblem.WithSpec(2, 3), sessionproblem.WithSchedule("random", 5))
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	cold, err := sessionproblem.Solve(context.Background(),
		sessionproblem.Periodic, sessionproblem.SharedMemory, opts...)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if !reflect.DeepEqual(plain, cold) {
		t.Errorf("cold disk-cache report differs:\nplain: %+v\ncache: %+v", plain, cold)
	}
	// The WithRunCache memory cache is the tiered cache's memory tier: the
	// run landed in it, so a memory-only call sees it too.
	if mem.Len() == 0 {
		t.Error("WithCacheDir did not compose with the WithRunCache memory tier")
	}
	warm, err := sessionproblem.Solve(context.Background(),
		sessionproblem.Periodic, sessionproblem.SharedMemory, opts...)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if !reflect.DeepEqual(plain, warm) {
		t.Errorf("warm disk-cache report differs:\nplain: %+v\ncache: %+v", plain, warm)
	}
}

func TestWithCacheDirUnusablePathFails(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sessionproblem.Table1(context.Background(),
		sessionproblem.WithSpec(2, 3), sessionproblem.WithSeeds(1),
		sessionproblem.WithCacheDir(file)); err == nil {
		t.Error("Table1 with a file as cache dir succeeded, want error")
	}
}

// TestJournalReplayWritesNoDiskObject: resuming a journaled call over a
// cache directory replays the journal into the memory tier only. Every
// frame's summary reached the disk tier when it was journaled, so the
// replay rewrites no object and adds none, and the resumed call returns
// the journaled results.
func TestJournalReplayWritesNoDiskObject(t *testing.T) {
	dir := t.TempDir()
	opts := []sessionproblem.Option{
		sessionproblem.WithSpec(2, 3),
		sessionproblem.WithSeeds(1),
		sessionproblem.WithParallelism(2),
		sessionproblem.WithCacheDir(dir),
		sessionproblem.WithJournal(filepath.Join(t.TempDir(), "t1.journal")),
	}
	objects := func() map[string]os.FileInfo {
		out := make(map[string]os.FileInfo)
		err := filepath.Walk(filepath.Join(dir, "objects"), func(path string, fi os.FileInfo, err error) error {
			if err == nil && fi.Mode().IsRegular() {
				out[path] = fi
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first, err := sessionproblem.Table1(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	before := objects()
	if len(before) == 0 {
		t.Fatal("the journaled call stored no disk object")
	}
	resumed, err := sessionproblem.Table1(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Cells, resumed.Cells) {
		t.Error("resumed cells differ from the journaled call's")
	}
	if resumed.Stats.CacheHits != int64(resumed.Stats.Runs) {
		t.Errorf("resumed call: %d hits over %d runs, want every run replayed",
			resumed.Stats.CacheHits, resumed.Stats.Runs)
	}
	after := objects()
	if len(after) != len(before) {
		t.Errorf("%d disk objects after the resumed call, %d before", len(after), len(before))
	}
	for path, fi := range before {
		if now, ok := after[path]; !ok || !os.SameFile(fi, now) || !now.ModTime().Equal(fi.ModTime()) {
			t.Errorf("disk object %s was rewritten during the resumed call", filepath.Base(path))
		}
	}
}
