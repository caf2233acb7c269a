package sessionproblem_test

import (
	"bytes"
	"context"
	"testing"

	"sessionproblem"
	"sessionproblem/wire"
)

// renderTable1 runs the full Table-1 matrix under the given options and
// returns the canonical wire bytes plus the call's stats.
func renderTable1(t *testing.T, opts ...sessionproblem.Option) ([]byte, sessionproblem.Stats) {
	t.Helper()
	res, err := sessionproblem.Table1(context.Background(), opts...)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	data, err := wire.MarshalTable(res.Cells)
	if err != nil {
		t.Fatalf("MarshalTable: %v", err)
	}
	return data, res.Stats
}

// TestSeedBatchingGolden is the golden determinism gate for seed batching:
// the full Table-1 matrix must produce byte-identical wire output batched
// and sequential, at parallelism 1 and N, and on a cache-warm repeat —
// while the stats confirm the batched groups actually shared runs.
func TestSeedBatchingGolden(t *testing.T) {
	base := []sessionproblem.Option{
		sessionproblem.WithSpec(2, 3),
		sessionproblem.WithSeeds(3),
	}
	seq, seqStats := renderTable1(t, append(base,
		sessionproblem.WithSeedBatching(false), sessionproblem.WithParallelism(1))...)
	if seqStats.BatchForks+seqStats.BatchFallbacks != 0 {
		t.Errorf("sequential mode reported batch activity: %+v", seqStats)
	}
	for _, par := range []int{1, 8} {
		got, stats := renderTable1(t, append(base,
			sessionproblem.WithSeedBatching(true), sessionproblem.WithParallelism(par))...)
		if !bytes.Equal(got, seq) {
			t.Errorf("batched output at parallelism %d differs from sequential:\nbatched:    %s\nsequential: %s", par, got, seq)
		}
		if stats.BatchForks == 0 {
			t.Errorf("batched mode at parallelism %d shared no runs: %+v", par, stats)
		}
	}

	// Cache-warm repeat: every seed is a cache hit, so the batch layer stays
	// idle and the bytes still match.
	cache := sessionproblem.NewRunCache()
	cold, _ := renderTable1(t, append(base, sessionproblem.WithRunCache(cache))...)
	warm, warmStats := renderTable1(t, append(base, sessionproblem.WithRunCache(cache))...)
	if !bytes.Equal(cold, warm) {
		t.Errorf("cache-warm output differs from cold:\ncold: %s\nwarm: %s", cold, warm)
	}
	if !bytes.Equal(cold, seq) {
		t.Errorf("cached batched output differs from sequential")
	}
	if warmStats.BatchForks+warmStats.BatchFallbacks != 0 {
		t.Errorf("cache-warm call reported batch activity: %+v", warmStats)
	}
	if warmStats.CacheHits == 0 {
		t.Errorf("cache-warm call reported no cache hits: %+v", warmStats)
	}
}

// TestSeedBatchingSweepGolden extends the byte-identity gate to the sweep
// path, whose seed spans flow through the same batch runner.
func TestSeedBatchingSweepGolden(t *testing.T) {
	base := []sessionproblem.Option{
		sessionproblem.WithSpec(2, 3),
		sessionproblem.WithSeeds(3),
		sessionproblem.WithSweepSteps(3),
	}
	render := func(batching bool, par int) []byte {
		opts := append(base,
			sessionproblem.WithSeedBatching(batching), sessionproblem.WithParallelism(par))
		res, err := sessionproblem.Sweep(context.Background(), sessionproblem.SweepSporadicDelay, opts...)
		if err != nil {
			t.Fatalf("Sweep: %v", err)
		}
		data, err := wire.MarshalSweep(res.Points)
		if err != nil {
			t.Fatalf("MarshalSweep: %v", err)
		}
		return data
	}
	seq := render(false, 1)
	for _, par := range []int{1, 8} {
		if got := render(true, par); !bytes.Equal(got, seq) {
			t.Errorf("batched sweep at parallelism %d differs from sequential:\nbatched:    %s\nsequential: %s", par, got, seq)
		}
	}
}
