package harness

import (
	"context"
	"reflect"
	"testing"

	"sessionproblem/internal/core"
	"sessionproblem/internal/engine"
)

func cachedEngine(cache *engine.RunCache) *engine.Engine {
	return engine.New(
		engine.WithParallelism(2),
		engine.WithWorkerState(func() any { return new(core.RunScratch) }),
		engine.WithRunCache(cache),
	)
}

func TestTable1CacheIdentical(t *testing.T) {
	base := Config{S: 2, N: 3, B: 2, C1: 2, Seeds: 1}

	plain, err := Table1Ctx(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	cache := engine.NewRunCache()
	cfgCached := base
	cfgCached.Engine = cachedEngine(cache)
	cached, err := Table1Ctx(context.Background(), cfgCached)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cached) {
		t.Fatalf("cache-on cells differ from cache-off:\n%+v\nvs\n%+v", cached, plain)
	}
	if cache.Hits() != 0 {
		t.Fatalf("first cached run had %d hits, want 0", cache.Hits())
	}
	misses := cache.Misses()
	if misses == 0 {
		t.Fatal("first cached run recorded no misses")
	}

	// Second run over the same matrix: every run is a hit, output identical.
	cfgAgain := base
	cfgAgain.Engine = cachedEngine(cache)
	again, err := Table1Ctx(context.Background(), cfgAgain)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, again) {
		t.Fatal("second cached run differs")
	}
	if cache.Misses() != misses {
		t.Fatalf("second run missed %d times, want 0", cache.Misses()-misses)
	}
	if cache.Hits() == 0 {
		t.Fatal("second run recorded no hits")
	}
}

func TestHierarchySharesTableCache(t *testing.T) {
	// Hierarchy's synchronous MP runs coincide with Table 1's synchronous MP
	// cell at the same config, so a shared cache must produce hits.
	base := Config{S: 2, N: 3, B: 2, C1: 2, Seeds: 1}
	cache := engine.NewRunCache()

	cfg := base
	cfg.Engine = cachedEngine(cache)
	if _, err := Table1Ctx(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	h0 := cache.Hits()

	cfg2 := base
	cfg2.Engine = cachedEngine(cache)
	rows, err := HierarchyCtx(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("hierarchy rows = %d, want 5", len(rows))
	}
	if cache.Hits() == h0 {
		t.Fatal("hierarchy shared no runs with the table despite identical models")
	}

	// And the rows must match a cache-free hierarchy exactly.
	plain, err := HierarchyCtx(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, rows) {
		t.Fatalf("cached hierarchy differs:\n%+v\nvs\n%+v", rows, plain)
	}
}

func TestFaultSweepCacheIdentical(t *testing.T) {
	base := FaultSweepConfig{
		S: 2, N: 3, Seeds: 1,
		Intensities: []float64{0, 0.3},
		Models:      []string{"synchronous", "sporadic"},
		MaxSteps:    50_000,
	}
	plain, err := FaultSweep(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	cache := engine.NewRunCache()
	cfg := base
	cfg.Engine = cachedEngine(cache)
	cached, err := FaultSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cached) {
		t.Fatalf("cache-on fault sweep differs:\n%+v\nvs\n%+v", cached, plain)
	}

	cfg2 := base
	cfg2.Engine = cachedEngine(cache)
	again, err := FaultSweep(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, again) {
		t.Fatal("second cached fault sweep differs")
	}
	if cache.Hits() == 0 {
		t.Fatal("fault-sweep rerun produced no cache hits")
	}
}
