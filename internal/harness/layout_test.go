package harness

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"sessionproblem/internal/core"
	"sessionproblem/internal/engine"
	"sessionproblem/internal/fault"
	"sessionproblem/internal/sim"
)

// layoutEngine builds a harness engine with an optional run cache that,
// when labels is non-nil, records every task label it runs.
func layoutEngine(par int, cache *engine.RunCache, labels *[]string) *engine.Engine {
	opts := []engine.Option{
		engine.WithParallelism(par),
		engine.WithWorkerState(func() any { return new(core.RunScratch) }),
	}
	if cache != nil {
		opts = append(opts, engine.WithRunCache(cache))
	}
	if labels != nil {
		var mu sync.Mutex
		opts = append(opts, engine.WithObserver(func(r engine.Result) {
			mu.Lock()
			*labels = append(*labels, r.Label)
			mu.Unlock()
		}))
	}
	return engine.New(opts...)
}

// TestRunMatrixLayout pins the engine tasks of both layouts for Table 1, a
// sweep and the fault sweep: one task per (cell, strategy) seed group
// labelled "<prefix> seeds 1-k", or with NoSeedBatch one task per seed
// labelled "<prefix> seed i". sessiond's streamed progress lines carry these
// labels.
func TestRunMatrixLayout(t *testing.T) {
	strategies := []string{"random", "slow", "fast", "skewed", "jittered"}
	cross := func(prefixes []string, suffixes []string) []string {
		var out []string
		for _, p := range prefixes {
			for _, st := range strategies {
				for _, s := range suffixes {
					out = append(out, p+" "+st+" "+s)
				}
			}
		}
		sort.Strings(out)
		return out
	}
	table1 := []string{
		"synchronous/SM", "synchronous/MP", "periodic/SM", "periodic/MP",
		"semi-synchronous/SM", "semi-synchronous/MP", "sporadic/MP",
		"asynchronous/SM", "asynchronous/MP",
	}
	f3 := []string{"F3 sporadic", "F3 periodic cmax=4", "F3 periodic cmax=8"}
	faults := []string{
		"fault synchronous i=0.00", "fault synchronous i=0.50",
		"fault synchronous/message-drop i=0.00", "fault synchronous/message-drop i=0.50",
	}
	calls := []struct {
		name     string
		prefixes []string
		call     func(eng *engine.Engine, noBatch bool) error
	}{
		{"table1", table1, func(eng *engine.Engine, noBatch bool) error {
			_, err := Table1Ctx(context.Background(), Config{S: 2, N: 2, B: 2, C1: 2, Seeds: 2, Engine: eng, NoSeedBatch: noBatch})
			return err
		}},
		{"F3", f3, func(eng *engine.Engine, noBatch bool) error {
			_, err := Sweep(context.Background(), SweepSpec{
				Kind: SweepKindPeriodicVsSporadic, S: 2, N: 2, C1: 2, D1: 4, D2: 28,
				Cmaxs: []sim.Duration{4, 8}, Seeds: 2, Engine: eng, NoSeedBatch: noBatch,
			})
			return err
		}},
		{"fault sweep", faults, func(eng *engine.Engine, noBatch bool) error {
			_, err := FaultSweep(context.Background(), FaultSweepConfig{
				S: 2, N: 2, Seeds: 2, Intensities: []float64{0, 0.5},
				Kinds: []fault.Kind{fault.MessageDrop}, Models: []string{"synchronous"},
				MaxSteps: 20_000, PerKind: true, Engine: eng, NoSeedBatch: noBatch,
			})
			return err
		}},
	}
	for _, c := range calls {
		for _, noBatch := range []bool{false, true} {
			want := cross(c.prefixes, []string{"seeds 1-2"})
			if noBatch {
				want = cross(c.prefixes, []string{"seed 1", "seed 2"})
			}
			var labels []string
			eng := layoutEngine(2, nil, &labels)
			if err := c.call(eng, noBatch); err != nil {
				t.Fatalf("%s noBatch=%v: %v", c.name, noBatch, err)
			}
			if got := eng.Stats().Tasks; got != len(want) {
				t.Errorf("%s noBatch=%v: %d engine tasks, want %d", c.name, noBatch, got, len(want))
			}
			sort.Strings(labels)
			if !reflect.DeepEqual(labels, want) {
				t.Errorf("%s noBatch=%v: labels\n%q\nwant\n%q", c.name, noBatch, labels, want)
			}
		}
	}
}

// TestFaultSweepSeedBatchingIdentical is the fault sweep's layout gate: with
// per-kind sub-matrices on, the batched and per-seed layouts must produce
// identical rows at any parallelism and seed count, without a cache and
// through a cold then a warm cache. The per-seed layout (groups of one)
// reports no batch activity, and the warm pass simulates nothing.
func TestFaultSweepSeedBatchingIdentical(t *testing.T) {
	for _, seeds := range []int{1, 3} {
		base := FaultSweepConfig{
			S: 2, N: 3, Seeds: seeds,
			Intensities: []float64{0, 0.2, 0.5},
			Models:      []string{"synchronous", "sporadic"},
			MaxSteps:    20_000,
			PerKind:     true,
		}
		want, err := FaultSweep(context.Background(), base)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2} {
			for _, noBatch := range []bool{false, true} {
				cache := engine.NewRunCache()
				for _, pass := range []struct {
					name  string
					cache *engine.RunCache
				}{{"no cache", nil}, {"cold", cache}, {"warm", cache}} {
					cfg := base
					cfg.Engine = layoutEngine(par, pass.cache, nil)
					cfg.NoSeedBatch = noBatch
					got, err := FaultSweep(context.Background(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					where := fmt.Sprintf("seeds=%d par=%d noBatch=%v %s", seeds, par, noBatch, pass.name)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: rows differ from the batched cache-free sweep:\n%+v\nvs\n%+v", where, got, want)
					}
					st := cfg.Engine.Stats()
					if noBatch && st.Counts.BatchForks+st.Counts.BatchFallbacks != 0 {
						t.Errorf("%s: per-seed layout reported batch activity: %+v", where, st.Counts)
					}
					if !noBatch && seeds > 1 && pass.name != "warm" && st.Counts.BatchForks == 0 {
						t.Errorf("%s: batched layout shared no runs: %+v", where, st.Counts)
					}
					if pass.name == "warm" && st.CacheMisses != 0 {
						t.Errorf("%s: warm pass missed the cache %d times", where, st.CacheMisses)
					}
				}
			}
		}
	}
}
