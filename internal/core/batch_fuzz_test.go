package core_test

import (
	"context"
	"errors"
	"testing"

	"sessionproblem/internal/alg/registry"
	"sessionproblem/internal/core"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
)

// runBatchDifferential interprets data as a batch configuration — model,
// strategy, spec, seed set — and differences the batch runners against
// looped solo runs. Both paths must agree on success or failure; on failure
// the batched error must name the first failing seed with the solo error's
// text, and on success every per-seed summary must be byte-identical.
func runBatchDifferential(t *testing.T, data []byte) {
	if len(data) < 6 {
		return
	}
	mx := batchMatrix()
	tc := mx[int(data[0])%len(mx)]
	sts := timing.AllStrategies()
	st := sts[int(data[1])%len(sts)]
	spec := core.Spec{
		S: 1 + int(data[2])%3,
		N: 2 + int(data[3])%3,
		B: 1 + int(data[4])%3,
	}
	seeds := make([]uint64, 2+int(data[5])%4)
	for i := range seeds {
		seeds[i] = uint64(i)*2654435761 + uint64(data[i%len(data)]) + 1
	}

	ctx := context.Background()
	rs := new(core.RunScratch)
	var batched []*core.RunSummary
	var berr error
	solo := make([]*core.RunSummary, len(seeds))
	var serr error
	var serrSeed uint64
	if tc.comm == "sm" {
		alg, err := registry.ForSM(tc.m.Kind)
		if err != nil {
			t.Fatalf("registry: %v", err)
		}
		batched, _, berr = core.BatchRunSM(ctx, alg, spec, tc.m, st, seeds, rs)
		for i, seed := range seeds {
			rep, err := core.RunSMContext(ctx, alg, spec, tc.m, st, seed)
			if err != nil {
				serr, serrSeed = err, seed
				break
			}
			solo[i] = core.Summarize(rep)
		}
	} else {
		alg, err := registry.ForMP(tc.m.Kind)
		if err != nil {
			t.Fatalf("registry: %v", err)
		}
		batched, _, berr = core.BatchRunMP(ctx, alg, spec, tc.m, st, seeds, rs)
		for i, seed := range seeds {
			rep, err := core.RunMPContext(ctx, alg, spec, tc.m, st, seed)
			if err != nil {
				serr, serrSeed = err, seed
				break
			}
			solo[i] = core.Summarize(rep)
		}
	}
	if (berr == nil) != (serr == nil) {
		t.Fatalf("%s/%v %v: batch err %v, solo err %v", tc.name, st, spec, berr, serr)
	}
	if berr != nil {
		var be *core.BatchError
		if !errors.As(berr, &be) {
			t.Fatalf("%s/%v %v: batch err %v is not a *core.BatchError", tc.name, st, spec, berr)
		}
		if be.Seed != serrSeed || be.Err.Error() != serr.Error() {
			t.Fatalf("%s/%v %v: batch err names seed %d: %v; solo seed %d failed first: %v",
				tc.name, st, spec, be.Seed, be.Err, serrSeed, serr)
		}
		return
	}
	for i, seed := range seeds {
		assertSummaryEqual(t, seed, solo[i], batched[i])
	}
}

func FuzzBatchDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 1, 1})
	f.Add([]byte{3, 2, 2, 0, 0, 3, 9, 9})
	f.Add([]byte{9, 1, 0, 1, 2, 0, 77, 1, 5})
	f.Add([]byte{6, 4, 2, 2, 2, 2, 200, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			t.Skip("cap input size: the config prefix is all that matters")
		}
		runBatchDifferential(t, data)
	})
}

// TestBatchDifferentialSeeded drives the differential over deterministic
// pseudo-random configurations on every plain `go test` run, not only
// under `go test -fuzz`.
func TestBatchDifferentialSeeded(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		r := sim.NewRNG(seed)
		data := make([]byte, 10)
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		runBatchDifferential(t, data)
	}
}
