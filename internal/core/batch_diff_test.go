package core_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"sessionproblem/internal/alg/registry"
	"sessionproblem/internal/core"
	"sessionproblem/internal/timing"
)

// batchMatrix is the (model, comm) matrix the differential tests sweep — the
// full Table-1 shape with harness-like parameters.
func batchMatrix() []struct {
	name string
	m    timing.Model
	comm string
} {
	return []struct {
		name string
		m    timing.Model
		comm string
	}{
		{"sync-sm", timing.NewSynchronous(4, 0), "sm"},
		{"sync-mp", timing.NewSynchronous(4, 6), "mp"},
		{"periodic-sm", timing.NewPeriodic(2, 5, 0), "sm"},
		{"periodic-mp", timing.NewPeriodic(2, 5, 6), "mp"},
		{"semisync-sm", timing.NewSemiSynchronous(1, 4, 0), "sm"},
		{"semisync-mp", timing.NewSemiSynchronous(1, 4, 6), "mp"},
		{"sporadic-sm", timing.NewSporadic(1, 2, 6, 12), "sm"},
		{"async-sm", timing.NewAsynchronousSM(0), "sm"},
		{"async-mp", timing.NewAsynchronousMP(4, 6), "mp"},
		{"sync-sm-start", timing.NewSynchronous(4, 0).WithSynchronizedStart(), "sm"},
		{"semisync-mp-start", timing.NewSemiSynchronous(1, 4, 6).WithSynchronizedStart(), "mp"},
	}
}

// TestBatchRunMatchesSolo differences BatchRunSM/BatchRunMP against looped
// solo runs over the full model/strategy matrix: every per-seed summary must
// be byte-identical to the solo path's, whether the group shared the probe
// run or ran every seed.
func TestBatchRunMatchesSolo(t *testing.T) {
	ctx := context.Background()
	spec := core.Spec{S: 3, N: 4, B: 2}
	seeds := []uint64{1, 2, 3, 4, 5}
	rs := new(core.RunScratch)

	for _, tc := range batchMatrix() {
		for _, st := range timing.AllStrategies() {
			t.Run(tc.name+"/"+st.String(), func(t *testing.T) {
				var batched []*core.RunSummary
				var stats core.BatchStats
				var err error
				if tc.comm == "sm" {
					alg, aerr := registry.ForSM(tc.m.Kind)
					if aerr != nil {
						t.Fatalf("registry: %v", aerr)
					}
					batched, stats, err = core.BatchRunSM(ctx, alg, spec, tc.m, st, seeds, rs)
					if err != nil {
						t.Fatalf("BatchRunSM: %v", err)
					}
					for i, seed := range seeds {
						rep, serr := core.RunSMContext(ctx, alg, spec, tc.m, st, seed)
						if serr != nil {
							t.Fatalf("solo seed %d: %v", seed, serr)
						}
						assertSummaryEqual(t, seed, core.Summarize(rep), batched[i])
					}
				} else {
					alg, aerr := registry.ForMP(tc.m.Kind)
					if aerr != nil {
						t.Fatalf("registry: %v", aerr)
					}
					batched, stats, err = core.BatchRunMP(ctx, alg, spec, tc.m, st, seeds, rs)
					if err != nil {
						t.Fatalf("BatchRunMP: %v", err)
					}
					for i, seed := range seeds {
						rep, serr := core.RunMPContext(ctx, alg, spec, tc.m, st, seed)
						if serr != nil {
							t.Fatalf("solo seed %d: %v", seed, serr)
						}
						assertSummaryEqual(t, seed, core.Summarize(rep), batched[i])
					}
				}
				if len(batched) != len(seeds) {
					t.Fatalf("got %d summaries, want %d", len(batched), len(seeds))
				}
				if stats.Forks+stats.Fallbacks != len(seeds)-1 {
					t.Errorf("every seed after the probe must be shared or run solo: %+v", stats)
				}
			})
		}
	}
}

// assertSummaryEqual compares two summaries by their canonical JSON encoding,
// the byte representation the cache and journal persist.
func assertSummaryEqual(t *testing.T, seed uint64, want, got *core.RunSummary) {
	t.Helper()
	wb, err := core.EncodeSummary(want)
	if err != nil {
		t.Fatalf("marshal want: %v", err)
	}
	gb, err := core.EncodeSummary(got)
	if err != nil {
		t.Fatalf("marshal got: %v", err)
	}
	if !bytes.Equal(wb, gb) {
		t.Errorf("seed %d summary mismatch:\n solo  %s\n batch %s", seed, wb, gb)
	}
}

// TestBatchRunWholeRunShare pins the share: a deterministic strategy must be
// served by a single probe run with the summary shared.
func TestBatchRunWholeRunShare(t *testing.T) {
	ctx := context.Background()
	spec := core.Spec{S: 2, N: 3, B: 2}
	seeds := []uint64{7, 8, 9}
	m := timing.NewSynchronous(4, 0)
	alg, err := registry.ForSM(m.Kind)
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	out, stats, err := core.BatchRunSM(ctx, alg, spec, m, timing.Slow, seeds, nil)
	if err != nil {
		t.Fatalf("BatchRunSM: %v", err)
	}
	if stats.Forks != len(seeds)-1 || stats.Fallbacks != 0 {
		t.Errorf("expected whole-run share, got stats %+v", stats)
	}
	if out[1] != out[0] || out[2] != out[0] {
		t.Errorf("shared summaries should alias the probe summary")
	}
}

// TestBatchRunErrorAttribution checks a failing group surfaces as a
// BatchError naming its seed with the solo path's error wording.
func TestBatchRunErrorAttribution(t *testing.T) {
	ctx := context.Background()
	m := timing.NewSynchronous(4, 0)
	alg, err := registry.ForSM(m.Kind)
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	// An unsatisfiable spec fails identically on every seed; the probe seed
	// must be the one named.
	spec := core.Spec{S: 0, N: 3, B: 2}
	_, _, berr := core.BatchRunSM(ctx, alg, spec, m, timing.Random, []uint64{11, 12}, nil)
	var be *core.BatchError
	if !errors.As(berr, &be) {
		t.Fatalf("got %v, want a *core.BatchError", berr)
	}
	if be.Seed != 11 {
		t.Errorf("error names seed %d, want the probe seed 11", be.Seed)
	}
	_, serr := core.RunSMContext(ctx, alg, spec, m, timing.Random, 11)
	if serr == nil {
		t.Fatal("solo run of seed 11 succeeded on an invalid spec")
	}
	if be.Err.Error() != serr.Error() {
		t.Errorf("inner error %q, want the solo error %q", be.Err, serr)
	}
}
