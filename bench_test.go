// Benchmark harness: one bench per Table-1 cell, one per sweep experiment
// (F1-F3), one per adversary construction (A1-A3), and the design-choice
// ablations called out in DESIGN.md. Each bench reports the paper-relevant
// metric (virtual running time in ticks, or rounds) via b.ReportMetric next
// to the usual wall-clock ns/op.
//
// Run with:
//
//	go test -bench=. -benchmem .
package sessionproblem_test

import (
	"context"
	"flag"
	"strconv"
	"testing"

	"sessionproblem/internal/adversary"
	"sessionproblem/internal/alg/async"
	"sessionproblem/internal/alg/gossip"
	"sessionproblem/internal/alg/periodic"
	"sessionproblem/internal/alg/semisync"
	"sessionproblem/internal/alg/sporadic"
	"sessionproblem/internal/alg/synchronous"
	"sessionproblem/internal/causal"
	"sessionproblem/internal/core"
	"sessionproblem/internal/explore"
	"sessionproblem/internal/fault"
	"sessionproblem/internal/harness"
	"sessionproblem/internal/model"
	"sessionproblem/internal/mp"
	"sessionproblem/internal/search"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/sm"
	"sessionproblem/internal/timing"
	"sessionproblem/internal/tree"
)

var benchCfg = harness.Default()

func benchSM(b *testing.B, alg core.SMAlgorithm, m timing.Model, st timing.Strategy) {
	b.Helper()
	spec := core.Spec{S: benchCfg.S, N: benchCfg.N, B: benchCfg.B}
	var finish sim.Time
	var rounds int
	for i := 0; i < b.N; i++ {
		rep, err := core.RunSM(alg, spec, m, st, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		finish, rounds = rep.Finish, rep.Rounds
	}
	b.ReportMetric(float64(finish), "vticks")
	b.ReportMetric(float64(rounds), "rounds")
}

func benchMP(b *testing.B, alg core.MPAlgorithm, m timing.Model, st timing.Strategy) {
	b.Helper()
	spec := core.Spec{S: benchCfg.S, N: benchCfg.N}
	var finish sim.Time
	for i := 0; i < b.N; i++ {
		rep, err := core.RunMP(alg, spec, m, st, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		finish = rep.Finish
	}
	b.ReportMetric(float64(finish), "vticks")
}

// --- Table 1, one bench per cell -------------------------------------------

func BenchmarkTable1SyncSM(b *testing.B) {
	benchSM(b, synchronous.NewSM(), timing.NewSynchronous(benchCfg.C2, 0), timing.Slow)
}

func BenchmarkTable1SyncMP(b *testing.B) {
	benchMP(b, synchronous.NewMP(), timing.NewSynchronous(benchCfg.C2, benchCfg.D2), timing.Slow)
}

func BenchmarkTable1PeriodicSM(b *testing.B) {
	benchSM(b, periodic.NewSM(), timing.NewPeriodic(benchCfg.Cmin, benchCfg.Cmax, 0), timing.Slow)
}

func BenchmarkTable1PeriodicMP(b *testing.B) {
	benchMP(b, periodic.NewMP(), timing.NewPeriodic(benchCfg.Cmin, benchCfg.Cmax, benchCfg.D2), timing.Slow)
}

func BenchmarkTable1SemiSyncSM(b *testing.B) {
	benchSM(b, semisync.NewSM(semisync.Auto),
		timing.NewSemiSynchronous(benchCfg.C1, benchCfg.C2, 0), timing.Slow)
}

func BenchmarkTable1SemiSyncMP(b *testing.B) {
	benchMP(b, semisync.NewMP(semisync.Auto),
		timing.NewSemiSynchronous(benchCfg.C1, benchCfg.C2, benchCfg.D2), timing.Slow)
}

func BenchmarkTable1SporadicMP(b *testing.B) {
	benchMP(b, sporadic.NewMP(),
		timing.NewSporadic(benchCfg.C1, benchCfg.D1, benchCfg.D2, 0), timing.Slow)
}

func BenchmarkTable1AsyncSM(b *testing.B) {
	benchSM(b, async.NewSM(), timing.NewAsynchronousSM(0), timing.Random)
}

func BenchmarkTable1AsyncMP(b *testing.B) {
	benchMP(b, async.NewMP(), timing.NewAsynchronousMP(benchCfg.C2, benchCfg.D2), timing.Slow)
}

// --- Batched Table-1 cells ---------------------------------------------------

// seqBaseline routes the BenchmarkBatchTable1* benches through the
// sequential per-seed path instead of the seed-group runner, so the
// before/after columns of BENCH_9.json come from the same workload. Both
// paths run trace-free, so the columns differ only in batching:
//
//	go test -bench BenchmarkBatchTable1 -seqbaseline .   # before
//	go test -bench BenchmarkBatchTable1 .                # after
var seqBaseline = flag.Bool("seqbaseline", false,
	"run the BatchTable1 benches seed-by-seed instead of batched (baseline capture)")

// batchBenchSeeds is the seed-group size the batch benches amortize over —
// a realistic sweep setting rather than the quick-look default of 3.
const batchBenchSeeds = 8

func benchBatchSM(b *testing.B, alg core.SMAlgorithm, m timing.Model, st timing.Strategy) {
	b.Helper()
	spec := core.Spec{S: benchCfg.S, N: benchCfg.N, B: benchCfg.B}
	seeds := make([]uint64, batchBenchSeeds)
	for i := range seeds {
		seeds[i] = uint64(i) + 1
	}
	rs := new(core.RunScratch)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if *seqBaseline {
			for _, seed := range seeds {
				if _, err := core.RunSMStream(ctx, alg, spec, m, st, seed, rs, core.StreamOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			continue
		}
		if _, _, err := core.BatchRunSM(ctx, alg, spec, m, st, seeds, rs); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBatchMP(b *testing.B, alg core.MPAlgorithm, m timing.Model, st timing.Strategy) {
	b.Helper()
	spec := core.Spec{S: benchCfg.S, N: benchCfg.N}
	seeds := make([]uint64, batchBenchSeeds)
	for i := range seeds {
		seeds[i] = uint64(i) + 1
	}
	rs := new(core.RunScratch)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if *seqBaseline {
			for _, seed := range seeds {
				if _, err := core.RunMPStream(ctx, alg, spec, m, st, seed, rs, core.StreamOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			continue
		}
		if _, _, err := core.BatchRunMP(ctx, alg, spec, m, st, seeds, rs); err != nil {
			b.Fatal(err)
		}
	}
}

// The Slow-strategy cells exercise the whole-run share (a draw-free
// strategy is proven seed-independent by the probe run); the Random,
// Skewed and Jittered cells draw, so every seed really executes.

func BenchmarkBatchTable1SyncSM(b *testing.B) {
	benchBatchSM(b, synchronous.NewSM(), timing.NewSynchronous(benchCfg.C2, 0), timing.Slow)
}

func BenchmarkBatchTable1SyncMP(b *testing.B) {
	benchBatchMP(b, synchronous.NewMP(), timing.NewSynchronous(benchCfg.C2, benchCfg.D2), timing.Slow)
}

func BenchmarkBatchTable1PeriodicSM(b *testing.B) {
	benchBatchSM(b, periodic.NewSM(), timing.NewPeriodic(benchCfg.Cmin, benchCfg.Cmax, 0), timing.Slow)
}

func BenchmarkBatchTable1PeriodicMP(b *testing.B) {
	benchBatchMP(b, periodic.NewMP(), timing.NewPeriodic(benchCfg.Cmin, benchCfg.Cmax, benchCfg.D2), timing.Slow)
}

func BenchmarkBatchTable1SemiSyncMP(b *testing.B) {
	benchBatchMP(b, semisync.NewMP(semisync.Auto),
		timing.NewSemiSynchronous(benchCfg.C1, benchCfg.C2, benchCfg.D2), timing.Slow)
}

func BenchmarkBatchTable1SporadicMPRandom(b *testing.B) {
	benchBatchMP(b, sporadic.NewMP(),
		timing.NewSporadic(benchCfg.C1, benchCfg.D1, benchCfg.D2, 0), timing.Random)
}

func BenchmarkBatchTable1AsyncSMRandom(b *testing.B) {
	benchBatchSM(b, async.NewSM(), timing.NewAsynchronousSM(0), timing.Random)
}

func BenchmarkBatchTable1AsyncMPRandom(b *testing.B) {
	benchBatchMP(b, async.NewMP(), timing.NewAsynchronousMP(benchCfg.C2, benchCfg.D2), timing.Random)
}

func BenchmarkBatchTable1AsyncMPSkewed(b *testing.B) {
	benchBatchMP(b, async.NewMP(), timing.NewAsynchronousMP(benchCfg.C2, benchCfg.D2), timing.Skewed)
}

func BenchmarkBatchTable1SporadicMPJittered(b *testing.B) {
	benchBatchMP(b, sporadic.NewMP(),
		timing.NewSporadic(benchCfg.C1, benchCfg.D1, benchCfg.D2, 0), timing.Jittered)
}

// --- Large-n scale cells -----------------------------------------------------

// The BenchmarkLargeN* cells are the committed memory ceilings of the
// large-topology work: each runs one streaming-certified run (nil trace,
// O(ports) certifier state) and reports B/op and allocs/op, which the budget
// gate holds against bench_budget.json. The byte ceilings are the point —
// a change that reintroduces a per-step or per-port² allocation blows the
// committed budget long before it blows the machine.

func benchLargeNSM(b *testing.B, alg core.SMAlgorithm, s, n, bound, maxSteps int) {
	b.Helper()
	spec := core.Spec{S: s, N: n, B: bound}
	m := timing.NewAsynchronousSM(4)
	rs := new(core.RunScratch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := core.RunSMStream(context.Background(), alg, spec, m, timing.Slow,
			uint64(i)+1, rs, core.StreamOptions{MaxSteps: maxSteps})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.NumSteps), "steps")
	}
}

// BenchmarkLargeNTree10k: the Section-3 relay-tree algorithm at 10⁴ ports —
// the bit-packed Knowledge path, where per-node state is the dominant term.
func BenchmarkLargeNTree10k(b *testing.B) {
	benchLargeNSM(b, async.NewSM(), 2, 10_000, 3, 500_000_000)
}

// BenchmarkLargeNExpander100k: the gossip synchronizer on a degree-4 random
// expander at 10⁵ ports, per-vertex state O(degree).
func BenchmarkLargeNExpander100k(b *testing.B) {
	benchLargeNSM(b, gossip.NewSM("expander", 1), 2, 100_000, 2, 500_000_000)
}

// BenchmarkLargeNExpander1M is the acceptance cell: a million-port expander
// certified end to end in O(ports) memory.
func BenchmarkLargeNExpander1M(b *testing.B) {
	benchLargeNSM(b, gossip.NewSM("expander", 1), 1, 1_000_000, 2, 2_000_000_000)
}

// --- Sweep experiments (F1-F3) ----------------------------------------------

func BenchmarkSweepSporadicDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := harness.Sweep(context.Background(), harness.SweepSpec{
			Kind: harness.SweepKindSporadicDelay,
			S:    4, N: 3, C1: 2, D2: 40,
			Steps: 5, Seeds: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepPeriodicVsSemiSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := harness.Sweep(context.Background(), harness.SweepSpec{
			Kind: harness.SweepKindPeriodicVsSemiSync,
			N:    3, C1: 2, C2: 10, D2: 30,
			MaxS: 6, Seeds: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepPeriodicVsSporadic(b *testing.B) {
	cmaxs := []sim.Duration{2, 8, 32}
	for i := 0; i < b.N; i++ {
		_, err := harness.Sweep(context.Background(), harness.SweepSpec{
			Kind: harness.SweepKindPeriodicVsSporadic,
			S:    4, N: 3, C1: 2, D1: 4, D2: 28,
			Cmaxs: cmaxs, Seeds: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Adversary constructions (A1-A3) ----------------------------------------

func BenchmarkAdversaryContamination(b *testing.B) {
	spec := core.Spec{S: 3, N: 8, B: 3}
	m := timing.NewPeriodic(1, 32, 0)
	for i := 0; i < b.N; i++ {
		rep, err := adversary.AnalyzeContamination(periodic.NewSM(), spec, m, 0, 32)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.WithinBound {
			b.Fatal("contamination bound violated")
		}
	}
}

func BenchmarkAdversaryReorder(b *testing.B) {
	spec := core.Spec{S: 4, N: 9, B: 3}
	m := timing.NewSemiSynchronous(1, 8, 0)
	for i := 0; i < b.N; i++ {
		rep, err := adversary.ReorderSemiSync(adversary.TooFastSM{}, spec, m)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Violation {
			b.Fatal("expected violation")
		}
	}
}

func BenchmarkAdversaryRetime(b *testing.B) {
	spec := core.Spec{S: 4, N: 3}
	m := timing.NewSporadic(2, 4, 28, 0)
	for i := 0; i < b.N; i++ {
		rep, err := adversary.RetimeSporadic(adversary.TooFastMP{}, spec, m)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Violation {
			b.Fatal("expected violation")
		}
	}
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationTreeArity measures shared-memory propagation rounds as
// the access bound b grows: the paper's floor(log_{2b-1}(2n-1)) cost shape.
func BenchmarkAblationTreeArity(b *testing.B) {
	for _, bb := range []int{2, 3, 5, 9} {
		b.Run("b="+strconv.Itoa(bb), func(b *testing.B) {
			spec := core.Spec{S: 2, N: 32, B: bb}
			m := timing.NewAsynchronousSM(1)
			var rounds int
			for i := 0; i < b.N; i++ {
				rep, err := core.RunSM(async.NewSM(), spec, m, timing.Slow, 1)
				if err != nil {
					b.Fatal(err)
				}
				rounds = rep.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkAblationSporadicCond2 compares full A(sp) against the
// condition-1-only variant at u = 0 (constant delay), where condition 2 is
// the entire advantage.
func BenchmarkAblationSporadicCond2(b *testing.B) {
	m := timing.NewSporadic(1, 20, 20, 0)
	spec := core.Spec{S: 6, N: 3}
	for _, variant := range []struct {
		name string
		alg  core.MPAlgorithm
	}{
		{"full", sporadic.NewMP()},
		{"cond1-only", sporadic.NewMPWithoutCond2()},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var finish sim.Time
			for i := 0; i < b.N; i++ {
				rep, err := core.RunMP(variant.alg, spec, m, timing.Fast, 2)
				if err != nil {
					b.Fatal(err)
				}
				finish = rep.Finish
			}
			b.ReportMetric(float64(finish), "vticks")
		})
	}
}

// BenchmarkAblationSemiSyncChoice compares the semi-synchronous modes
// against the auto (min-choosing) hybrid.
func BenchmarkAblationSemiSyncChoice(b *testing.B) {
	m := timing.NewSemiSynchronous(2, 20, 8)
	spec := core.Spec{S: 4, N: 4}
	for _, variant := range []struct {
		name string
		mode semisync.Mode
	}{
		{"auto", semisync.Auto},
		{"step-count", semisync.ForceStepCount},
		{"communicate", semisync.ForceCommunicate},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var finish sim.Time
			for i := 0; i < b.N; i++ {
				rep, err := core.RunMP(semisync.NewMP(variant.mode), spec, m, timing.Slow, 1)
				if err != nil {
					b.Fatal(err)
				}
				finish = rep.Finish
			}
			b.ReportMetric(float64(finish), "vticks")
		})
	}
}

// --- Analysis machinery -------------------------------------------------------

func BenchmarkExhaustiveExplore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := explore.ExhaustiveSM(explore.SMConfig{
			Alg:        periodic.NewSM(),
			Spec:       core.Spec{S: 2, N: 2, B: 2},
			Model:      timing.NewPeriodic(2, 8, 0),
			GapChoices: []sim.Duration{2, 5, 8},
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK() {
			b.Fatal("violations found")
		}
	}
}

func BenchmarkScheduleSearch(b *testing.B) {
	spec := core.Spec{S: 3, N: 3}
	m := timing.NewSporadic(2, 4, 28, 8)
	for i := 0; i < b.N; i++ {
		if _, err := search.SlowestMP(sporadic.NewMP(), spec, m,
			[]sim.Duration{2, 8}, []sim.Duration{4, 28},
			search.Options{Seed: uint64(i) + 1, Restarts: 2, Steps: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCausalAnalysis(b *testing.B) {
	spec := core.Spec{S: 6, N: 4}
	m := timing.NewSporadic(2, 4, 28, 8)
	sys, err := sporadic.NewMP().BuildMP(spec, m)
	if err != nil {
		b.Fatal(err)
	}
	res, err := mp.Run(sys, m.NewScheduler(timing.Random, 1), mp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	procs := make([]any, len(sys.Procs))
	for i, p := range sys.Procs {
		procs[i] = p
	}
	adv, ok := causal.CollectAdvances(procs)
	if !ok {
		b.Fatal("not instrumented")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := causal.MeasureCertification(res.Trace, res.Delays, adv); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Microbenchmarks of the substrates ---------------------------------------

// announcer is the port process of the tree-propagation workload: it writes
// its own progress into its port variable once, then idles while the relay
// tree spreads the announcement.
type announcer struct {
	port int
	v    model.VarID
	done bool
}

func (a *announcer) Target() model.VarID { return a.v }
func (a *announcer) Idle() bool          { return a.done }
func (a *announcer) Step(old sm.Value) sm.Value {
	if a.done {
		return old
	}
	a.done = true
	know := tree.NewKnowledge(a.port + 1)
	know.Raise(a.port, 1)
	tree.MergeCell(&know, old)
	return tree.Cell{Know: know}
}

// BenchmarkTreePropagation measures one full propagation wave through the
// Section-3 relay tree: 64 ports announce progress 1 and the run ends once
// every relay has learned all announcements and spread them back down.
func BenchmarkTreePropagation(b *testing.B) {
	const n = 64
	sched := timing.NewAsynchronousSM(1).NewScheduler(timing.Slow, 1)
	var scratch sm.Scratch
	var finish sim.Time
	for i := 0; i < b.N; i++ {
		nw, err := tree.Build(n, 3, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		sys := &sm.System{B: 3}
		for p := 0; p < n; p++ {
			sys.Procs = append(sys.Procs, &announcer{port: p, v: nw.PortVars[p]})
			sys.Ports = append(sys.Ports, sm.PortBinding{Var: nw.PortVars[p], Proc: p})
		}
		sys.Procs = append(sys.Procs, nw.Processes()...)
		res, err := sm.Run(sys, sched, sm.Options{Scratch: &scratch})
		if err != nil {
			b.Fatal(err)
		}
		finish = res.FinishAll
	}
	b.ReportMetric(float64(finish), "vticks")
}

func BenchmarkSMExecutorThroughput(b *testing.B) {
	// Steps per second of the shared-memory executor on a plain workload.
	m := timing.NewSynchronous(1, 0)
	for i := 0; i < b.N; i++ {
		spec := core.Spec{S: 64, N: 16, B: 2}
		rep, err := core.RunSM(synchronous.NewSM(), spec, m, timing.Slow, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(rep.Trace.Steps)))
	}
}

// BenchmarkFaultInjectionOverhead backs the zero-cost claim of the fault
// layer: the plain path, the fault-aware runner with a nil injector (one nil
// check per step and per send), and a wired-in zero-intensity plan injector
// should all run the same workload at indistinguishable cost.
func BenchmarkFaultInjectionOverhead(b *testing.B) {
	m := timing.NewSemiSynchronous(benchCfg.C1, benchCfg.C2, benchCfg.D2)
	spec := core.Spec{S: benchCfg.S, N: benchCfg.N}
	alg := semisync.NewMP(semisync.Auto)
	variants := []struct {
		name string
		run  func(seed uint64) error
	}{
		{"plain", func(seed uint64) error {
			_, err := core.RunMP(alg, spec, m, timing.Slow, seed)
			return err
		}},
		{"nil-injector", func(seed uint64) error {
			_, err := core.RunMPFaulted(context.Background(), alg, spec, m, timing.Slow, seed, core.FaultRun{})
			return err
		}},
		{"zero-intensity", func(seed uint64) error {
			plan := fault.NewPlan(1, 0).ScaledTo(m)
			_, err := core.RunMPFaulted(context.Background(), alg, spec, m, timing.Slow, seed,
				core.FaultRun{Injector: plan.Injector()})
			return err
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := v.run(uint64(i) + 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
