package harness

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"sessionproblem/internal/alg/async"
	"sessionproblem/internal/alg/periodic"
	"sessionproblem/internal/alg/semisync"
	"sessionproblem/internal/alg/sporadic"
	"sessionproblem/internal/alg/synchronous"
	"sessionproblem/internal/bounds"
	"sessionproblem/internal/core"
	"sessionproblem/internal/engine"
	"sessionproblem/internal/fault"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
)

// SweepPoint is one x/y observation of a sweep experiment, together with the
// paper-predicted envelope at that x.
type SweepPoint struct {
	X          float64
	Label      string
	Measured   float64
	PaperLower float64
	PaperUpper float64
}

// mpRun is one (algorithm, model, strategy, seed) execution in a sweep's
// run matrix, tagged with the aggregation group it belongs to (a sweep
// point, a comparison contender, a hierarchy row).
type mpRun struct {
	group int
	label string
	alg   core.MPAlgorithm
	spec  core.Spec
	model timing.Model
	st    timing.Strategy
	seed  uint64
}

// expandMP appends the full strategies × seeds matrix for one group.
func expandMP(runs []mpRun, group int, label string, alg core.MPAlgorithm, spec core.Spec, m timing.Model, seeds int) []mpRun {
	for _, st := range timing.AllStrategies() {
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			runs = append(runs, mpRun{
				group: group, label: label,
				alg: alg, spec: spec, model: m, st: st, seed: seed,
			})
		}
	}
	return runs
}

// maxFinishByGroup fans runs across the engine and returns, per group, the
// worst (maximum) finish time. Group aggregation visits results in run
// order, so the output is independent of parallelism. Unless noBatch is set,
// consecutive runs differing only by seed (expandMP emits seeds innermost)
// collapse into one batched task each; the flattened outcomes are
// byte-identical to the per-run path.
func maxFinishByGroup(ctx context.Context, eng *engine.Engine, runs []mpRun, groups int, noBatch bool) ([]float64, error) {
	if !noBatch {
		return maxFinishByGroupBatched(ctx, eng, runs, groups)
	}
	outs, err := engine.Map(ctx, eng, len(runs),
		func(i int) string {
			r := runs[i]
			return fmt.Sprintf("%s %v seed %d", r.label, r.st, r.seed)
		},
		func(ctx context.Context, i int) (runOutcome, error) {
			r := runs[i]
			run := func() (*core.Report, error) {
				return core.RunMPStream(ctx, r.alg, r.spec, r.model, r.st, r.seed, scratchFrom(ctx), core.StreamOptions{})
			}
			if engine.RunCacheFrom(ctx) != nil {
				// Same key space as the Table-1 cells: a hierarchy or sweep
				// run that coincides with a table run is the same computation
				// and shares its cache slot.
				key := core.RunKey("MP", r.alg.Name(), r.spec, r.model, r.st, r.seed, 0, nil)
				sum, err := cachedRun(ctx, key, run)
				if err != nil {
					return runOutcome{}, fmt.Errorf("%s: %w", r.label, err)
				}
				return outcomeOf(sum), nil
			}
			rep, err := run()
			if err != nil {
				return runOutcome{}, fmt.Errorf("%s: %w", r.label, err)
			}
			return outcomeOfReport(rep), nil
		})
	if err != nil {
		return nil, err
	}
	max := make([]float64, groups)
	for i, o := range outs {
		g := runs[i].group
		if o.finish > max[g] {
			max[g] = o.finish
		}
	}
	return max, nil
}

// seedSpan is a maximal consecutive slice runs[lo:hi] sharing a (group,
// strategy) pair — within which expandMP varies only the seed.
type seedSpan struct{ lo, hi int }

// seedSpans chunks an expandMP run list into seed spans.
func seedSpans(runs []mpRun) []seedSpan {
	var spans []seedSpan
	for lo := 0; lo < len(runs); {
		hi := lo + 1
		for hi < len(runs) && runs[hi].group == runs[lo].group && runs[hi].st == runs[lo].st {
			hi++
		}
		spans = append(spans, seedSpan{lo, hi})
		lo = hi
	}
	return spans
}

// maxFinishByGroupBatched is the seed-batched form of maxFinishByGroup: the
// run list is chunked into seed spans and each span runs as one batched
// task.
func maxFinishByGroupBatched(ctx context.Context, eng *engine.Engine, runs []mpRun, groups int) ([]float64, error) {
	spans := seedSpans(runs)
	bouts, err := engine.Map(ctx, eng, len(spans),
		func(i int) string {
			sp := spans[i]
			r := runs[sp.lo]
			return fmt.Sprintf("%s %v seeds %d-%d", r.label, r.st, r.seed, runs[sp.hi-1].seed)
		},
		func(ctx context.Context, i int) (batchOutcome, error) {
			sp := spans[i]
			r := runs[sp.lo]
			seeds := make([]uint64, 0, sp.hi-sp.lo)
			for _, rr := range runs[sp.lo:sp.hi] {
				seeds = append(seeds, rr.seed)
			}
			return batchSeedGroup(ctx, nil, r.alg, "MP", r.spec, r.model, r.st, seeds,
				func(seed uint64, err error) error {
					return fmt.Errorf("%s: %w", r.label, err)
				})
		})
	if err != nil {
		return nil, err
	}
	max := make([]float64, groups)
	for i, sp := range spans {
		for j, o := range bouts[i].outs {
			g := runs[sp.lo+j].group
			if o.finish > max[g] {
				max[g] = o.finish
			}
		}
	}
	return max, nil
}

// maxFinishMP runs an MP algorithm across strategies/seeds and returns the
// worst running time and worst per-session time.
func maxFinishMP(ctx context.Context, eng *engine.Engine, alg core.MPAlgorithm, spec core.Spec, m timing.Model, seeds int) (finish, perSession float64, err error) {
	runs := expandMP(nil, 0, alg.Name(), alg, spec, m, seeds)
	max, err := maxFinishByGroup(ctx, eng, runs, 1, false)
	if err != nil {
		return 0, 0, err
	}
	finish = max[0]
	if spec.S > 0 {
		perSession = finish / float64(spec.S)
	}
	return finish, perSession, nil
}

// SweepKind selects which experiment a SweepSpec runs.
type SweepKind int

const (
	// SweepKindSporadicDelay is experiment F1: per-session time of A(sp)
	// as d1 sweeps from 0 to d2.
	SweepKindSporadicDelay SweepKind = iota + 1
	// SweepKindPeriodicVsSemiSync is experiment F2: A(p) under the periodic
	// model versus the semi-synchronous algorithm as s grows.
	SweepKindPeriodicVsSemiSync
	// SweepKindPeriodicVsSporadic is experiment F3: A(p) versus A(sp) as
	// cmax grows.
	SweepKindPeriodicVsSporadic
	// SweepKindFaultIntensity is the robustness sweep: every MP model's
	// algorithm under increasing fault intensity, measured as the fraction
	// of runs whose session guarantee survived (see FaultSweep for the
	// structured per-model form).
	SweepKindFaultIntensity
)

// SweepSpec declares a sweep experiment as data: the kind, the problem
// size, the timing constants, the swept range, and the execution knobs.
// It replaces the positional-argument Sweep* signatures, which remain as
// thin wrappers.
type SweepSpec struct {
	Kind SweepKind

	S int // sessions (F1, F3)
	N int // ports

	C1 sim.Duration // step-time lower bound
	C2 sim.Duration // step-time upper bound / period max (F2)
	D1 sim.Duration // message-delay lower bound (F3 sporadic baseline)
	D2 sim.Duration // message-delay upper bound

	Steps int            // number of sweep points (F1)
	MaxS  int            // largest session count (F2; sweeps s = 2..MaxS)
	Cmaxs []sim.Duration // swept period maxima (F3)

	Intensities []float64    // swept fault intensities (fault-intensity sweep)
	FaultSeed   uint64       // base fault-plan seed (fault-intensity sweep)
	FaultKinds  []fault.Kind // injected fault classes; empty = all

	Seeds int // seeds per strategy (default 3)

	// Parallelism is the worker-pool width; <= 0 means GOMAXPROCS.
	Parallelism int
	// Engine optionally supplies a shared execution engine, overriding
	// Parallelism.
	Engine *engine.Engine

	// NoSeedBatch disables seed batching; see Config.NoSeedBatch.
	NoSeedBatch bool
}

func (sp SweepSpec) withDefaults() SweepSpec {
	if sp.Seeds == 0 {
		sp.Seeds = 3
	}
	return sp
}

func (sp SweepSpec) engineOrNew() *engine.Engine {
	if sp.Engine != nil {
		return sp.Engine
	}
	return newEngine(sp.Parallelism)
}

// Sweep runs the experiment a SweepSpec declares, fanning the full
// (point × strategy × seed) run matrix across the spec's engine.
func Sweep(ctx context.Context, sp SweepSpec) ([]SweepPoint, error) {
	sp = sp.withDefaults()
	switch sp.Kind {
	case SweepKindSporadicDelay:
		return sweepSporadicDelay(ctx, sp)
	case SweepKindPeriodicVsSemiSync:
		return sweepPeriodicVsSemiSync(ctx, sp)
	case SweepKindPeriodicVsSporadic:
		return sweepPeriodicVsSporadic(ctx, sp)
	case SweepKindFaultIntensity:
		return sweepFaultIntensity(ctx, sp)
	default:
		return nil, fmt.Errorf("harness: unknown sweep kind %d", sp.Kind)
	}
}

// sweepSporadicDelay is experiment F1: per-session time of A(sp) as d1
// sweeps from 0 to d2 (u from d2 down to 0). The paper's claim: as d1 -> d2
// the model behaves synchronously (per-session ~ c1..O(γ)); as d1 -> 0 it
// behaves asynchronously (per-session ~ d2).
func sweepSporadicDelay(ctx context.Context, sp SweepSpec) ([]SweepPoint, error) {
	steps := sp.Steps
	if steps < 2 {
		steps = 2
	}
	spec := core.Spec{S: sp.S, N: sp.N}
	var runs []mpRun
	d1s := make([]sim.Duration, steps)
	for i := 0; i < steps; i++ {
		d1s[i] = sp.D2 * sim.Duration(i) / sim.Duration(steps-1)
		m := timing.NewSporadic(sp.C1, d1s[i], sp.D2, 2*sp.C1)
		runs = expandMP(runs, i, fmt.Sprintf("F1 d1=%v", d1s[i]), sporadic.NewMP(), spec, m, sp.Seeds)
	}
	max, err := maxFinishByGroup(ctx, sp.engineOrNew(), runs, steps, sp.NoSeedBatch)
	if err != nil {
		return nil, fmt.Errorf("F1: %w", err)
	}
	out := make([]SweepPoint, steps)
	for i, d1 := range d1s {
		p := bounds.Params{S: sp.S, N: sp.N, C1: sp.C1, D1: d1, D2: sp.D2, Gamma: 2 * sp.C1}
		per := 0.0
		if sp.S > 0 {
			per = max[i] / float64(sp.S)
		}
		out[i] = SweepPoint{
			X:          float64(d1) / float64(sp.D2),
			Label:      fmt.Sprintf("d1=%v", d1),
			Measured:   per,
			PaperLower: bounds.SporadicMPL(p) / float64(sp.S),
			PaperUpper: bounds.SporadicMPU(p) / float64(sp.S),
		}
	}
	return out, nil
}

// sweepPeriodicVsSemiSync is experiment F2: running time of A(p) under the
// periodic model versus the semi-synchronous algorithm under the
// semi-synchronous model, as s grows, with cmax = c2 and 2c1 < c2. The
// paper: the periodic model is more efficient when n is constant relative
// to s.
func sweepPeriodicVsSemiSync(ctx context.Context, sp SweepSpec) ([]SweepPoint, error) {
	var runs []mpRun
	numS := sp.MaxS - 1 // s = 2..MaxS
	if numS < 1 {
		return nil, fmt.Errorf("F2: MaxS must be >= 2, got %d", sp.MaxS)
	}
	for i := 0; i < numS; i++ {
		s := i + 2
		spec := core.Spec{S: s, N: sp.N}
		runs = expandMP(runs, 2*i, fmt.Sprintf("F2 periodic s=%d", s),
			periodic.NewMP(), spec, timing.NewPeriodic(sp.C1, sp.C2, sp.D2), sp.Seeds)
		runs = expandMP(runs, 2*i+1, fmt.Sprintf("F2 semisync s=%d", s),
			semisync.NewMP(semisync.Auto), spec, timing.NewSemiSynchronous(sp.C1, sp.C2, sp.D2), sp.Seeds)
	}
	max, err := maxFinishByGroup(ctx, sp.engineOrNew(), runs, 2*numS, sp.NoSeedBatch)
	if err != nil {
		return nil, fmt.Errorf("F2: %w", err)
	}
	out := make([]SweepPoint, numS)
	for i := 0; i < numS; i++ {
		s := i + 2
		perFinish, ssFinish := max[2*i], max[2*i+1]
		// For comparison sweeps the "envelope" fields carry the two
		// contenders: PaperLower holds the periodic measurement (same as
		// Measured) and PaperUpper the semi-synchronous comparator, so
		// WriteSweep's columns line up as periodic vs semi-sync.
		out[i] = SweepPoint{
			X:          float64(s),
			Label:      fmt.Sprintf("s=%d", s),
			Measured:   perFinish,
			PaperLower: perFinish,
			PaperUpper: ssFinish,
		}
	}
	return out, nil
}

// sweepPeriodicVsSporadic is experiment F3: A(p) under the periodic model
// versus A(sp) under the sporadic model as cmax grows. The paper: periodic
// wins while cmax < floor(u/4c1)*K.
func sweepPeriodicVsSporadic(ctx context.Context, sp SweepSpec) ([]SweepPoint, error) {
	spec := core.Spec{S: sp.S, N: sp.N}
	// Group 0 is the sporadic baseline; groups 1.. are the periodic points.
	runs := expandMP(nil, 0, "F3 sporadic", sporadic.NewMP(), spec,
		timing.NewSporadic(sp.C1, sp.D1, sp.D2, 0), sp.Seeds)
	for i, cmax := range sp.Cmaxs {
		runs = expandMP(runs, i+1, fmt.Sprintf("F3 periodic cmax=%v", cmax),
			periodic.NewMP(), spec, timing.NewPeriodic(sp.C1, cmax, sp.D2), sp.Seeds)
	}
	max, err := maxFinishByGroup(ctx, sp.engineOrNew(), runs, len(sp.Cmaxs)+1, sp.NoSeedBatch)
	if err != nil {
		return nil, fmt.Errorf("F3: %w", err)
	}
	spFinish := max[0]
	out := make([]SweepPoint, len(sp.Cmaxs))
	for i, cmax := range sp.Cmaxs {
		out[i] = SweepPoint{
			X:          float64(cmax),
			Label:      fmt.Sprintf("cmax=%v", cmax),
			Measured:   max[i+1],
			PaperUpper: spFinish,
		}
	}
	return out, nil
}

// sweepFaultIntensity flattens the robustness sweep into SweepPoints: one
// point per (model, intensity) with Measured the fraction of runs whose
// session guarantee held and PaperUpper the fault-free ideal of 1.
func sweepFaultIntensity(ctx context.Context, sp SweepSpec) ([]SweepPoint, error) {
	rows, err := FaultSweep(ctx, FaultSweepConfig{
		S: sp.S, N: sp.N,
		C1: sp.C1, C2: sp.C2, D1: sp.D1, D2: sp.D2,
		Seeds:       sp.Seeds,
		Intensities: sp.Intensities,
		Kinds:       sp.FaultKinds,
		FaultSeed:   sp.FaultSeed,
		Parallelism: sp.Parallelism,
		Engine:      sp.Engine,
		NoSeedBatch: sp.NoSeedBatch,
	})
	if err != nil {
		return nil, fmt.Errorf("fault sweep: %w", err)
	}
	var out []SweepPoint
	for _, r := range rows {
		for _, c := range r.Cells {
			held := 0.0
			if c.Runs > 0 {
				held = float64(c.Admissible+c.Recovered) / float64(c.Runs)
			}
			out = append(out, SweepPoint{
				X:          c.Intensity,
				Label:      fmt.Sprintf("%s i=%.2f", r.Model, c.Intensity),
				Measured:   held,
				PaperUpper: 1,
			})
		}
	}
	return out, nil
}

// HierarchyRow is one model's entry in the F4 summary.
type HierarchyRow struct {
	Model     string
	Comm      string
	Unit      string
	Measured  float64
	Algorithm string
}

// Hierarchy is experiment F4: the worst-case running time of every model's
// algorithm at one parameter point, exhibiting the ordering
// synchronous <= periodic <= semi-synchronous/sporadic <= asynchronous the
// paper's Table 1 implies for message passing.
func Hierarchy(cfg Config) ([]HierarchyRow, error) {
	return HierarchyCtx(context.Background(), cfg)
}

// HierarchyCtx is Hierarchy with cancellation; the five models' run
// matrices fan across the configured engine together.
func HierarchyCtx(ctx context.Context, cfg Config) ([]HierarchyRow, error) {
	cfg = cfg.withDefaults()
	spec := core.Spec{S: cfg.S, N: cfg.N}

	type rowDef struct {
		name  string
		alg   core.MPAlgorithm
		model timing.Model
	}
	defs := []rowDef{
		{"synchronous", synchronous.NewMP(), timing.NewSynchronous(cfg.C2, cfg.D2)},
		{"periodic", periodic.NewMP(), timing.NewPeriodic(cfg.Cmin, cfg.Cmax, cfg.D2)},
		{"semi-synchronous", semisync.NewMP(semisync.Auto), timing.NewSemiSynchronous(cfg.C1, cfg.C2, cfg.D2)},
		{"sporadic", sporadic.NewMP(), timing.NewSporadic(cfg.C1, cfg.D1, cfg.D2, 0)},
		{"asynchronous", async.NewMP(), timing.NewAsynchronousMP(cfg.C2, cfg.D2)},
	}
	var runs []mpRun
	for i, d := range defs {
		runs = expandMP(runs, i, "F4 "+d.name, d.alg, spec, d.model, cfg.Seeds)
	}
	max, err := maxFinishByGroup(ctx, cfg.engineOrNew(), runs, len(defs), cfg.NoSeedBatch)
	if err != nil {
		return nil, fmt.Errorf("F4: %w", err)
	}
	rows := make([]HierarchyRow, len(defs))
	for i, d := range defs {
		rows[i] = HierarchyRow{
			Model: d.name, Comm: "MP", Unit: "time",
			Measured: max[i], Algorithm: d.alg.Name(),
		}
	}
	return rows, nil
}

// WriteSweep renders sweep points as an aligned table.
func WriteSweep(w io.Writer, title, xName, measuredName, loName, hiName string, pts []SweepPoint) error {
	fmt.Fprintf(w, "# %s\n", title)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", xName, measuredName, loName, hiName)
	for _, p := range pts {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\n", p.Label, p.Measured, p.PaperLower, p.PaperUpper)
	}
	return tw.Flush()
}

// WriteHierarchy renders the F4 rows.
func WriteHierarchy(w io.Writer, rows []HierarchyRow) error {
	fmt.Fprintln(w, "# F4: model hierarchy (worst measured running time, message passing)")
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "MODEL\tUNIT\tWORST TIME\tALGORITHM")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%s\n", r.Model, r.Unit, r.Measured, r.Algorithm)
	}
	return tw.Flush()
}
