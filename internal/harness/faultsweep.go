package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"text/tabwriter"

	"sessionproblem/internal/alg/async"
	"sessionproblem/internal/alg/periodic"
	"sessionproblem/internal/alg/semisync"
	"sessionproblem/internal/alg/sporadic"
	"sessionproblem/internal/alg/synchronous"
	"sessionproblem/internal/core"
	"sessionproblem/internal/engine"
	"sessionproblem/internal/fault"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
)

// FaultSweepConfig parameterizes a robustness sweep: every message-passing
// model's algorithm runs under increasing fault intensity, and each run is
// audited rather than pass/failed, yielding a per-model robustness margin.
type FaultSweepConfig struct {
	S int // sessions
	N int // ports

	C1, C2     sim.Duration // step bounds (C2 doubles as the synchronous step time)
	Cmin, Cmax sim.Duration // periodic period range
	D1, D2     sim.Duration // message delay bounds

	Seeds int // scheduler seeds per strategy (default 3)

	// Intensities is the swept fault-intensity axis, ascending. Default
	// {0, 0.05, 0.1, 0.2, 0.4, 0.8}. Intensity 0 must always hold: it is
	// the fault-free control.
	Intensities []float64
	// Kinds restricts the injected fault classes; empty means all.
	Kinds []fault.Kind
	// FaultSeed is the base seed for fault plans; each run derives its own
	// plan seed from FaultSeed and its run-matrix index, so results are
	// byte-identical at any parallelism. Default 1.
	FaultSeed uint64
	// MaxSteps caps each run's executor steps (faulted runs may not
	// terminate). Default 200_000.
	MaxSteps int

	// Models selects a subset of the five MP model rows by name
	// ("synchronous", "periodic", "semi-synchronous", "sporadic",
	// "asynchronous"); empty means all five.
	Models []string

	// PerKind additionally sweeps each fault kind in isolation and reports
	// a per-kind robustness margin in FaultSweepRow.KindMargins. The base
	// matrix (and its plan seeds) is unchanged; the per-kind sub-matrices
	// extend the run index space, so enabling this never perturbs the
	// combined-fault results.
	PerKind bool

	// Parallelism is the worker-pool width; <= 0 means GOMAXPROCS.
	Parallelism int
	// Engine optionally supplies a shared execution engine, overriding
	// Parallelism.
	Engine *engine.Engine

	// NoSeedBatch disables seed batching; see Config.NoSeedBatch. The fault
	// sweep shares runs only within its fault-free (intensity zero) groups —
	// a firing injector makes each seed's run depend on its own plan — so
	// this knob mainly exists for symmetry and debugging.
	NoSeedBatch bool
}

func (c FaultSweepConfig) withDefaults() FaultSweepConfig {
	def := Default()
	if c.S == 0 {
		c.S = def.S
	}
	if c.N == 0 {
		c.N = def.N
	}
	if c.C1 == 0 {
		c.C1 = def.C1
	}
	if c.C2 == 0 {
		c.C2 = def.C2
	}
	if c.Cmin == 0 {
		c.Cmin = def.Cmin
	}
	if c.Cmax == 0 {
		c.Cmax = def.Cmax
	}
	if c.D1 == 0 {
		c.D1 = def.D1
	}
	if c.D2 == 0 {
		c.D2 = def.D2
	}
	if c.Seeds == 0 {
		c.Seeds = def.Seeds
	}
	if len(c.Intensities) == 0 {
		c.Intensities = []float64{0, 0.05, 0.1, 0.2, 0.4, 0.8}
	}
	if c.FaultSeed == 0 {
		c.FaultSeed = 1
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 200_000
	}
	return c
}

func (c FaultSweepConfig) engineOrNew() *engine.Engine {
	if c.Engine != nil {
		return c.Engine
	}
	return newEngine(c.Parallelism)
}

// FaultCell aggregates one (model, intensity) point of the sweep.
type FaultCell struct {
	// Intensity is the per-injection-point fault probability.
	Intensity float64
	// Runs is the matrix size at this point (strategies × seeds).
	Runs int
	// Admissible, Recovered and Broken partition the runs by audit verdict.
	Admissible, Recovered, Broken int
	// Silent counts broken runs with an empty violation list — wrong
	// answers the auditor failed to explain. Must stay zero.
	Silent int
	// MinSessions is the fewest sessions any run achieved.
	MinSessions int
	// FaultsInjected totals the applied faults across runs.
	FaultsInjected int
}

// Held reports whether the session guarantee survived every run at this
// intensity (no broken verdicts).
func (c FaultCell) Held() bool { return c.Broken == 0 }

// FaultSweepRow is one model's robustness profile.
type FaultSweepRow struct {
	// Model and Algorithm identify the row.
	Model     string
	Algorithm string
	// Margin is the robustness margin: the largest swept intensity such
	// that the guarantee held at it and at every smaller swept intensity.
	// -1 means the guarantee broke even at the lowest intensity.
	Margin float64
	// Cells are the per-intensity aggregates, in ascending intensity order.
	Cells []FaultCell
	// KindMargins holds the robustness margin under each fault kind injected
	// alone, identifying which fault class breaks the guarantee first. Nil
	// unless FaultSweepConfig.PerKind is set.
	KindMargins map[fault.Kind]float64
}

// faultOutcome is one engine task's return: the audit scalars the sweep
// aggregates. Report-free so cached and live runs are indistinguishable.
type faultOutcome struct {
	verdict  fault.Verdict
	silent   bool
	sessions int

	steps, messages, faults int
}

// Account feeds the run's simulator counts into engine.Stats.
func (o faultOutcome) Account() engine.Counts {
	return engine.Counts{
		Steps:    o.steps,
		Sessions: o.sessions,
		Messages: o.messages,
		Faults:   o.faults,
	}
}

// faultOutcomeOf projects a run summary onto the sweep outcome.
func faultOutcomeOf(sum *core.RunSummary) faultOutcome {
	return faultOutcome{
		verdict:  sum.Audit.Verdict,
		silent:   sum.Audit.Silent(),
		sessions: sum.Sessions,
		steps:    sum.Steps,
		messages: sum.Messages,
		faults:   sum.Faults,
	}
}

// faultOutcomeOfReport is faultOutcomeOf without the summary detour, for
// the cache-free path.
func faultOutcomeOfReport(rep *core.Report) faultOutcome {
	return faultOutcome{
		verdict:  rep.Audit.Verdict,
		silent:   rep.Audit.Silent(),
		sessions: rep.Sessions,
		steps:    rep.Steps(),
		messages: rep.Messages,
		faults:   len(rep.Faults),
	}
}

// faultBatchOutcome is batchOutcome's fault-sweep counterpart: one group's
// audit outcomes in seed order plus the batch layer's accounting.
type faultBatchOutcome struct {
	outs  []faultOutcome
	stats core.BatchStats
}

// Account feeds the group's counts into engine.Stats, one run at a time.
func (b faultBatchOutcome) Account() engine.Counts {
	var c engine.Counts
	for _, o := range b.outs {
		c.Steps += o.steps
		c.Sessions += o.sessions
		c.Messages += o.messages
		c.Faults += o.faults
	}
	c.BatchForks = b.stats.Forks
	c.BatchFallbacks = b.stats.Fallbacks
	return c
}

// faultRowDef is one model row of the sweep (mirrors HierarchyCtx's defs).
type faultRowDef struct {
	name  string
	alg   core.MPAlgorithm
	model timing.Model
}

func faultSweepDefs(cfg FaultSweepConfig) ([]faultRowDef, error) {
	all := []faultRowDef{
		{"synchronous", synchronous.NewMP(), timing.NewSynchronous(cfg.C2, cfg.D2)},
		{"periodic", periodic.NewMP(), timing.NewPeriodic(cfg.Cmin, cfg.Cmax, cfg.D2)},
		{"semi-synchronous", semisync.NewMP(semisync.Auto), timing.NewSemiSynchronous(cfg.C1, cfg.C2, cfg.D2)},
		{"sporadic", sporadic.NewMP(), timing.NewSporadic(cfg.C1, cfg.D1, cfg.D2, 0)},
		{"asynchronous", async.NewMP(), timing.NewAsynchronousMP(cfg.C2, cfg.D2)},
	}
	if len(cfg.Models) == 0 {
		return all, nil
	}
	byName := make(map[string]faultRowDef, len(all))
	for _, d := range all {
		byName[d.name] = d
	}
	defs := make([]faultRowDef, 0, len(cfg.Models))
	for _, name := range cfg.Models {
		d, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("harness: unknown fault-sweep model %q", name)
		}
		defs = append(defs, d)
	}
	return defs, nil
}

// planSeed derives run i's fault-plan seed from the base seed: index-keyed,
// so a run's faults depend only on its position in the matrix, never on
// scheduling order.
func planSeed(base uint64, i int) uint64 {
	return base ^ (uint64(i)+1)*0x9e3779b97f4a7c15
}

// FaultSweep runs the robustness sweep: for every selected model row and
// every intensity, the full strategies × seeds matrix executes under a
// deterministic fault plan and is audited. The output is byte-identical at
// any parallelism level.
func FaultSweep(ctx context.Context, cfg FaultSweepConfig) ([]FaultSweepRow, error) {
	cfg = cfg.withDefaults()
	defs, err := faultSweepDefs(cfg)
	if err != nil {
		return nil, err
	}
	spec := core.Spec{S: cfg.S, N: cfg.N}
	sts := timing.AllStrategies()
	perCell := len(sts) * cfg.Seeds
	perRow := len(cfg.Intensities) * perCell
	total := len(defs) * perRow

	// The per-kind sub-matrices occupy indices [total, grand): one full copy
	// of the base matrix per kind, restricted to that kind. Plan seeds key
	// off the extended flat index, so the base matrix's seeds — and its
	// results — are bit-for-bit unchanged whether PerKind is on or off.
	kindAxis := cfg.Kinds
	if len(kindAxis) == 0 {
		kindAxis = fault.AllKinds()
	}
	grand := total
	if cfg.PerKind {
		grand = total * (1 + len(kindAxis))
	}

	// decode maps a flat index to its matrix coordinates.
	decode := func(i int) (d faultRowDef, intensity float64, st timing.Strategy, seed uint64, kinds []fault.Kind) {
		kinds = cfg.Kinds
		if i >= total {
			kinds = kindAxis[(i-total)/total : (i-total)/total+1]
			i = (i - total) % total
		}
		d = defs[i/perRow]
		j := i % perRow
		intensity = cfg.Intensities[j/perCell]
		k := j % perCell
		return d, intensity, sts[k/cfg.Seeds], uint64(k%cfg.Seeds) + 1, kinds
	}

	// runGroup executes one (row, intensity, strategy[, kind]) seed group as
	// a single engine task. Fault-free (intensity zero) groups go through
	// core's seed-group runner — their per-index plans never act, so a
	// draw-free probe serves every seed; faulted groups run seed by seed
	// inside the task, counted as fallbacks. Cache keys, plan seeds and
	// outcomes are byte-identical to the per-run path.
	runGroup := func(ctx context.Context, g int) (faultBatchOutcome, error) {
		base := g * cfg.Seeds
		d, intensity, st, _, kinds := decode(base)
		bo := faultBatchOutcome{outs: make([]faultOutcome, cfg.Seeds)}
		cache := engine.RunCacheFrom(ctx)
		rs := scratchFrom(ctx)
		plans := make([]fault.Plan, cfg.Seeds)
		keys := make([]string, cfg.Seeds)
		miss := make([]int, 0, cfg.Seeds)
		for k := 0; k < cfg.Seeds; k++ {
			plans[k] = fault.NewPlan(planSeed(cfg.FaultSeed, base+k), intensity, kinds...).ScaledTo(d.model)
			if cache != nil {
				keys[k] = core.RunKey("MP", d.alg.Name(), spec, d.model, st, uint64(k)+1, cfg.MaxSteps, &plans[k])
				if v, ok := cache.Get(keys[k]); ok {
					bo.outs[k] = faultOutcomeOf(v.(*core.RunSummary))
					continue
				}
			}
			miss = append(miss, k)
		}
		if len(miss) == 0 {
			return bo, nil
		}
		if intensity == 0 {
			seeds := make([]uint64, len(miss))
			frs := make([]core.FaultRun, len(miss))
			for j, k := range miss {
				seeds[j] = uint64(k) + 1
				frs[j] = core.FaultRun{Injector: plans[k].Injector(), MaxSteps: cfg.MaxSteps, Scratch: rs}
			}
			sums, stats, err := core.BatchRunMPFaulted(ctx, d.alg, spec, d.model, st, seeds, frs)
			bo.stats = stats
			if err != nil {
				inner := err
				var be *core.BatchError
				if errors.As(err, &be) {
					inner = be.Err
				}
				return bo, fmt.Errorf("fault sweep %s i=%.2f: %w", d.name, intensity, inner)
			}
			for j, k := range miss {
				if cache != nil {
					cache.Put(keys[k], sums[j])
				}
				bo.outs[k] = faultOutcomeOf(sums[j])
			}
			return bo, nil
		}
		for _, k := range miss {
			rep, err := core.RunMPFaulted(ctx, d.alg, spec, d.model, st, uint64(k)+1,
				core.FaultRun{Injector: plans[k].Injector(), MaxSteps: cfg.MaxSteps, Scratch: rs})
			if err != nil {
				return bo, fmt.Errorf("fault sweep %s i=%.2f: %w", d.name, intensity, err)
			}
			if cache != nil {
				sum := core.Summarize(rep)
				cache.Put(keys[k], sum)
				bo.outs[k] = faultOutcomeOf(sum)
			} else {
				bo.outs[k] = faultOutcomeOfReport(rep)
			}
			bo.stats.Fallbacks++
		}
		return bo, nil
	}

	var outs []faultOutcome
	if cfg.NoSeedBatch {
		outs, err = engine.Map(ctx, cfg.engineOrNew(), grand,
			func(i int) string {
				d, intensity, st, seed, _ := decode(i)
				if i >= total {
					return fmt.Sprintf("fault %s/%v i=%.2f %v seed %d",
						d.name, kindAxis[(i-total)/total], intensity, st, seed)
				}
				return fmt.Sprintf("fault %s i=%.2f %v seed %d", d.name, intensity, st, seed)
			},
			func(ctx context.Context, i int) (faultOutcome, error) {
				d, intensity, st, seed, kinds := decode(i)
				plan := fault.NewPlan(planSeed(cfg.FaultSeed, i), intensity, kinds...).ScaledTo(d.model)
				run := func() (*core.Report, error) {
					return core.RunMPFaulted(ctx, d.alg, spec, d.model, st, seed,
						core.FaultRun{Injector: plan.Injector(), MaxSteps: cfg.MaxSteps, Scratch: scratchFrom(ctx)})
				}
				if engine.RunCacheFrom(ctx) != nil {
					key := core.RunKey("MP", d.alg.Name(), spec, d.model, st, seed, cfg.MaxSteps, &plan)
					sum, err := cachedRun(ctx, key, run)
					if err != nil {
						return faultOutcome{}, fmt.Errorf("fault sweep %s i=%.2f: %w", d.name, intensity, err)
					}
					return faultOutcomeOf(sum), nil
				}
				rep, err := run()
				if err != nil {
					return faultOutcome{}, fmt.Errorf("fault sweep %s i=%.2f: %w", d.name, intensity, err)
				}
				return faultOutcomeOfReport(rep), nil
			})
	} else {
		var bouts []faultBatchOutcome
		bouts, err = engine.Map(ctx, cfg.engineOrNew(), grand/cfg.Seeds,
			func(g int) string {
				i := g * cfg.Seeds
				d, intensity, st, _, _ := decode(i)
				if i >= total {
					return fmt.Sprintf("fault %s/%v i=%.2f %v seeds 1-%d",
						d.name, kindAxis[(i-total)/total], intensity, st, cfg.Seeds)
				}
				return fmt.Sprintf("fault %s i=%.2f %v seeds 1-%d", d.name, intensity, st, cfg.Seeds)
			},
			runGroup)
		if err == nil {
			outs = make([]faultOutcome, grand)
			for g, b := range bouts {
				copy(outs[g*cfg.Seeds:(g+1)*cfg.Seeds], b.outs)
			}
		}
	}
	if err != nil {
		return nil, err
	}

	rows := make([]FaultSweepRow, len(defs))
	for di, d := range defs {
		row := FaultSweepRow{Model: d.name, Algorithm: d.alg.Name(), Margin: -1}
		for ii, intensity := range cfg.Intensities {
			cell := FaultCell{Intensity: intensity, Runs: perCell, MinSessions: -1}
			base := di*perRow + ii*perCell
			for k := 0; k < perCell; k++ {
				o := outs[base+k]
				switch o.verdict {
				case fault.VerdictAdmissible:
					cell.Admissible++
				case fault.VerdictRecovered:
					cell.Recovered++
				default:
					cell.Broken++
					if o.silent {
						cell.Silent++
					}
				}
				if cell.MinSessions < 0 || o.sessions < cell.MinSessions {
					cell.MinSessions = o.sessions
				}
				cell.FaultsInjected += o.faults
			}
			row.Cells = append(row.Cells, cell)
		}
		// Margin: the longest all-held prefix of the ascending intensity
		// axis — monotone by construction.
		for _, cell := range row.Cells {
			if !cell.Held() {
				break
			}
			row.Margin = cell.Intensity
		}
		if cfg.PerKind {
			row.KindMargins = make(map[fault.Kind]float64, len(kindAxis))
			for ki, kind := range kindAxis {
				margin := -1.0
				for ii, intensity := range cfg.Intensities {
					base := total + ki*total + di*perRow + ii*perCell
					held := true
					for k := 0; k < perCell; k++ {
						if v := outs[base+k].verdict; v != fault.VerdictAdmissible && v != fault.VerdictRecovered {
							held = false
							break
						}
					}
					if !held {
						break
					}
					margin = intensity
				}
				row.KindMargins[kind] = margin
			}
		}
		rows[di] = row
	}
	return rows, nil
}

// WriteFaultSweep renders the robustness table: one row per model, one
// held/runs column per intensity, and the margin.
func WriteFaultSweep(w io.Writer, rows []FaultSweepRow) error {
	fmt.Fprintln(w, "# Robustness: held runs per fault intensity (held = session guarantee survived)")
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprint(tw, "MODEL\tALGORITHM\tMARGIN")
	if len(rows) > 0 {
		for _, c := range rows[0].Cells {
			fmt.Fprintf(tw, "\ti=%.2f", c.Intensity)
		}
	}
	fmt.Fprintln(tw)
	for _, r := range rows {
		if r.Margin < 0 {
			fmt.Fprintf(tw, "%s\t%s\tnone", r.Model, r.Algorithm)
		} else {
			fmt.Fprintf(tw, "%s\t%s\t%.2f", r.Model, r.Algorithm, r.Margin)
		}
		for _, c := range r.Cells {
			held := c.Admissible + c.Recovered
			fmt.Fprintf(tw, "\t%d/%d", held, c.Runs)
			if c.Silent > 0 {
				fmt.Fprint(tw, " SILENT")
			}
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Per-kind margins appear only when the sweep was run with PerKind, so
	// the default table stays byte-identical.
	perKind := false
	for _, r := range rows {
		if r.KindMargins != nil {
			perKind = true
			break
		}
	}
	if !perKind {
		return nil
	}
	fmt.Fprintln(w, "\n# Per-kind robustness margins (each fault class injected alone)")
	ktw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	kinds := fault.AllKinds()
	fmt.Fprint(ktw, "MODEL")
	for _, k := range kinds {
		if _, ok := rows[0].KindMargins[k]; ok {
			fmt.Fprintf(ktw, "\t%v", k)
		}
	}
	fmt.Fprintln(ktw)
	for _, r := range rows {
		fmt.Fprint(ktw, r.Model)
		for _, k := range kinds {
			m, ok := r.KindMargins[k]
			if !ok {
				continue
			}
			if m < 0 {
				fmt.Fprint(ktw, "\tnone")
			} else {
				fmt.Fprintf(ktw, "\t%.2f", m)
			}
		}
		fmt.Fprintln(ktw)
	}
	return ktw.Flush()
}
