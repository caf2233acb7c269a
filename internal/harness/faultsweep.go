package harness

import (
	"context"
	"fmt"
	"io"
	"slices"
	"text/tabwriter"

	"sessionproblem/internal/alg/registry"
	"sessionproblem/internal/bounds"
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

	// Models selects a subset of the five message-passing cells by row
	// label ("synchronous", "periodic", "semi-synchronous", "sporadic",
	// "asynchronous"); empty means all five.
	Models []string

	// PerKind additionally sweeps each fault kind in isolation and reports
	// a per-kind robustness margin in FaultSweepRow.KindMargins. The base
	// matrix (and its plan seeds) is unchanged; the per-kind sub-matrices
	// extend the run index space, so enabling this never perturbs the
	// combined-fault results.
	PerKind bool

	// Engine optionally supplies a shared execution engine; nil means a
	// fresh one per call (see Config.Engine).
	Engine *engine.Engine

	// NoSeedBatch runs every (strategy, seed) run as its own engine task, a
	// seed group of one; see Config.NoSeedBatch. Only the fault-free
	// (intensity zero) groups ever share runs — a firing injector makes each
	// seed's run depend on its own plan — so here the knob changes task
	// granularity and the batch counters (faulted groups of one count no
	// fallbacks), never a result.
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

// faultSweepCells returns the message-passing cells cfg.Models selects.
func faultSweepCells(cfg FaultSweepConfig) ([]registry.Cell, error) {
	all := registry.MPCells()
	if len(cfg.Models) == 0 {
		return all, nil
	}
	cells := make([]registry.Cell, 0, len(cfg.Models))
	for _, name := range cfg.Models {
		i := slices.IndexFunc(all, func(c registry.Cell) bool { return c.Row == name })
		if i < 0 {
			return nil, fmt.Errorf("harness: unknown fault-sweep model %q", name)
		}
		cells = append(cells, all[i])
	}
	return cells, nil
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
	cells, err := faultSweepCells(cfg)
	if err != nil {
		return nil, err
	}
	spec := core.Spec{S: cfg.S, N: cfg.N}
	p := bounds.Params{C1: cfg.C1, C2: cfg.C2, Cmin: cfg.Cmin, Cmax: cfg.Cmax, D1: cfg.D1, D2: cfg.D2}
	sts := timing.AllStrategies()
	perCell := len(sts) * cfg.Seeds
	perRow := len(cfg.Intensities) * perCell
	total := len(cells) * perRow // runs per matrix copy

	// The per-kind sub-matrices occupy the flat indices from total on: one
	// full copy of the base matrix per kind, restricted to that kind. Plan
	// seeds key off the extended flat index, so the base matrix's seeds —
	// and its results — are bit-for-bit unchanged whether PerKind is on or
	// off.
	kindAxis := cfg.Kinds
	if len(kindAxis) == 0 {
		kindAxis = fault.AllKinds()
	}
	groups := len(cells) * len(cfg.Intensities) * len(sts) // seed groups per matrix copy
	copies := 1
	if cfg.PerKind {
		copies += len(kindAxis)
	}

	// decode maps seed group g — flat indices g*Seeds .. g*Seeds+Seeds-1 —
	// to its (cell, intensity, strategy) coordinates and injected kinds;
	// name carries the kind of a per-kind group.
	decode := func(g int) (ci int, name string, intensity float64, st timing.Strategy, kinds []fault.Kind) {
		kinds = cfg.Kinds
		c := g / groups
		g %= groups
		ci = g / (len(cfg.Intensities) * len(sts))
		name = cells[ci].Row
		if c > 0 {
			kinds = kindAxis[c-1 : c]
			name = fmt.Sprintf("%s/%v", name, kinds[0])
		}
		return ci, name, cfg.Intensities[g/len(sts)%len(cfg.Intensities)], sts[g%len(sts)], kinds
	}

	// runGroup executes the seeds of one (row, intensity, strategy[, kind])
	// group. Fault-free (intensity zero) groups go through core's seed-group
	// runner — their per-index plans never act, so a draw-free probe serves
	// every seed. A firing injector makes each seed's run depend on its own
	// plan, so faulted groups run seed by seed; in a group of more than one
	// seed each counts as a fallback. Cache keys and plan seeds depend only on
	// the flat index, so outcomes are byte-identical in either layout.
	runGroup := func(ctx context.Context, g int, seeds []uint64) (groupOutcome, error) {
		ci, _, intensity, st, kinds := decode(g)
		alg, m := cells[ci].MP, cells[ci].Timing(p, 0)
		plan := func(seed uint64) fault.Plan {
			return fault.NewPlan(planSeed(cfg.FaultSeed, g*cfg.Seeds+int(seed)-1), intensity, kinds...).ScaledTo(m)
		}
		faultRun := func(seed uint64) core.FaultRun {
			return core.FaultRun{Injector: plan(seed).Injector(), MaxSteps: cfg.MaxSteps, Scratch: scratchFrom(ctx)}
		}
		key := func(seed uint64) string {
			p := plan(seed)
			return core.RunKey("MP", alg.Name(), spec, m, st, seed, cfg.MaxSteps, &p)
		}
		wrap := func(_ uint64, err error) error {
			return fmt.Errorf("fault sweep %s i=%.2f: %w", cells[ci].Row, intensity, err)
		}
		if intensity == 0 {
			return cachedGroup(ctx, seeds, key, func(miss []uint64, _ bool) ([]runOutcome, []*core.RunSummary, core.BatchStats, error) {
				frs := make([]core.FaultRun, len(miss))
				for j, seed := range miss {
					frs[j] = faultRun(seed)
				}
				return summarized(core.BatchRunMPFaulted(ctx, alg, spec, m, st, miss, frs))
			}, wrap)
		}
		return cachedGroup(ctx, seeds, key, func(miss []uint64, keep bool) ([]runOutcome, []*core.RunSummary, core.BatchStats, error) {
			var stats core.BatchStats
			outs := make([]runOutcome, len(miss))
			sums := make([]*core.RunSummary, len(miss))
			for j, seed := range miss {
				rep, err := core.RunMPFaulted(ctx, alg, spec, m, st, seed, faultRun(seed))
				if err != nil {
					return nil, nil, stats, err
				}
				if keep {
					sums[j] = core.Summarize(rep)
					outs[j] = outcomeOf(sums[j])
				} else {
					outs[j] = outcomeOfReport(rep)
				}
				if len(seeds) > 1 {
					stats.Fallbacks++
				}
			}
			return outs, sums, stats, nil
		}, wrap)
	}

	outs, err := runGroups(ctx, engineOr(cfg.Engine), copies*groups, cfg.Seeds, cfg.NoSeedBatch,
		func(g int) string {
			_, name, intensity, st, _ := decode(g)
			return fmt.Sprintf("fault %s i=%.2f %v", name, intensity, st)
		},
		runGroup)
	if err != nil {
		return nil, err
	}

	rows := make([]FaultSweepRow, len(cells))
	for di, c := range cells {
		row := FaultSweepRow{Model: c.Row, Algorithm: c.Algorithm(), Margin: -1}
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
