// Package harness regenerates the paper's evaluation artifacts: Table 1
// (upper/lower bounds for the session problem across five timing models and
// two communication models) and the intro's comparison claims as parameter
// sweeps (F1-F4), plus the lower-bound adversary demonstrations (A1-A3).
//
// For every cell the harness runs the matching algorithm under every
// scheduling strategy and several seeds, measures the running time (real
// time, or rounds for the asynchronous shared-memory model), and reports it
// against the closed-form bound formulas from internal/bounds. Absolute
// numbers are in simulator ticks; the reproduction target is the shape:
// measured max within [L, U] for every row.
//
// All measurement entry points fan their run matrix across an
// internal/engine worker pool: results are index-addressed, so the output
// is byte-identical at any parallelism level, and context cancellation
// reaches into every in-flight simulation.
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
	"sessionproblem/internal/bounds"
	"sessionproblem/internal/core"
	"sessionproblem/internal/engine"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/stats"
	"sessionproblem/internal/timing"
)

// Config parameterizes a Table-1 regeneration.
type Config struct {
	S int // sessions
	N int // ports
	B int // shared-variable access bound

	C1, C2     sim.Duration // semi-synchronous step bounds; C2 doubles as the synchronous step time
	Cmin, Cmax sim.Duration // periodic period range
	D1, D2     sim.Duration // message delay bounds (D1 used by sporadic only)

	Seeds int // seeds per strategy (default 3)

	// Parallelism is the worker-pool width for the run matrix; <= 0 means
	// GOMAXPROCS. Results are deterministic at any setting.
	Parallelism int

	// Engine optionally supplies a shared execution engine (carrying its
	// own parallelism, timeout and observer); when set it overrides
	// Parallelism. Nil means a fresh engine per call.
	Engine *engine.Engine

	// NoSeedBatch disables seed batching: every (strategy, seed) run becomes
	// its own engine task instead of one task per seed group, and no seed
	// is served from another seed's run. Results are byte-identical either
	// way; this is an escape hatch for debugging and for isolating per-run
	// timings, and the reference the differential tests compare against.
	NoSeedBatch bool
}

// Default returns the configuration used by cmd/sessiontable and the
// benches: a mid-sized instance where every min-expression in Table 1 is
// exercised.
func Default() Config {
	return Config{
		S: 6, N: 8, B: 3,
		C1: 2, C2: 10,
		Cmin: 2, Cmax: 10,
		D1: 4, D2: 28,
		Seeds: 3,
	}
}

// withDefaults fills every zero-valued knob from Default. Timing parameters
// are included: a zero C2 or Cmax would otherwise build degenerate models
// (zero-length steps and periods) that the simulators reject or, worse,
// run meaninglessly fast.
func (c Config) withDefaults() Config {
	def := Default()
	if c.Seeds == 0 {
		c.Seeds = def.Seeds
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
	return c
}

// newEngine builds the harness's default engine: the given parallelism plus
// a reusable core.RunScratch per worker, so the sweep's steady state runs
// allocation-free in the executors. Safe because the harness runs
// trace-free, and trace-free reports never alias the scratch.
func newEngine(parallelism int) *engine.Engine {
	return engine.New(
		engine.WithParallelism(parallelism),
		engine.WithWorkerState(func() any { return new(core.RunScratch) }),
	)
}

// scratchFrom extracts the per-worker scratch; nil (scratch-free runs) when
// the engine was supplied externally without one.
func scratchFrom(ctx context.Context) *core.RunScratch {
	sc, _ := engine.WorkerState(ctx).(*core.RunScratch)
	return sc
}

// engineOrNew returns the configured shared engine or builds one at the
// configured parallelism.
func (c Config) engineOrNew() *engine.Engine {
	if c.Engine != nil {
		return c.Engine
	}
	return newEngine(c.Parallelism)
}

// Cell is one Table-1 row instantiation: a (timing model, communication
// model) pair with its bound formulas and measurements.
type Cell struct {
	// Row and Comm identify the cell ("periodic", "SM").
	Row  string
	Comm string
	// Unit is "time" (ticks) or "rounds".
	Unit string
	// Lower and Upper are the paper's bound formulas evaluated at the
	// configuration (Upper uses the worst measured γ for the sporadic row).
	Lower, Upper float64
	// Measured summarizes the running time across strategies and seeds.
	Measured stats.Summary
	// RealizesLower reports that some schedule pushed the measured value to
	// at least the lower bound.
	RealizesLower bool
	// RespectsUpper reports that every run stayed within the upper bound.
	RespectsUpper bool
	// Algorithm names the implementation measured.
	Algorithm string
}

// Verdict summarizes the bound check.
func (c Cell) Verdict() string {
	switch {
	case c.RealizesLower && c.RespectsUpper:
		return "ok"
	case c.RespectsUpper:
		return "upper-only"
	default:
		return "VIOLATION"
	}
}

// runOutcome is what one engine task returns: the measurements cell
// aggregation needs plus the scalar counts for engine-level accounting.
// Deliberately report-free so cache hits (which have no report) and live
// runs produce indistinguishable outcomes.
type runOutcome struct {
	finish float64
	rounds int
	gamma  sim.Duration

	steps, sessions, messages, faults int
}

// Account feeds the run's simulator counts into engine.Stats.
func (r runOutcome) Account() engine.Counts {
	return engine.Counts{
		Steps:    r.steps,
		Sessions: r.sessions,
		Messages: r.messages,
		Faults:   r.faults,
	}
}

// outcomeOf projects a run summary onto the harness outcome.
func outcomeOf(sum *core.RunSummary) runOutcome {
	return runOutcome{
		finish:   float64(sum.Finish),
		rounds:   sum.Rounds,
		gamma:    sum.Gamma,
		steps:    sum.Steps,
		sessions: sum.Sessions,
		messages: sum.Messages,
		faults:   sum.Faults,
	}
}

// outcomeOfReport is outcomeOf without the summary detour, for the
// cache-free path; the two derive every field identically, so enabling the
// cache never changes a result.
func outcomeOfReport(rep *core.Report) runOutcome {
	return runOutcome{
		finish:   float64(rep.Finish),
		rounds:   rep.Rounds,
		gamma:    rep.Gamma,
		steps:    rep.Steps(),
		sessions: rep.Sessions,
		messages: rep.Messages,
		faults:   len(rep.Faults),
	}
}

// cachedRun wraps a verified run with the content-addressed cache the
// engine exposes (if any): equal keys return the memoized summary without
// simulating; misses run, summarize and populate. Errors are never cached —
// which is also what makes journaled resume safe: only verified summaries
// reach Put, so replaying a crashed sweep's journal (internal/journal) can
// resurrect finished work but never a failure.
func cachedRun(ctx context.Context, key string, run func() (*core.Report, error)) (*core.RunSummary, error) {
	cache := engine.RunCacheFrom(ctx)
	if cache != nil {
		if v, ok := cache.Get(key); ok {
			return v.(*core.RunSummary), nil
		}
	}
	rep, err := run()
	if err != nil {
		return nil, err
	}
	sum := core.Summarize(rep)
	if cache != nil {
		cache.Put(key, sum)
	}
	return sum, nil
}

// batchOutcome is what one batched engine task returns: one (algorithm,
// model, strategy) seed group's outcomes in seed order, plus the batch
// layer's accounting for the group.
type batchOutcome struct {
	outs  []runOutcome
	stats core.BatchStats
}

// Account feeds the group's simulator counts and batch accounting into
// engine.Stats: each seed's run counts once, exactly as it would have as its
// own task.
func (b batchOutcome) Account() engine.Counts {
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

// seedAxis returns the harness's seed axis 1..n.
func seedAxis(n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i) + 1
	}
	return seeds
}

// batchSeedGroup runs one (algorithm, model, strategy) seed group through
// core's seed-group runner while preserving the solo path's per-seed cache
// protocol: every seed keeps its own content-addressed slot, hits skip
// simulation entirely, and only the misses enter the group run (a single
// miss is a probe with nothing to share). Outcomes and cache contents are
// byte-identical to the per-seed path.
// Exactly one of smAlg/mpAlg is set; wrap renders a failure with the seed it
// is attributed to.
func batchSeedGroup(ctx context.Context, smAlg core.SMAlgorithm, mpAlg core.MPAlgorithm, comm string, spec core.Spec, m timing.Model, st timing.Strategy, seeds []uint64, wrap func(seed uint64, err error) error) (batchOutcome, error) {
	bo := batchOutcome{outs: make([]runOutcome, len(seeds))}
	name := ""
	if smAlg != nil {
		name = smAlg.Name()
	} else {
		name = mpAlg.Name()
	}
	cache := engine.RunCacheFrom(ctx)
	key := func(seed uint64) string {
		return core.RunKey(comm, name, spec, m, st, seed, 0, nil)
	}
	miss := make([]int, 0, len(seeds))
	for i, seed := range seeds {
		if cache != nil {
			if v, ok := cache.Get(key(seed)); ok {
				bo.outs[i] = outcomeOf(v.(*core.RunSummary))
				continue
			}
		}
		miss = append(miss, i)
	}
	if len(miss) == 0 {
		return bo, nil
	}
	missSeeds := make([]uint64, len(miss))
	for j, i := range miss {
		missSeeds[j] = seeds[i]
	}
	var sums []*core.RunSummary
	var err error
	if smAlg != nil {
		sums, bo.stats, err = core.BatchRunSM(ctx, smAlg, spec, m, st, missSeeds, scratchFrom(ctx))
	} else {
		sums, bo.stats, err = core.BatchRunMP(ctx, mpAlg, spec, m, st, missSeeds, scratchFrom(ctx))
	}
	if err != nil {
		seed, inner := missSeeds[0], err
		var be *core.BatchError
		if errors.As(err, &be) {
			seed, inner = be.Seed, be.Err
		}
		return bo, wrap(seed, inner)
	}
	for j, i := range miss {
		if cache != nil {
			cache.Put(key(seeds[i]), sums[j])
		}
		bo.outs[i] = outcomeOf(sums[j])
	}
	return bo, nil
}

// cellDef declares one Table-1 cell's run matrix: which algorithm under
// which model, measured in which unit, against which bounds. Exactly one of
// smAlg/mpAlg is set.
type cellDef struct {
	row, comm, unit string
	smAlg           core.SMAlgorithm
	mpAlg           core.MPAlgorithm
	spec            core.Spec
	model           timing.Model
	lower, upper    float64
	// gammaUpper: the upper bound is the sporadic per-computation formula
	// evaluated at each run's measured γ (Theorem 6.1).
	gammaUpper bool
	// rounds: measure rounds instead of time (asynchronous SM).
	rounds bool
}

func (d cellDef) name() string {
	if d.smAlg != nil {
		return d.smAlg.Name()
	}
	return d.mpAlg.Name()
}

// runOnce executes one (strategy, seed) entry of the cell's matrix,
// consulting the engine's run cache (when one is attached) so overlapping
// matrices simulate each unique run once.
func (d cellDef) runOnce(ctx context.Context, st timing.Strategy, seed uint64) (runOutcome, error) {
	run := func() (*core.Report, error) {
		if d.smAlg != nil {
			return core.RunSMStream(ctx, d.smAlg, d.spec, d.model, st, seed, scratchFrom(ctx), core.StreamOptions{})
		}
		return core.RunMPStream(ctx, d.mpAlg, d.spec, d.model, st, seed, scratchFrom(ctx), core.StreamOptions{})
	}
	if engine.RunCacheFrom(ctx) != nil {
		key := core.RunKey(d.comm, d.name(), d.spec, d.model, st, seed, 0, nil)
		sum, err := cachedRun(ctx, key, run)
		if err != nil {
			return runOutcome{}, fmt.Errorf("%s/%s %v seed %d: %w", d.row, d.comm, st, seed, err)
		}
		return outcomeOf(sum), nil
	}
	rep, err := run()
	if err != nil {
		return runOutcome{}, fmt.Errorf("%s/%s %v seed %d: %w", d.row, d.comm, st, seed, err)
	}
	return outcomeOfReport(rep), nil
}

// runSeeds executes the cell's whole seed group for one strategy as a single
// batched task; see batchSeedGroup.
func (d cellDef) runSeeds(ctx context.Context, st timing.Strategy, seeds []uint64) (batchOutcome, error) {
	return batchSeedGroup(ctx, d.smAlg, d.mpAlg, d.comm, d.spec, d.model, st, seeds,
		func(seed uint64, err error) error {
			return fmt.Errorf("%s/%s %v seed %d: %w", d.row, d.comm, st, seed, err)
		})
}

// aggregate folds the cell's index-ordered run outcomes into a Cell. The
// fold visits outcomes in matrix order (strategies outer, seeds inner), so
// the result is independent of the parallelism that produced them.
func (d cellDef) aggregate(cfg Config, outs []runOutcome) Cell {
	vals := make([]float64, 0, len(outs))
	respects := true
	worstUpper := d.upper
	for _, o := range outs {
		if d.rounds {
			vals = append(vals, float64(o.rounds))
			continue
		}
		vals = append(vals, o.finish)
		if d.gammaUpper {
			gp := bounds.Params{
				S: cfg.S, N: cfg.N,
				C1: d.model.C1, D1: d.model.D1, D2: d.model.D2,
				Gamma: o.gamma,
			}
			u := bounds.SporadicMPU(gp)
			if o.finish > u {
				respects = false
			}
			if u > worstUpper {
				worstUpper = u
			}
		}
	}
	sum := stats.Summarize(vals)
	cell := Cell{
		Row: d.row, Comm: d.comm, Unit: d.unit,
		Lower: d.lower, Upper: worstUpper,
		Measured:      sum,
		RealizesLower: sum.Max >= d.lower,
		Algorithm:     d.name(),
	}
	if d.gammaUpper {
		cell.RespectsUpper = respects
	} else {
		cell.RespectsUpper = sum.Max <= worstUpper
	}
	return cell
}

// table1Defs lays out the nine Table-1 cells at the configuration.
func table1Defs(cfg Config) []cellDef {
	p := bounds.Params{
		S: cfg.S, N: cfg.N, B: cfg.B,
		C1: cfg.C1, C2: cfg.C2,
		Cmin: cfg.Cmin, Cmax: cfg.Cmax,
		D1: cfg.D1, D2: cfg.D2,
	}
	smSpec := core.Spec{S: cfg.S, N: cfg.N, B: cfg.B}
	mpSpec := core.Spec{S: cfg.S, N: cfg.N}

	syncL, syncU := bounds.SyncSM(p)
	syncLmp, syncUmp := bounds.SyncMP(p)
	return []cellDef{
		{row: "synchronous", comm: "SM", unit: "time", smAlg: synchronous.NewSM(), spec: smSpec,
			model: timing.NewSynchronous(cfg.C2, 0), lower: syncL, upper: syncU},
		{row: "synchronous", comm: "MP", unit: "time", mpAlg: synchronous.NewMP(), spec: mpSpec,
			model: timing.NewSynchronous(cfg.C2, cfg.D2), lower: syncLmp, upper: syncUmp},
		{row: "periodic", comm: "SM", unit: "time", smAlg: periodic.NewSM(), spec: smSpec,
			model: timing.NewPeriodic(cfg.Cmin, cfg.Cmax, 0),
			lower: bounds.PeriodicSML(p), upper: bounds.PeriodicSMU(p)},
		{row: "periodic", comm: "MP", unit: "time", mpAlg: periodic.NewMP(), spec: mpSpec,
			model: timing.NewPeriodic(cfg.Cmin, cfg.Cmax, cfg.D2),
			lower: bounds.PeriodicMPL(p), upper: bounds.PeriodicMPU(p)},
		{row: "semi-synchronous", comm: "SM", unit: "time", smAlg: semisync.NewSM(semisync.Auto), spec: smSpec,
			model: timing.NewSemiSynchronous(cfg.C1, cfg.C2, 0),
			lower: bounds.SemiSyncSML(p), upper: bounds.SemiSyncSMU(p)},
		{row: "semi-synchronous", comm: "MP", unit: "time", mpAlg: semisync.NewMP(semisync.Auto), spec: mpSpec,
			model: timing.NewSemiSynchronous(cfg.C1, cfg.C2, cfg.D2),
			lower: bounds.SemiSyncMPL(p), upper: bounds.SemiSyncMPU(p)},
		{row: "sporadic", comm: "MP", unit: "time", mpAlg: sporadic.NewMP(), spec: mpSpec,
			model: timing.NewSporadic(cfg.C1, cfg.D1, cfg.D2, 0),
			lower: bounds.SporadicMPL(p), gammaUpper: true},
		{row: "asynchronous", comm: "SM", unit: "rounds", smAlg: async.NewSM(), spec: smSpec,
			model: timing.NewAsynchronousSM(0),
			lower: bounds.AsyncSML(p), upper: bounds.AsyncSMU(p), rounds: true},
		{row: "asynchronous", comm: "MP", unit: "time", mpAlg: async.NewMP(), spec: mpSpec,
			model: timing.NewAsynchronousMP(cfg.C2, cfg.D2),
			lower: bounds.AsyncMPL(p), upper: bounds.AsyncMPU(p)},
	}
}

// Table1 regenerates every cell of Table 1 at the given configuration.
func Table1(cfg Config) ([]Cell, error) {
	return Table1Ctx(context.Background(), cfg)
}

// Table1Ctx is Table1 with cancellation: the full run matrix (cell ×
// strategy × seed) fans across the configured engine, and ctx aborts
// in-flight simulations mid-computation.
func Table1Ctx(ctx context.Context, cfg Config) ([]Cell, error) {
	cfg = cfg.withDefaults()
	defs := table1Defs(cfg)
	sts := timing.AllStrategies()
	per := len(sts) * cfg.Seeds

	var outs []runOutcome
	var err error
	if cfg.NoSeedBatch {
		outs, err = engine.Map(ctx, cfg.engineOrNew(), len(defs)*per,
			func(i int) string {
				d := defs[i/per]
				return fmt.Sprintf("%s/%s %v seed %d",
					d.row, d.comm, sts[(i%per)/cfg.Seeds], i%cfg.Seeds+1)
			},
			func(ctx context.Context, i int) (runOutcome, error) {
				d := defs[i/per]
				j := i % per
				return d.runOnce(ctx, sts[j/cfg.Seeds], uint64(j%cfg.Seeds)+1)
			})
	} else {
		// Batched: one task per (cell, strategy) seed group. Flattening the
		// group outcomes back into the flat matrix layout keeps aggregation
		// identical to the per-seed path at any parallelism.
		seeds := seedAxis(cfg.Seeds)
		var bouts []batchOutcome
		bouts, err = engine.Map(ctx, cfg.engineOrNew(), len(defs)*len(sts),
			func(g int) string {
				d := defs[g/len(sts)]
				return fmt.Sprintf("%s/%s %v seeds 1-%d",
					d.row, d.comm, sts[g%len(sts)], cfg.Seeds)
			},
			func(ctx context.Context, g int) (batchOutcome, error) {
				return defs[g/len(sts)].runSeeds(ctx, sts[g%len(sts)], seeds)
			})
		if err == nil {
			outs = make([]runOutcome, len(defs)*per)
			for g, b := range bouts {
				copy(outs[g*cfg.Seeds:(g+1)*cfg.Seeds], b.outs)
			}
		}
	}
	if err != nil {
		return nil, err
	}

	cells := make([]Cell, len(defs))
	for ci, d := range defs {
		cells[ci] = d.aggregate(cfg, outs[ci*per:(ci+1)*per])
	}
	return cells, nil
}

// WriteTable renders cells as an aligned text table.
func WriteTable(w io.Writer, cells []Cell) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "MODEL\tCOMM\tUNIT\tPAPER L\tPAPER U\tMEASURED MAX\tMEAN\tVERDICT\tALGORITHM")
	for _, c := range cells {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.0f\t%.0f\t%.0f\t%.1f\t%s\t%s\n",
			c.Row, c.Comm, c.Unit, c.Lower, c.Upper,
			c.Measured.Max, c.Measured.Mean, c.Verdict(), c.Algorithm)
	}
	return tw.Flush()
}
