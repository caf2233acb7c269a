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
// The cells themselves — row labels, designated algorithms, timing models
// and bound formulas — are internal/alg/registry's; Table 1, the hierarchy
// and the fault sweep iterate them.
//
// All measurement entry points fan their run matrix across an
// internal/engine worker pool, the caller's or a fresh one: results are
// index-addressed, so the output is byte-identical at any parallelism
// level, and the caller's context reaches into every in-flight
// simulation.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"text/tabwriter"

	"sessionproblem/internal/alg/registry"
	"sessionproblem/internal/bounds"
	"sessionproblem/internal/core"
	"sessionproblem/internal/engine"
	"sessionproblem/internal/fault"
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

	// Engine optionally supplies a shared execution engine, carrying its
	// own parallelism, observer and run cache. Nil means a fresh
	// GOMAXPROCS-wide engine per call. Results are deterministic at any
	// parallelism.
	Engine *engine.Engine

	// NoSeedBatch disables seed batching: every (strategy, seed) run becomes
	// its own engine task, a seed group of one on the same path as the
	// default layout, so no seed is served from another seed's run. Results
	// are byte-identical either way; this is an escape hatch for debugging
	// and for isolating per-run timings, and the reference the differential
	// tests compare against.
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

// withDefaults fills every zero-valued knob from Default except C1. Timing
// parameters are included: a zero C2 or Cmax would otherwise build
// degenerate models (zero-length steps and periods) that the simulators
// reject or, worse, run meaninglessly fast. C1 is the one a caller can
// mean as zero, and the semi-synchronous and sporadic bounds divide by
// it, so a zero C1 is rejected (CheckC1) rather than replaced.
func (c Config) withDefaults() Config {
	def := Default()
	if c.Seeds == 0 {
		c.Seeds = def.Seeds
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

// params renders the configuration as the bound formulas' parameters.
func (c Config) params() bounds.Params {
	return bounds.Params{
		S: c.S, N: c.N, B: c.B,
		C1: c.C1, C2: c.C2,
		Cmin: c.Cmin, Cmax: c.Cmax,
		D1: c.D1, D2: c.D2,
	}
}

// engineOr returns eng or, when it is nil, the harness's default engine:
// GOMAXPROCS workers, each with a reusable core.RunScratch, so the sweep's
// steady state recycles the executors' queues and bookkeeping. A scratch
// holds capacity only, so nothing a run reports points into it.
func engineOr(eng *engine.Engine) *engine.Engine {
	if eng != nil {
		return eng
	}
	return engine.New(engine.WithWorkerState(func() any { return new(core.RunScratch) }))
}

// scratchFrom extracts the per-worker scratch; nil (scratch-free runs) when
// the engine was supplied externally without one.
func scratchFrom(ctx context.Context) *core.RunScratch {
	sc, _ := engine.WorkerState(ctx).(*core.RunScratch)
	return sc
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

// runOutcome is one run's projection onto the scalars every aggregation
// reads: finish, rounds and γ for Table 1 and the sweeps, the audit verdict
// and silent flag for the fault sweep, and the counts engine accounting
// reads. Report-free, so a cache hit and a live run project identically.
type runOutcome struct {
	finish  float64
	rounds  int
	gamma   sim.Duration
	verdict fault.Verdict
	silent  bool

	steps, sessions, messages, faults, violations int
}

// outcomeOf projects a run summary onto the harness outcome.
func outcomeOf(sum *core.RunSummary) runOutcome {
	return runOutcome{
		finish:     float64(sum.Finish),
		rounds:     sum.Rounds,
		gamma:      sum.Gamma,
		verdict:    sum.Audit.Verdict,
		silent:     sum.Audit.Silent(),
		steps:      sum.Steps,
		sessions:   sum.Sessions,
		messages:   sum.Messages,
		faults:     sum.Faults,
		violations: sum.Audit.Violations.Len(),
	}
}

// outcomeOfReport is outcomeOf without the summary detour, for faulted runs
// no cache keeps: summarizing them would render every violation only to
// drop the text. The two derive every field identically, so attaching a
// cache never changes a result.
func outcomeOfReport(rep *core.Report) runOutcome {
	return runOutcome{
		finish:     float64(rep.Finish),
		rounds:     rep.Rounds,
		gamma:      rep.Gamma,
		verdict:    rep.Audit.Verdict,
		silent:     rep.Audit.Silent(),
		steps:      rep.Steps(),
		sessions:   rep.Sessions,
		messages:   rep.Messages,
		faults:     len(rep.Faults),
		violations: rep.Audit.Violations.Len(),
	}
}

// groupOutcome is the harness's one engine task result: a seed group's
// outcomes in seed order plus the seed-group layer's accounting for it.
// Runs are projected inside the task, so no summary outlives it.
type groupOutcome struct {
	outs  []runOutcome
	stats core.BatchStats
}

// Account feeds the group's counts into engine.Stats: each seed's run counts
// once, exactly as it would have as its own task.
func (g groupOutcome) Account() engine.Counts {
	c := engine.Counts{BatchForks: g.stats.Forks, BatchFallbacks: g.stats.Fallbacks}
	for _, o := range g.outs {
		c.Steps += o.steps
		c.Sessions += o.sessions
		c.Messages += o.messages
		c.Faults += o.faults
		c.Violations += o.violations
	}
	return c
}

// checkSeeds rejects a negative seed count; zero is valid and, in a
// configuration, selects the default.
func checkSeeds(k int) error {
	if k < 0 {
		return fmt.Errorf("harness: seed count must be non-negative, got %d", k)
	}
	return nil
}

// CheckSpec rejects an instance the bound formulas cannot evaluate, before
// any bound is computed or any run starts: s or n below 1, or, where a
// cell's formulas read the access bound (readsB), b below 2.
func CheckSpec(s, n, b int, readsB bool) error {
	switch {
	case s < 1:
		return fmt.Errorf("harness: s must be >= 1, got %d", s)
	case n < 1:
		return fmt.Errorf("harness: n must be >= 1, got %d", n)
	case readsB && b < 2:
		return fmt.Errorf("harness: b must be >= 2, got %d", b)
	}
	return nil
}

// CheckC1 rejects a step lower bound below 1 for the cells whose bound
// formulas divide by it (registry.Cell.ReadsC1): Table 1, the hierarchy and
// the tightness experiment all include such cells.
func CheckC1(c1 sim.Duration) error {
	if c1 < 1 {
		return fmt.Errorf("harness: c1 must be >= 1, got %d", c1)
	}
	return nil
}

// runGroups is the harness's one task layout: n groups, each run over seeds
// 1..k. Every group is one engine task, or with noBatch every seed is its
// own task, a group of one, so no seed is served from another seed's run.
// Tasks are labelled "<prefix(g)> seeds 1-k" and "<prefix(g)> seed i"
// (sessiond streams these labels), and run executes a group's seeds. The
// outcomes come back flat and group-major — group g's seed i at g*k+i-1 —
// whatever the layout and parallelism. A negative k is an error, so every
// run matrix rejects a negative seed count before it runs anything.
func runGroups(ctx context.Context, eng *engine.Engine, n, k int, noBatch bool,
	prefix func(g int) string,
	run func(ctx context.Context, g int, seeds []uint64) (groupOutcome, error)) ([]runOutcome, error) {
	if err := checkSeeds(k); err != nil {
		return nil, err
	}
	seeds := make([]uint64, k)
	for i := range seeds {
		seeds[i] = uint64(i) + 1
	}
	// span maps task t to its group and the group's seeds[lo:hi].
	tasks, span := n, func(t int) (g, lo, hi int) { return t, 0, k }
	if noBatch {
		tasks, span = n*k, func(t int) (g, lo, hi int) { return t / k, t % k, t%k + 1 }
	}
	gos, err := engine.Map(ctx, eng, tasks,
		func(t int) string {
			g, lo, _ := span(t)
			if noBatch {
				return fmt.Sprintf("%s seed %d", prefix(g), seeds[lo])
			}
			return fmt.Sprintf("%s seeds 1-%d", prefix(g), k)
		},
		func(ctx context.Context, t int) (groupOutcome, error) {
			g, lo, hi := span(t)
			return run(ctx, g, seeds[lo:hi])
		})
	if err != nil {
		return nil, err
	}
	outs := make([]runOutcome, 0, n*k)
	for _, g := range gos {
		outs = append(outs, g.outs...)
	}
	return outs, nil
}

// groupRunner runs a seed group's cache misses together. It returns one
// outcome per seed and, when keep is set, the verified summary the cache
// stores for each.
type groupRunner func(seeds []uint64, keep bool) ([]runOutcome, []*core.RunSummary, core.BatchStats, error)

// summarized adapts a core seed-group runner's results, whose summaries
// serve both the outcomes and the cache, to a groupRunner's.
func summarized(sums []*core.RunSummary, stats core.BatchStats, err error) ([]runOutcome, []*core.RunSummary, core.BatchStats, error) {
	outs := make([]runOutcome, len(sums))
	for j, sum := range sums {
		outs[j] = outcomeOf(sum)
	}
	return outs, sums, stats, err
}

// cachedGroup is the harness's one cache protocol. With a run cache
// attached to ctx, every seed keeps its own content-addressed slot (key
// renders it; without a cache no key is rendered): hits skip simulation,
// the misses run together through run, and only verified summaries reach
// Put. Errors are never cached — which is also what makes journaled resume
// safe: replaying a crashed sweep's journal (internal/journal) can
// resurrect finished work but never a failure. wrap renders a failure with
// the seed it is attributed to.
func cachedGroup(ctx context.Context, seeds []uint64, key func(seed uint64) string, run groupRunner, wrap func(seed uint64, err error) error) (groupOutcome, error) {
	g := groupOutcome{outs: make([]runOutcome, len(seeds))}
	cache := engine.RunCacheFrom(ctx)
	var keys []string
	if cache != nil {
		keys = make([]string, len(seeds))
	}
	missAt := make([]int, 0, len(seeds))
	miss := make([]uint64, 0, len(seeds))
	for i, seed := range seeds {
		if cache != nil {
			keys[i] = key(seed)
			if v, ok := cache.Get(keys[i]); ok {
				g.outs[i] = outcomeOf(v.(*core.RunSummary))
				continue
			}
		}
		missAt = append(missAt, i)
		miss = append(miss, seed)
	}
	if len(miss) == 0 {
		return g, nil
	}
	outs, sums, stats, err := run(miss, cache != nil)
	g.stats = stats
	if err != nil {
		seed, inner := miss[0], err
		var be *core.BatchError
		if errors.As(err, &be) {
			seed, inner = be.Seed, be.Err
		}
		return g, wrap(seed, inner)
	}
	for j, i := range missAt {
		if cache != nil {
			cache.Put(keys[i], sums[j])
		}
		g.outs[i] = outs[j]
	}
	return g, nil
}

// batchSeedGroup runs one (algorithm, model, strategy) seed group through
// core's seed-group runner, trace-free, under cachedGroup's cache protocol:
// only the cache misses enter the group run, and a single miss (every
// group of one among them) is a probe with nothing to share. Outcomes and
// cache contents are byte-identical to solo runs of each seed. Exactly one
// of smAlg/mpAlg is set; wrap renders a failure with the seed it is
// attributed to.
func batchSeedGroup(ctx context.Context, smAlg core.SMAlgorithm, mpAlg core.MPAlgorithm, comm string, spec core.Spec, m timing.Model, st timing.Strategy, seeds []uint64, wrap func(seed uint64, err error) error) (groupOutcome, error) {
	key := func(seed uint64) string {
		name := ""
		if smAlg != nil {
			name = smAlg.Name()
		} else {
			name = mpAlg.Name()
		}
		return core.RunKey(comm, name, spec, m, st, seed, 0, nil)
	}
	return cachedGroup(ctx, seeds, key, func(miss []uint64, _ bool) ([]runOutcome, []*core.RunSummary, core.BatchStats, error) {
		if smAlg != nil {
			return summarized(core.BatchRunSM(ctx, smAlg, spec, m, st, miss, scratchFrom(ctx)))
		}
		return summarized(core.BatchRunMP(ctx, mpAlg, spec, m, st, miss, scratchFrom(ctx)))
	}, wrap)
}

// aggregate folds a cell's run outcomes into a Cell. The fold visits
// outcomes in matrix order (strategies outer, seeds inner), so the result
// is independent of the parallelism that produced them. An upper bound
// that reads γ is evaluated at each run's measured γ; Upper reports the
// largest.
func aggregate(c registry.Cell, p bounds.Params, outs []runOutcome) Cell {
	lower, upper := c.Bounds(p)
	vals := make([]float64, 0, len(outs))
	respects, worstUpper := true, upper
	for _, o := range outs {
		v := o.finish
		if c.Unit == "rounds" {
			v = float64(o.rounds)
		}
		vals = append(vals, v)
		u := upper
		if c.ReadsGamma {
			rp := p
			rp.Gamma = o.gamma
			_, u = c.Bounds(rp)
		}
		if v > u {
			respects = false
		}
		if u > worstUpper {
			worstUpper = u
		}
	}
	sum := stats.Summarize(vals)
	return Cell{
		Row: c.Row, Comm: c.Comm, Unit: c.Unit,
		Lower: lower, Upper: worstUpper,
		Measured:      sum,
		RealizesLower: sum.Max >= lower,
		RespectsUpper: respects,
		Algorithm:     c.Algorithm(),
	}
}

// Table1Ctx regenerates every cell of Table 1 at the given configuration:
// the full run matrix (cell × strategy × seed) fans across the configured
// engine, and ctx aborts in-flight simulations mid-computation.
func Table1Ctx(ctx context.Context, cfg Config) ([]Cell, error) {
	cfg = cfg.withDefaults()
	if err := CheckSpec(cfg.S, cfg.N, cfg.B, true); err != nil {
		return nil, err
	}
	if err := CheckC1(cfg.C1); err != nil {
		return nil, err
	}
	p := cfg.params()
	cells := registry.Cells()
	sts := timing.AllStrategies()
	outs, err := runGroups(ctx, engineOr(cfg.Engine), len(cells)*len(sts), cfg.Seeds, cfg.NoSeedBatch,
		func(g int) string {
			c := cells[g/len(sts)]
			return fmt.Sprintf("%s/%s %v", c.Row, c.Comm, sts[g%len(sts)])
		},
		func(ctx context.Context, g int, seeds []uint64) (groupOutcome, error) {
			c, st := cells[g/len(sts)], sts[g%len(sts)]
			return batchSeedGroup(ctx, c.SM, c.MP, c.Comm, c.Spec(cfg.S, cfg.N, cfg.B), c.Timing(p, 0), st, seeds,
				func(seed uint64, err error) error {
					return fmt.Errorf("%s/%s %v seed %d: %w", c.Row, c.Comm, st, seed, err)
				})
		})
	if err != nil {
		return nil, err
	}

	per := len(sts) * cfg.Seeds
	out := make([]Cell, len(cells))
	for i, c := range cells {
		out[i] = aggregate(c, p, outs[i*per:(i+1)*per])
	}
	return out, nil
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
