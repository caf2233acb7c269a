package sessionproblem

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"sessionproblem/internal/alg/registry"
	"sessionproblem/internal/core"
	"sessionproblem/internal/engine"
	"sessionproblem/internal/fault"
	"sessionproblem/internal/harness"
	"sessionproblem/internal/stats"
	"sessionproblem/internal/timing"
)

// TableCell is one Table-1 cell: a (timing model, communication model)
// pair with the paper's bound formulas and the measured running times. The
// JSON tags are the v1 wire contract (package wire); changing a name is a
// wire version bump, not a rename.
type TableCell struct {
	// Model and Comm identify the cell ("periodic", "SM").
	Model string `json:"model"`
	Comm  string `json:"comm"`
	// Unit is "time" (ticks) or "rounds".
	Unit string `json:"unit"`
	// PaperLower and PaperUpper are the paper's bound formulas evaluated at
	// the configuration.
	PaperLower float64 `json:"paperLower"`
	PaperUpper float64 `json:"paperUpper"`
	// Measured summary across every (strategy, seed) run.
	MeasuredMin  float64 `json:"measuredMin"`
	MeasuredMax  float64 `json:"measuredMax"`
	MeasuredMean float64 `json:"measuredMean"`
	MeasuredP95  float64 `json:"measuredP95"`
	Runs         int     `json:"runs"`
	// RealizesLower: some schedule pushed the measurement to the lower
	// bound. RespectsUpper: every run stayed within the upper bound.
	RealizesLower bool `json:"realizesLower"`
	RespectsUpper bool `json:"respectsUpper"`
	// Verdict is "ok", "upper-only" or "VIOLATION".
	Verdict string `json:"verdict"`
	// Algorithm names the implementation measured.
	Algorithm string `json:"algorithm"`
}

// TableResult is a regenerated Table 1 plus the engine's accounting.
type TableResult struct {
	Cells []TableCell
	Stats Stats
}

func cellOf(c harness.Cell) TableCell {
	return TableCell{
		Model: c.Row, Comm: c.Comm, Unit: c.Unit,
		PaperLower: c.Lower, PaperUpper: c.Upper,
		MeasuredMin: c.Measured.Min, MeasuredMax: c.Measured.Max,
		MeasuredMean: c.Measured.Mean, MeasuredP95: c.Measured.P95,
		Runs:          c.Measured.Count,
		RealizesLower: c.RealizesLower, RespectsUpper: c.RespectsUpper,
		Verdict:   c.Verdict(),
		Algorithm: c.Algorithm,
	}
}

// Table1 regenerates the paper's Table 1 — upper and lower bounds for the
// (s, n)-session problem across five timing models and two communication
// models — running the full (cell × strategy × seed) matrix on a worker
// pool. Results are deterministic at any parallelism.
func Table1(ctx context.Context, opts ...Option) (*TableResult, error) {
	cfg, err := newSettings(opts).initCache()
	if err != nil {
		return nil, err
	}
	defer cfg.close()
	eng := cfg.engine()
	cells, err := harness.Table1Ctx(ctx, cfg.harnessConfig(eng))
	if err != nil {
		return nil, err
	}
	res := &TableResult{Stats: statsOf(eng)}
	for _, c := range cells {
		res.Cells = append(res.Cells, cellOf(c))
	}
	return res, nil
}

// WriteTable renders cells in cmd/sessiontable's aligned text format.
func WriteTable(w io.Writer, cells []TableCell) error {
	hcells := make([]harness.Cell, len(cells))
	for i, c := range cells {
		hcells[i] = harness.Cell{
			Row: c.Model, Comm: c.Comm, Unit: c.Unit,
			Lower: c.PaperLower, Upper: c.PaperUpper,
			Measured:      stats.Summary{Max: c.MeasuredMax, Mean: c.MeasuredMean},
			RealizesLower: c.RealizesLower, RespectsUpper: c.RespectsUpper,
			Algorithm: c.Algorithm,
		}
	}
	return harness.WriteTable(w, hcells)
}

// HierarchyRow is one timing model's entry in the model-hierarchy summary.
// The JSON tags are the v1 wire contract (package wire).
type HierarchyRow struct {
	Model     string  `json:"model"`
	Comm      string  `json:"comm"`
	Unit      string  `json:"unit"`
	WorstTime float64 `json:"worstTime"`
	Algorithm string  `json:"algorithm"`
}

// HierarchyResult is the measured model hierarchy plus engine accounting.
type HierarchyResult struct {
	Rows  []HierarchyRow
	Stats Stats
}

// Hierarchy measures the worst-case running time of every model's
// algorithm at one parameter point (the paper's qualitative ordering:
// synchronous <= periodic <= semi-synchronous/sporadic <= asynchronous).
func Hierarchy(ctx context.Context, opts ...Option) (*HierarchyResult, error) {
	cfg, err := newSettings(opts).initCache()
	if err != nil {
		return nil, err
	}
	defer cfg.close()
	eng := cfg.engine()
	rows, err := harness.HierarchyCtx(ctx, cfg.harnessConfig(eng))
	if err != nil {
		return nil, err
	}
	res := &HierarchyResult{Stats: statsOf(eng)}
	for _, r := range rows {
		res.Rows = append(res.Rows, HierarchyRow{
			Model: r.Model, Comm: r.Comm, Unit: r.Unit,
			WorstTime: r.Measured, Algorithm: r.Algorithm,
		})
	}
	return res, nil
}

// WriteHierarchy renders hierarchy rows as an aligned table.
func WriteHierarchy(w io.Writer, rows []HierarchyRow) error {
	hrows := make([]harness.HierarchyRow, len(rows))
	for i, r := range rows {
		hrows[i] = harness.HierarchyRow{
			Model: r.Model, Comm: r.Comm, Unit: r.Unit,
			Measured: r.WorstTime, Algorithm: r.Algorithm,
		}
	}
	return harness.WriteHierarchy(w, hrows)
}

// SweepKind selects a parameter-sweep experiment.
type SweepKind int

const (
	// SweepSporadicDelay (F1): per-session time of the sporadic algorithm
	// as the delay lower bound d1 sweeps from 0 to d2 — the paper's
	// synchronous/asynchronous crossover.
	SweepSporadicDelay SweepKind = iota + 1
	// SweepPeriodicVsSemiSync (F2): periodic versus semi-synchronous
	// running time as the required session count grows.
	SweepPeriodicVsSemiSync
	// SweepPeriodicVsSporadic (F3): periodic versus sporadic running time
	// as the period maximum cmax grows.
	SweepPeriodicVsSporadic
	// SweepNetworkDiameter (F5): the asynchronous algorithm over concrete
	// point-to-point topologies with per-hop delays bounded by d2
	// (WithDelayBounds), demonstrating the paper's conversion of [4]'s
	// diameter factor into d2. WithTopologies selects the families (fixed:
	// complete, star, ring, line — the default; generated: grid, torus,
	// expander, random-regular). Points carry X = diameter, Label =
	// topology name, and the abstract Table-1 upper bound evaluated at
	// d2 := diameter * hop-delay.
	SweepNetworkDiameter
	// SweepFaultIntensity: the robustness sweep — every message-passing
	// model's algorithm under increasing deterministic fault intensity
	// (WithFaultIntensities; WithFaultPlan seeds and restricts the injected
	// kinds). Points carry X = intensity, Label = "model i=x", and Measured
	// = the fraction of runs whose session guarantee survived (1 = all).
	SweepFaultIntensity
)

// SweepPoint is one x/y observation of a sweep, with the paper-predicted
// envelope at that x (for comparison sweeps the envelope fields carry the
// two contenders). The JSON tags are the v1 wire contract (package wire).
type SweepPoint struct {
	X          float64 `json:"x"`
	Label      string  `json:"label"`
	Measured   float64 `json:"measured"`
	PaperLower float64 `json:"paperLower"`
	PaperUpper float64 `json:"paperUpper"`
}

// SweepResult is a completed sweep plus engine accounting.
type SweepResult struct {
	Points []SweepPoint
	Stats  Stats
}

// Sweep runs one of the paper's comparison experiments, fanning every
// (point × strategy × seed) run across the worker pool. The swept range
// comes from WithSweepSteps, WithMaxSessions or WithPeriodMaxima according
// to the kind.
func Sweep(ctx context.Context, kind SweepKind, opts ...Option) (*SweepResult, error) {
	cfg, err := newSettings(opts).initCache()
	if err != nil {
		return nil, err
	}
	defer cfg.close()
	eng := cfg.engine()

	spec := harness.SweepSpec{
		S: cfg.s, N: cfg.n,
		C1: cfg.c1, C2: cfg.c2, D1: cfg.d1, D2: cfg.d2,
		Steps: cfg.sweepSteps, MaxS: cfg.maxSessions, Cmaxs: cfg.periodMaxima,
		Seeds:       cfg.seeds,
		Engine:      eng,
		NoSeedBatch: cfg.noSeedBatch,
	}
	switch kind {
	case SweepSporadicDelay:
		spec.Kind = harness.SweepKindSporadicDelay
	case SweepPeriodicVsSemiSync:
		spec.Kind = harness.SweepKindPeriodicVsSemiSync
	case SweepPeriodicVsSporadic:
		spec.Kind = harness.SweepKindPeriodicVsSporadic
		if len(spec.Cmaxs) == 0 {
			return nil, fmt.Errorf("sessionproblem: SweepPeriodicVsSporadic needs WithPeriodMaxima")
		}
	case SweepNetworkDiameter:
		spec.Kind = harness.SweepKindNetworkDiameter
		spec.Topologies = cfg.topologies
	case SweepFaultIntensity:
		spec.Kind = harness.SweepKindFaultIntensity
		spec.Intensities = cfg.sortedIntensities()
		if cfg.faultPlan != nil {
			spec.FaultSeed = cfg.faultPlan.Seed
			spec.FaultKinds = cfg.faultPlan.Kinds
		}
	default:
		return nil, fmt.Errorf("sessionproblem: unknown sweep kind %d", kind)
	}
	pts, err := harness.Sweep(ctx, spec)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Stats: statsOf(eng)}
	for _, p := range pts {
		res.Points = append(res.Points, SweepPoint(p))
	}
	return res, nil
}

// Report is the verified outcome of a single run. The JSON tags are the v1
// wire contract (package wire); changing a name is a wire version bump.
type Report struct {
	// Algorithm and Model identify what ran.
	Algorithm string `json:"algorithm"`
	Model     string `json:"model"`
	// Finish is the running time in ticks: the time by which every port
	// process is idle.
	Finish Ticks `json:"finish"`
	// Sessions is the number of disjoint sessions achieved; Rounds the
	// number of disjoint rounds (the asynchronous shared-memory measure).
	Sessions int `json:"sessions"`
	Rounds   int `json:"rounds"`
	// Steps is the number of process steps in the computation; Messages
	// counts broadcasts (message passing only).
	Steps    int `json:"steps"`
	Messages int `json:"messages"`
	// Gamma is the largest step time any process took — the per-computation
	// parameter γ of the sporadic analysis (feed it back to PaperEnvelope
	// via WithGamma).
	Gamma Ticks `json:"gamma"`
	// Spans is the greedy disjoint-session decomposition: one entry per
	// achieved session, with its completion boundaries.
	Spans []SessionSpan `json:"spans,omitempty"`

	// Admissible reports whether the run satisfied every timing-model
	// assumption and the session guarantee; always true on the plain
	// (fault-free) path, which fails hard instead of degrading.
	Admissible bool `json:"admissible"`
	// Verdict is the auditor's classification: "admissible", "recovered"
	// (assumptions violated but the guarantee survived) or "broken".
	Verdict string `json:"verdict"`
	// Violations lists every violated assumption: injected faults in
	// execution order, then the gap bounds the computation broke (by
	// process, each process's in step order), then the delay bounds (in
	// send order). Nil for admissible runs.
	Violations []string `json:"violations,omitempty"`
	// FaultsInjected counts the faults applied to the reported attempt.
	FaultsInjected int `json:"faultsInjected"`
	// Attempts is the number of runs executed (1 + retries actually used).
	Attempts int `json:"attempts"`
	// RobustnessMargin is the largest swept fault intensity at which the
	// session guarantee still held (see WithRobustnessMargin); -1 when the
	// sweep did not run or the guarantee broke at the lowest intensity.
	RobustnessMargin float64 `json:"robustnessMargin"`
	// RobustnessMargins breaks the margin down by fault class (see
	// WithPerKindMargins): for each injectable kind, the largest swept
	// intensity the guarantee survived with only that kind injected. Nil
	// when the per-kind sweep did not run. JSON keys are the numeric fault
	// kinds (stable enum values), rendered by encoding/json.
	RobustnessMargins map[FaultKind]float64 `json:"robustnessMargins,omitempty"`
}

// SessionSpan is one disjoint session of a computation. The JSON tags are
// the v1 wire contract (package wire).
type SessionSpan struct {
	// Index is the 1-based session number.
	Index int `json:"i"`
	// Start and End are the times of the fragment's first step and of the
	// step completing the session.
	Start Ticks `json:"start"`
	End   Ticks `json:"end"`
}

func spansOf(sum *core.RunSummary) []SessionSpan {
	var out []SessionSpan
	for _, sp := range sum.Spans {
		out = append(out, SessionSpan{Index: sp.Index, Start: Ticks(sp.Start), End: Ticks(sp.End)})
	}
	return out
}

// Model names a timing model for Solve.
type Model string

// The five timing models of the paper.
const (
	Synchronous     Model = "synchronous"
	Periodic        Model = "periodic"
	SemiSynchronous Model = "semisync"
	Sporadic        Model = "sporadic"
	Asynchronous    Model = "async"
)

// Comm names a communication model for Solve.
type Comm string

// The two communication models of the paper.
const (
	SharedMemory   Comm = "sm"
	MessagePassing Comm = "mp"
)

// tableCell looks up the Table-1 cell of (m, comm): the one Solve runs and
// PaperEnvelope evaluates.
func tableCell(m Model, comm Comm) (registry.Cell, error) {
	var c registry.Cell
	ok := false
	if comm == SharedMemory || comm == MessagePassing {
		c, ok = registry.Find(string(m), strings.ToUpper(string(comm)))
	}
	_, known := registry.Find(string(m), "MP") // every model has a message-passing cell
	switch {
	case ok:
		return c, nil
	case !known:
		return c, fmt.Errorf("sessionproblem: unknown model %q", m)
	case m == Sporadic:
		return c, fmt.Errorf("sessionproblem: the sporadic SM model equals the asynchronous SM model; use Asynchronous")
	default:
		return c, fmt.Errorf("sessionproblem: unknown communication model %q (want sm or mp)", comm)
	}
}

// defaultFaultMaxSteps caps faulted executions well below the executors'
// 1M default: a crashed relay can starve the others indefinitely, and the
// audit only needs enough trace to classify the outcome.
const defaultFaultMaxSteps = 200_000

// defaultIntensities is the fault-intensity axis when WithFaultIntensities
// is not given (shared with harness.FaultSweepConfig's default).
var defaultIntensities = []float64{0, 0.05, 0.1, 0.2, 0.4, 0.8}

// sortedIntensities returns the configured intensity axis in ascending
// order (margin logic depends on it).
func (s settings) sortedIntensities() []float64 {
	if len(s.faultIntensities) == 0 {
		return append([]float64(nil), defaultIntensities...)
	}
	out := append([]float64(nil), s.faultIntensities...)
	sort.Float64s(out)
	return out
}

// Solve runs the designated algorithm for the given timing and
// communication model on one schedule (WithSchedule selects strategy and
// seed), verifies admissibility and the session condition, and reports the
// result.
//
// With WithFaultPlan, WithRetries or WithRobustnessMargin, Solve switches to
// graceful degradation: the run is audited rather than pass/failed, retries
// re-draw the fault schedule until an admissible outcome (or the retry
// budget runs out), and a broken guarantee comes back as a report with
// Verdict "broken" and a nil error — no silent wrong answers, but no hard
// failure either. Context cancellation still surfaces as an error.
func Solve(ctx context.Context, m Model, comm Comm, opts ...Option) (*Report, error) {
	cfg, err := newSettings(opts).initCache()
	if err != nil {
		return nil, err
	}
	defer cfg.close()
	st, err := cfg.parseStrategy()
	if err != nil {
		return nil, err
	}
	c, err := tableCell(m, comm)
	if err != nil {
		return nil, err
	}
	id := solveID{
		comm: c.Comm, sm: c.SM, mp: c.MP,
		spec: c.Spec(cfg.s, cfg.n, cfg.b), model: c.Timing(cfg.params(), cfg.gapCap),
		strategy: st, seed: cfg.seed,
	}
	if id.sm != nil && cfg.smAlg != nil {
		id.sm = cfg.smAlg
	}
	if id.mp != nil && cfg.mpAlg != nil {
		id.mp = cfg.mpAlg
	}

	if cfg.faultPlan == nil && cfg.retries == 0 && !cfg.robustness {
		sum, err := cfg.cachedRun(ctx, id.label(), id.key(0, nil), id.runPlain)
		if err != nil {
			return nil, err
		}
		out := reportOf(sum)
		out.Admissible = true
		out.Verdict = fault.VerdictAdmissible.String()
		out.Attempts = 1
		out.RobustnessMargin = -1
		return out, nil
	}
	return cfg.solveFaulted(ctx, id)
}

// solveID is the run one Solve call makes: the cell's algorithm, or the
// caller's WithSMAlgorithm/WithMPAlgorithm one (exactly one of sm and mp is
// set), under the cell's spec and timing model and the chosen schedule.
type solveID struct {
	comm     string
	sm       core.SMAlgorithm
	mp       core.MPAlgorithm
	spec     core.Spec
	model    timing.Model
	strategy timing.Strategy
	seed     uint64
}

func (id solveID) alg() string {
	if id.sm != nil {
		return id.sm.Name()
	}
	return id.mp.Name()
}

// key renders the run's cache key. The key space is the harness's, so a
// Solve that coincides with a table or sweep run reuses its cache slot.
func (id solveID) key(maxSteps int, plan *fault.Plan) string {
	return core.RunKey(id.comm, id.alg(), id.spec, id.model, id.strategy, id.seed, maxSteps, plan)
}

func (id solveID) label() string {
	return fmt.Sprintf("solve %s/%s %s seed %d", id.alg(), id.comm, id.strategy, id.seed)
}

// runPlain executes the fault-free run, certified online and trace-free.
func (id solveID) runPlain(ctx context.Context) (*core.Report, error) {
	if id.sm != nil {
		return core.RunSMStream(ctx, id.sm, id.spec, id.model, id.strategy, id.seed, nil, core.StreamOptions{})
	}
	return core.RunMPStream(ctx, id.mp, id.spec, id.model, id.strategy, id.seed, nil, core.StreamOptions{})
}

// faulted returns the cache key and the runner of one audited execution
// under plan (nil = injector-free).
func (id solveID) faulted(plan *fault.Plan) (string, func(context.Context) (*core.Report, error)) {
	fr := core.FaultRun{MaxSteps: defaultFaultMaxSteps}
	if plan != nil {
		fr.Injector = plan.Injector()
	}
	return id.key(defaultFaultMaxSteps, plan), func(ctx context.Context) (*core.Report, error) {
		if id.sm != nil {
			return core.RunSMFaulted(ctx, id.sm, id.spec, id.model, id.strategy, id.seed, fr)
		}
		return core.RunMPFaulted(ctx, id.mp, id.spec, id.model, id.strategy, id.seed, fr)
	}
}

// solveFaulted is Solve's degradation path: audit instead of fail, retry
// non-admissible attempts under fresh fault draws, and optionally sweep the
// intensity axis for the robustness margin (overall and per fault kind).
func (cfg settings) solveFaulted(ctx context.Context, id solveID) (*Report, error) {
	planAt := func(attempt int) *fault.Plan {
		if cfg.faultPlan == nil {
			return nil
		}
		// Attempt k re-seeds the plan with Seed+k: retries only help
		// because the fault draws change; the schedule itself is fixed.
		plan := cfg.faultPlan.WithSeed(cfg.faultPlan.Seed + uint64(attempt)).ScaledTo(id.model)
		return &plan
	}

	var best *core.RunSummary
	attempts := 0
	for a := 0; a <= cfg.retries; a++ {
		// Cancellation is never masked by the retry loop: an attempt the
		// cache serves runs no executor that would notice it, so check
		// before every attempt.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		plan := planAt(a)
		label := id.label()
		if plan != nil {
			label += " faulted"
		}
		key, run := id.faulted(plan)
		sum, err := cfg.cachedRun(ctx, label, key, run)
		if err != nil {
			return nil, err
		}
		attempts++
		if best == nil || sum.Audit.Verdict < best.Audit.Verdict {
			best = sum
		}
		if best.Audit.Verdict == fault.VerdictAdmissible {
			break
		}
	}

	margin := -1.0
	var kindMargins map[FaultKind]float64
	if cfg.robustness {
		var err error
		if margin, kindMargins, err = cfg.robustnessMargin(ctx, id); err != nil {
			return nil, err
		}
	}

	out := reportOf(best)
	out.Admissible = best.Audit.Verdict == fault.VerdictAdmissible
	out.Verdict = best.Audit.Verdict.String()
	// The summary may be shared via the cache; Strings hands the caller its
	// own copy (nil when there are none, matching the uncached shape).
	out.Violations = best.Audit.Violations.Strings()
	out.FaultsInjected = best.Faults
	out.Attempts = attempts
	out.RobustnessMargin = margin
	out.RobustnessMargins = kindMargins
	return out, nil
}

// robustnessMargin reruns the same schedule across the ascending intensity
// axis on the worker pool and returns the largest prefix intensity at which
// the session guarantee held. With WithPerKindMargins the matrix gains one
// row per injectable fault kind (the plan restricted to that kind), and the
// per-kind prefix margins come back alongside the overall one.
func (cfg settings) robustnessMargin(ctx context.Context, id solveID) (float64, map[FaultKind]float64, error) {
	intensities := cfg.sortedIntensities()
	base := fault.NewPlan(1, 0)
	if cfg.faultPlan != nil {
		base = *cfg.faultPlan
	}
	var kinds []FaultKind
	if cfg.perKindMargins {
		kinds = fault.AllKinds()
	}
	// Row 0 is the overall margin (the plan's own kind set); rows 1.. are
	// the per-kind restrictions. Flat index = row*len(intensities) + i.
	rows := 1 + len(kinds)
	planFor := func(row, i int) *fault.Plan {
		p := base
		if row > 0 {
			p.Kinds = []fault.Kind{kinds[row-1]}
		}
		p = p.WithIntensity(intensities[i]).ScaledTo(id.model)
		return &p
	}
	// The engine observes each run once, with the counts its summaryRun
	// accounts.
	runs, err := engine.Map(ctx, cfg.engine(), rows*len(intensities),
		func(j int) string {
			row, i := j/len(intensities), j%len(intensities)
			if row == 0 {
				return fmt.Sprintf("robustness i=%.2f", intensities[i])
			}
			return fmt.Sprintf("robustness %v i=%.2f", kinds[row-1], intensities[i])
		},
		func(ctx context.Context, j int) (summaryRun, error) {
			key, run := id.faulted(planFor(j/len(intensities), j%len(intensities)))
			sum, err := cfg.lookupOrRun(ctx, key, run)
			return summaryRun{sum}, err
		})
	if err != nil {
		return -1, nil, err
	}
	prefixMargin := func(row int) float64 {
		margin := -1.0
		for i := range intensities {
			if !runs[row*len(intensities)+i].sum.Audit.Held() {
				break
			}
			margin = intensities[i]
		}
		return margin
	}
	var kindMargins map[FaultKind]float64
	if len(kinds) > 0 {
		kindMargins = make(map[FaultKind]float64, len(kinds))
		for r, k := range kinds {
			kindMargins[k] = prefixMargin(r + 1)
		}
	}
	return prefixMargin(0), kindMargins, nil
}

// reportOf maps a run summary onto the public report (fault fields left
// zero). Both cache hits and live runs pass through here, so the output is
// byte-identical either way; the spans are freshly built per call, never
// shared with the cached summary.
func reportOf(sum *core.RunSummary) *Report {
	return &Report{
		Algorithm: sum.Algorithm,
		Model:     sum.Model.String(),
		Finish:    Ticks(sum.Finish),
		Sessions:  sum.Sessions,
		Rounds:    sum.Rounds,
		Steps:     sum.Steps,
		Messages:  sum.Messages,
		Gamma:     Ticks(sum.Gamma),
		Spans:     spansOf(sum),
	}
}

// summaryRun is one Solve run's summary as an engine task value. It is
// Accountable, so an Observation of the run carries its counts.
type summaryRun struct{ sum *core.RunSummary }

func (r summaryRun) Account() engine.Counts {
	if r.sum == nil {
		return engine.Counts{}
	}
	return engine.Counts{Steps: r.sum.Steps, Sessions: r.sum.Sessions, Messages: r.sum.Messages, Faults: r.sum.Faults}
}

// cachedRun runs one Solve run outside the engine through lookupOrRun and
// delivers its one Observation, carrying its counts or, on failure, Err,
// as the engine does for the runs it executes. A run the cache absorbed is
// observed too.
func (cfg settings) cachedRun(ctx context.Context, label, key string, run func(context.Context) (*core.Report, error)) (*core.RunSummary, error) {
	start := time.Now()
	sum, err := cfg.lookupOrRun(ctx, key, run)
	if cfg.observer != nil {
		cfg.observer(observationOf(engine.Result{
			Label: label, Wall: time.Since(start), Err: err, Counts: summaryRun{sum}.Account(),
		}))
	}
	return sum, err
}

// lookupOrRun serves the run from the configured run cache (none without
// WithRunCache, WithCacheDir or WithJournal) or executes and caches it.
// Errors are never cached.
func (cfg settings) lookupOrRun(ctx context.Context, key string, run func(context.Context) (*core.Report, error)) (*core.RunSummary, error) {
	if cfg.runCache != nil {
		if v, ok := cfg.runCache.Get(key); ok {
			return v.(*core.RunSummary), nil
		}
	}
	rep, err := run(ctx)
	if err != nil {
		return nil, err
	}
	sum := core.Summarize(rep)
	if cfg.runCache != nil {
		cfg.runCache.Put(key, sum)
	}
	return sum, nil
}
