package sessionproblem

import (
	"fmt"
	"time"

	"sessionproblem/internal/bounds"
	"sessionproblem/internal/core"
	"sessionproblem/internal/diskcache"
	"sessionproblem/internal/engine"
	"sessionproblem/internal/fault"
	"sessionproblem/internal/harness"
	"sessionproblem/internal/journal"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
)

// Ticks is a duration or instant in simulator virtual time.
type Ticks = int64

// Observation is one completed simulator run, delivered to the observer in
// completion order (nondeterministic under parallelism; aggregate results
// come back in deterministic matrix order regardless).
type Observation struct {
	// Label identifies the run, e.g. "periodic/MP slow seed 2".
	Label string
	// Worker is the worker-pool slot (0..Parallelism-1) that ran it.
	Worker int
	// Wall is the run's wall-clock duration.
	Wall time.Duration
	// Steps, Sessions and Messages are the run's simulator counts; Faults
	// counts injected faults the run applied.
	Steps    int
	Sessions int
	Messages int
	Faults   int
	// Err is non-nil when the run failed.
	Err error
}

// Stats is the execution engine's aggregate accounting for one API call.
type Stats struct {
	// Runs counts result slots; Succeeded/Failed/Skipped partition them
	// (Skipped counts tasks never started after a fail-fast abort).
	Runs      int
	Succeeded int
	Failed    int
	Skipped   int
	// Wall is the call's wall-clock time; Busy is the summed per-run wall
	// time across workers, so Busy/Wall measures achieved parallelism.
	Wall time.Duration
	Busy time.Duration
	// Parallelism is the worker-pool width; PerWorker counts runs per slot.
	Parallelism int
	PerWorker   []int
	// Steps, Sessions, Messages and Faults aggregate the simulator counts.
	Steps    int
	Sessions int
	Messages int
	Faults   int
	// CacheHits and CacheMisses count run-cache lookups the call made
	// (zero without WithRunCache).
	CacheHits   int64
	CacheMisses int64
	// BatchForks and BatchFallbacks account the seed-batching layer (see
	// WithSeedBatching): seeds served from a zero-draw probe run's summary,
	// and seeds that ran solo after a probe that drew (or in a fault
	// sweep's faulted group of more than one seed).
	BatchForks     int
	BatchFallbacks int
	// BatchLanes always reads zero: seed groups no longer run through
	// lockstep lanes.
	//
	// Deprecated: kept so existing readers compile; nothing sets it.
	BatchLanes int
}

// settings is the resolved configuration an API call runs with.
type settings struct {
	s, n, b                    int
	c1, c2, cmin, cmax, d1, d2 sim.Duration
	seeds                      int
	parallelism                int
	observer                   func(Observation)

	strategy string
	seed     uint64

	sweepSteps   int
	maxSessions  int
	periodMaxima []sim.Duration

	gapCap sim.Duration
	gamma  sim.Duration

	exhaustiveGaps   []sim.Duration
	exhaustiveDelays []sim.Duration

	smAlg core.SMAlgorithm
	mpAlg core.MPAlgorithm

	faultPlan        *fault.Plan
	retries          int
	faultIntensities []float64
	robustness       bool
	perKindMargins   bool

	runCache    engine.RunCacher
	cacheDir    string
	journalPath string
	journal     *journal.Writer

	noSeedBatch bool
	topologies  []string
}

// initCache resolves WithCacheDir into the cache the call runs with: a
// two-tier (memory + disk) cache rooted at the directory. A WithRunCache
// *RunCache becomes the memory tier, so its entries stay visible; any other
// custom RunCacher takes precedence and the directory is ignored (the
// caller opted into full control of caching). WithJournal then layers on
// top of whatever cache resulted: surviving journal frames are replayed
// into its memory tier (resuming a killed run; a frame's summary went to
// the disk tier, if any, when it was journaled, so replay writes no disk
// object), and the cache is wrapped so every newly verified summary is
// appended. Called by each run-executing API entry
// point because options cannot fail — an unusable directory or journal
// surfaces as the call's error. Callers must release the journal writer
// with close() when the call completes.
func (s settings) initCache() (settings, error) {
	if s.cacheDir != "" {
		mem, plain := s.runCache.(*engine.RunCache)
		if s.runCache == nil || plain {
			tc, err := diskcache.NewSummaryCache(mem, s.cacheDir)
			if err != nil {
				return s, err
			}
			s.runCache = tc
		}
	}
	if s.journalPath != "" {
		if s.runCache == nil {
			s.runCache = engine.NewRunCache()
		}
		w, _, err := journal.Open(s.journalPath)
		if err != nil {
			return s, err
		}
		// Replay into the undecorated cache first: loading through the
		// decorator would re-append every surviving frame.
		if _, err := journal.Load(s.journalPath, diskcache.MemoryTier(s.runCache)); err != nil {
			w.Close()
			return s, err
		}
		s.journal = w
		s.runCache = journal.NewCache(s.runCache, w)
	}
	return s, nil
}

// close releases the call's per-invocation resources (the journal writer;
// appended frames are already durable). Safe on a journal-less settings.
func (s settings) close() {
	if s.journal != nil {
		s.journal.Close()
	}
}

func newSettings(opts []Option) settings {
	def := harness.Default()
	s := settings{
		s: def.S, n: def.N, b: def.B,
		c1: def.C1, c2: def.C2, cmin: def.Cmin, cmax: def.Cmax,
		d1: def.D1, d2: def.D2,
		seeds:       def.Seeds,
		strategy:    "random",
		seed:        1,
		sweepSteps:  9,
		maxSessions: 10,
	}
	for _, o := range opts {
		o(&s)
	}
	return s
}

// harnessConfig maps the settings onto the internal harness configuration,
// wiring in eng as the shared execution engine.
func (s settings) harnessConfig(eng *engine.Engine) harness.Config {
	return harness.Config{
		S: s.s, N: s.n, B: s.b,
		C1: s.c1, C2: s.c2, Cmin: s.cmin, Cmax: s.cmax,
		D1: s.d1, D2: s.d2,
		Seeds:       s.seeds,
		Engine:      eng,
		NoSeedBatch: s.noSeedBatch,
	}
}

// params renders the settings as the bound formulas' parameters.
func (s settings) params() bounds.Params {
	return bounds.Params{
		S: s.s, N: s.n, B: s.b,
		C1: s.c1, C2: s.c2, Cmin: s.cmin, Cmax: s.cmax,
		D1: s.d1, D2: s.d2,
		Gamma: s.gamma,
	}
}

// engine builds the worker pool an API call fans out on, translating the
// observer to the public Observation type.
func (s settings) engine() *engine.Engine {
	opts := []engine.Option{engine.WithParallelism(s.parallelism)}
	if s.runCache != nil {
		opts = append(opts, engine.WithRunCache(s.runCache))
	}
	if s.observer != nil {
		obs := s.observer
		opts = append(opts, engine.WithObserver(func(r engine.Result) { obs(observationOf(r)) }))
	}
	return engine.New(opts...)
}

// observationOf renders one run's engine result as the public Observation.
func observationOf(r engine.Result) Observation {
	return Observation{
		Label:    r.Label,
		Worker:   r.Worker,
		Wall:     r.Wall,
		Steps:    r.Counts.Steps,
		Sessions: r.Counts.Sessions,
		Messages: r.Counts.Messages,
		Faults:   r.Counts.Faults,
		Err:      r.Err,
	}
}

func statsOf(eng *engine.Engine) Stats {
	es := eng.Stats()
	return Stats{
		Runs: es.Tasks, Succeeded: es.Succeeded, Failed: es.Failed, Skipped: es.Skipped,
		Wall: es.Wall, Busy: es.Busy,
		Parallelism: es.Parallelism, PerWorker: es.PerWorker,
		Steps: es.Counts.Steps, Sessions: es.Counts.Sessions, Messages: es.Counts.Messages,
		Faults:    es.Counts.Faults,
		CacheHits: es.CacheHits, CacheMisses: es.CacheMisses,
		BatchForks:     es.Counts.BatchForks,
		BatchFallbacks: es.Counts.BatchFallbacks,
	}
}

func (s settings) parseStrategy() (timing.Strategy, error) {
	for _, st := range timing.AllStrategies() {
		if st.String() == s.strategy {
			return st, nil
		}
	}
	return 0, fmt.Errorf("sessionproblem: unknown strategy %q (want random, slow, fast, skewed or jittered)", s.strategy)
}

// Option configures an API call. The zero configuration is the library
// default: the mid-sized instance used by cmd/sessiontable (s=6, n=8, b=3,
// c1=2, c2=10, d1=4, d2=28), 3 seeds per strategy, GOMAXPROCS workers. A
// deadline belongs on the call's ctx: every run polls it.
type Option func(*settings)

// WithSpec sets the problem instance: s required sessions over n ports.
func WithSpec(s, n int) Option {
	return func(cfg *settings) { cfg.s, cfg.n = s, n }
}

// WithAccessBound sets the shared-variable access bound b (shared-memory
// systems only).
func WithAccessBound(b int) Option {
	return func(cfg *settings) { cfg.b = b }
}

// WithStepBounds sets the per-step timing constants: c1 <= step time <= c2
// (semi-synchronous; c2 doubles as the synchronous step and the periodic
// range is set to [c1, c2] unless WithPeriodRange overrides it).
func WithStepBounds(c1, c2 Ticks) Option {
	return func(cfg *settings) {
		cfg.c1, cfg.c2 = sim.Duration(c1), sim.Duration(c2)
		cfg.cmin, cfg.cmax = sim.Duration(c1), sim.Duration(c2)
	}
}

// WithPeriodRange sets the periodic model's period range [cmin, cmax]
// independently of the semi-synchronous step bounds.
func WithPeriodRange(cmin, cmax Ticks) Option {
	return func(cfg *settings) { cfg.cmin, cfg.cmax = sim.Duration(cmin), sim.Duration(cmax) }
}

// WithDelayBounds sets the message delay window [d1, d2] (d1 is used by the
// sporadic model only).
func WithDelayBounds(d1, d2 Ticks) Option {
	return func(cfg *settings) { cfg.d1, cfg.d2 = sim.Duration(d1), sim.Duration(d2) }
}

// WithSeeds sets how many seeds each scheduling strategy runs.
func WithSeeds(n int) Option {
	return func(cfg *settings) { cfg.seeds = n }
}

// WithParallelism sets the worker-pool width the run matrix fans across.
// Values < 1 mean GOMAXPROCS. Results are identical at any setting.
func WithParallelism(n int) Option {
	return func(cfg *settings) { cfg.parallelism = n }
}

// WithSeedBatching toggles seed batching (default on): the seeds of each
// (cell, strategy) group run as one task, and when the group's first seed
// runs without drawing a random value its result serves every seed — the
// seed feeds only that RNG, so the schedule cannot depend on it. Otherwise
// each seed runs on its own. Results are byte-identical either way — the
// toggle trades the shared runs for per-run observer granularity (batched
// calls report one Observation per seed group).
func WithSeedBatching(on bool) Option {
	return func(cfg *settings) { cfg.noSeedBatch = !on }
}

// WithTopologies selects which point-to-point topology families the
// network-diameter sweep (SweepNetworkDiameter) visits, by name:
// "complete", "star", "ring", "line", "grid", "torus", "expander",
// "random-regular". Generated families are deterministic in the port
// count. Default: the paper's four fixed extremes.
func WithTopologies(names ...string) Option {
	return func(cfg *settings) { cfg.topologies = append([]string(nil), names...) }
}

// WithObserver registers a callback invoked after every simulator run.
func WithObserver(fn func(Observation)) Option {
	return func(cfg *settings) { cfg.observer = fn }
}

// WithSchedule selects the scheduling strategy ("random", "slow", "fast",
// "skewed", "jittered") and seed for single-run calls (Solve).
func WithSchedule(strategy string, seed uint64) Option {
	return func(cfg *settings) { cfg.strategy, cfg.seed = strategy, seed }
}

// WithSweepSteps sets how many points a parameter sweep samples
// (SweepSporadicDelay).
func WithSweepSteps(n int) Option {
	return func(cfg *settings) { cfg.sweepSteps = n }
}

// WithMaxSessions sets the largest session count a growth sweep reaches
// (SweepPeriodicVsSemiSync sweeps s = 2..max).
func WithMaxSessions(max int) Option {
	return func(cfg *settings) { cfg.maxSessions = max }
}

// WithPeriodMaxima sets the cmax values a period sweep visits
// (SweepPeriodicVsSporadic).
func WithPeriodMaxima(cmaxs ...Ticks) Option {
	return func(cfg *settings) {
		cfg.periodMaxima = make([]sim.Duration, len(cmaxs))
		for i, c := range cmaxs {
			cfg.periodMaxima[i] = sim.Duration(c)
		}
	}
}

// WithGapCap bounds the step gaps schedulers draw under the models with
// unbounded gaps (sporadic, asynchronous shared memory). Zero keeps the
// model's default cap.
func WithGapCap(cap Ticks) Option {
	return func(cfg *settings) { cfg.gapCap = sim.Duration(cap) }
}

// WithGamma supplies γ, the largest step time of a concrete computation,
// to PaperEnvelope's sporadic message-passing upper bound (the sporadic
// model has no a-priori c2; Solve reports γ as Report.Gamma).
func WithGamma(gamma Ticks) Option {
	return func(cfg *settings) { cfg.gamma = sim.Duration(gamma) }
}

// WithExhaustiveGaps enables ValidateSM/ValidateMP's exhaustive pass,
// model-checking every schedule built from these step-gap choices. Keep
// the problem instance tiny: the schedule space is exponential.
func WithExhaustiveGaps(gaps ...Ticks) Option {
	return func(cfg *settings) {
		cfg.exhaustiveGaps = make([]sim.Duration, len(gaps))
		for i, g := range gaps {
			cfg.exhaustiveGaps[i] = sim.Duration(g)
		}
	}
}

// WithExhaustiveDelays sets the message-delay choices of ValidateMP's
// exhaustive pass (must match WithExhaustiveGaps in cardinality).
func WithExhaustiveDelays(delays ...Ticks) Option {
	return func(cfg *settings) {
		cfg.exhaustiveDelays = make([]sim.Duration, len(delays))
		for i, d := range delays {
			cfg.exhaustiveDelays[i] = sim.Duration(d)
		}
	}
}

// WithSMAlgorithm makes Solve run the given shared-memory algorithm
// instead of the model's designated built-in one.
func WithSMAlgorithm(alg SMAlgorithm) Option {
	return func(cfg *settings) { cfg.smAlg = alg }
}

// WithMPAlgorithm makes Solve run the given message-passing algorithm
// instead of the model's designated built-in one.
func WithMPAlgorithm(alg MPAlgorithm) Option {
	return func(cfg *settings) { cfg.mpAlg = alg }
}

// WithFaultPlan wires a deterministic fault plan into Solve: the executor
// injects the plan's faults and the run is audited instead of failed —
// Report.Admissible, Verdict and Violations carry the outcome, and a broken
// session guarantee is reported honestly rather than returned as an error.
// The plan also seeds SweepFaultIntensity and the robustness-margin sweep.
func WithFaultPlan(p FaultPlan) Option {
	return func(cfg *settings) { cfg.faultPlan = &p }
}

// WithRetries makes Solve retry a run whose audit verdict is not admissible
// up to n extra times. Each attempt derives a fresh fault-plan seed (attempt
// k uses Seed+k), so retries explore different fault draws over the same
// schedule; the best outcome (admissible > recovered > broken) is reported,
// with Report.Attempts counting the runs. Retries never mask cancellation:
// an expired context surfaces as ctx.Err() immediately.
func WithRetries(n int) Option {
	return func(cfg *settings) { cfg.retries = n }
}

// WithFaultIntensities sets the intensity axis used by SweepFaultIntensity
// and by Solve's robustness-margin sweep. Values are sorted ascending
// before use. Default {0, 0.05, 0.1, 0.2, 0.4, 0.8}.
func WithFaultIntensities(intensities ...float64) Option {
	return func(cfg *settings) {
		cfg.faultIntensities = append([]float64(nil), intensities...)
	}
}

// WithRobustnessMargin makes Solve additionally run a deterministic sweep
// over the fault-intensity axis (same schedule, the fault plan rescaled per
// intensity) and report the largest prefix intensity at which the session
// guarantee still held as Report.RobustnessMargin. Without this option the
// field is -1 (not computed).
func WithRobustnessMargin() Option {
	return func(cfg *settings) { cfg.robustness = true }
}

// WithPerKindMargins extends the robustness sweep with a per-fault-class
// axis: for every injectable fault kind, Solve reruns the intensity sweep
// with the plan restricted to that kind alone and reports the per-kind
// margins as Report.RobustnessMargins. Implies WithRobustnessMargin.
func WithPerKindMargins() Option {
	return func(cfg *settings) { cfg.robustness = true; cfg.perKindMargins = true }
}

// RunCache is a content-addressed cache of verified simulator runs, shared
// across API calls: a run is keyed by everything that determines it (spec,
// timing constants, algorithm, strategy, seed, fault plan, step cap), so two
// calls whose matrices overlap simulate each unique run once. Cached entries
// are immutable summaries, never a live report, and results are
// byte-identical with and without a cache. Safe for concurrent use.
type RunCache = engine.RunCache

// RunCacher is the cache contract WithRunCache accepts: the in-memory
// RunCache is the canonical implementation, and WithCacheDir composes it
// with a disk-persistent tier behind the same interface. Implementations
// must be safe for concurrent use, hand out only immutable values, and
// count every Get as exactly one hit or miss.
type RunCacher = engine.RunCacher

// NewRunCache returns an empty run cache for WithRunCache.
func NewRunCache() *RunCache { return engine.NewRunCache() }

// WithRunCache attaches a run cache to the call — a *RunCache or any
// RunCacher. Table1, Hierarchy, the sweeps and Solve consult it;
// Stats.CacheHits/CacheMisses report the call's lookup counts (the cache's
// own Hits/Misses methods report cumulative totals across calls).
func WithRunCache(c RunCacher) Option {
	return func(cfg *settings) { cfg.runCache = c }
}

// WithCacheDir persists verified run summaries in a content-addressed
// object store rooted at dir, surviving process restarts: a call whose runs
// were computed by any earlier process reuses them from disk. The disk tier
// sits under an in-memory cache (the WithRunCache one when given a plain
// *RunCache, else a fresh one) and results are byte-identical with and
// without it — a damaged or version-skewed object degrades to a recompute,
// never to a wrong answer. The directory is created as needed; an unusable
// path fails the call.
func WithCacheDir(dir string) Option {
	return func(cfg *settings) { cfg.cacheDir = dir }
}

// WithJournal makes the call crash-safe and resumable: every verified run
// summary is appended to the CRC-framed journal at path — fsynced before
// the run is counted done — and, on a later call with the same inputs, the
// journal's surviving frames are replayed into the run cache first, so only
// the missing or failed cells re-execute. The resumed result is
// byte-identical to an uninterrupted run. A torn or bit-flipped tail (the
// signature of a kill mid-append) is truncated away on open; a journal
// written by a different summary codec version degrades to recomputation,
// never to a wrong answer. Composes with WithRunCache and WithCacheDir; on
// its own, the journal feeds a fresh in-memory cache.
func WithJournal(path string) Option {
	return func(cfg *settings) { cfg.journalPath = path }
}
