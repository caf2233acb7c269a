package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"sessionproblem"
	"sessionproblem/internal/core"
	"sessionproblem/internal/engine"
	"sessionproblem/internal/harness"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
	"sessionproblem/internal/topo"
	"sessionproblem/wire"
)

// The artifacts workload computes what `sessiontable -grid`, `crossover
// -exp all` (F5 over every topology family) and the default `faultsweep`
// compute, in-process, through the public functions those commands call,
// at parallelism nproc with seed batching on, no run cache, and many more
// seeds per strategy than the default 3. One pass is the whole list of
// artifact calls; a run repeats passes until the measured time is spent.
// A request is one artifact call. Every pass pair runs in a fresh child
// process: its first pass is cold, as a command-line run makes its calls,
// its second warm, repeating the calls the process has just made.

// constants are the timing constants of the Table-1 grid, the hierarchy
// and the fault sweep.
type constants struct{ c1, c2, d1, d2 int64 }

// constantFamily holds timing constants for which every Table-1 verdict
// is ok at every grid scale and which cost nearly the same work, so that
// the workload seed varies the inputs without moving the figures. The seed
// picks one.
var constantFamily = []constants{
	{2, 8, 2, 28}, {2, 10, 2, 28}, {2, 12, 2, 28},
	{2, 8, 4, 28}, {2, 10, 4, 28}, {2, 12, 4, 28},
}

type artifactsInput struct {
	constants
	b           int
	seeds       int // seeds per strategy
	scales      []struct{ S, N int }
	parallelism int
}

func artifactsInputFor(o options) artifactsInput {
	in := artifactsInput{
		constants:   constantFamily[o.seed%uint64(len(constantFamily))],
		b:           3,
		seeds:       16,
		scales:      harness.DefaultGridScales(),
		parallelism: runtime.NumCPU(),
	}
	if o.toy {
		in.seeds = 2
		in.scales = in.scales[:2]
	}
	return in
}

// callMode selects how a pass runs its calls.
type callMode struct {
	// solo turns seed batching off: every (strategy, seed) run becomes its
	// own engine task through core.RunSMScratch/RunMPScratch.
	solo bool
	// observe, when set, receives every engine task (traced runs).
	observe func(label string, wall time.Duration)
}

// callStats is the engine accounting behind one call.
type callStats struct {
	tasks                   int
	busy, wall              time.Duration
	parallelism             int
	steps, messages, faults int
	lanes, forks, fallbacks int
}

func facadeStats(s sessionproblem.Stats) callStats {
	return callStats{
		tasks: s.Runs, busy: s.Busy, wall: s.Wall, parallelism: s.Parallelism,
		steps: s.Steps, messages: s.Messages, faults: s.Faults,
		lanes: s.BatchLanes, forks: s.BatchForks, fallbacks: s.BatchFallbacks,
	}
}

func engineStats(s engine.Stats) callStats {
	return callStats{
		tasks: s.Tasks, busy: s.Busy, wall: s.Wall, parallelism: s.Parallelism,
		steps: s.Counts.Steps, messages: s.Counts.Messages, faults: s.Counts.Faults,
		lanes: s.Counts.BatchLanes, forks: s.Counts.BatchForks, fallbacks: s.Counts.BatchFallbacks,
	}
}

func (c *callStats) add(o callStats) {
	c.tasks += o.tasks
	c.busy += o.busy
	c.wall += o.wall
	c.steps += o.steps
	c.messages += o.messages
	c.faults += o.faults
	c.lanes += o.lanes
	c.forks += o.forks
	c.fallbacks += o.fallbacks
	if o.parallelism > c.parallelism {
		c.parallelism = o.parallelism
	}
}

// callResult is what one artifact call produced: the verified runs behind
// it, its engine accounting, a digest of its output (which must repeat
// across passes) and the checks it failed.
type callResult struct {
	runs     int
	stats    callStats
	digest   string
	problems []string
}

// artifact is one call of the batch job.
type artifact struct {
	name string
	// replayed calls are the ones the traced run replays through the
	// layers and also runs with seed batching off.
	replayed bool
	run      func(ctx context.Context, m callMode) (callResult, error)
}

func digestOf(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:8]), nil
}

// facadeOpts renders the options every facade call of the workload shares.
func (in artifactsInput) facadeOpts(m callMode, extra ...sessionproblem.Option) []sessionproblem.Option {
	opts := []sessionproblem.Option{
		sessionproblem.WithSeeds(in.seeds),
		sessionproblem.WithParallelism(in.parallelism),
		sessionproblem.WithSeedBatching(!m.solo),
	}
	if m.observe != nil {
		obs := m.observe
		opts = append(opts, sessionproblem.WithObserver(func(o sessionproblem.Observation) { obs(o.Label, o.Wall) }))
	}
	return append(opts, extra...)
}

// tableOpts are the problem options of the Table-1 grid and the hierarchy.
func (in artifactsInput) tableOpts(s, n int) []sessionproblem.Option {
	return []sessionproblem.Option{
		sessionproblem.WithSpec(s, n),
		sessionproblem.WithAccessBound(in.b),
		sessionproblem.WithStepBounds(in.c1, in.c2),
		sessionproblem.WithDelayBounds(in.d1, in.d2),
	}
}

var numStrategies = len(timing.AllStrategies())

// The crossover experiments run at the fixed constants cmd/crossover uses.
var f3Cmaxs = []int64{2, 4, 8, 16, 32, 64}

const (
	f1Steps = 9
	f2MaxS  = 10
	f6Steps = 8
	f7Steps = 7
)

// artifactList lays out one pass of the batch job.
func (in artifactsInput) artifactList() []artifact {
	var list []artifact
	for _, sc := range in.scales {
		sc := sc
		list = append(list, artifact{
			name:     fmt.Sprintf("table1 s=%d n=%d", sc.S, sc.N),
			replayed: true,
			run: func(ctx context.Context, m callMode) (callResult, error) {
				res, err := sessionproblem.Table1(ctx, in.facadeOpts(m, in.tableOpts(sc.S, sc.N)...)...)
				if err != nil {
					return callResult{}, err
				}
				return tableResult(res)
			},
		})
	}
	def := harness.Default()
	list = append(list,
		artifact{
			name: "hierarchy", replayed: true,
			run: func(ctx context.Context, m callMode) (callResult, error) {
				res, err := sessionproblem.Hierarchy(ctx, in.facadeOpts(m, in.tableOpts(def.S, def.N)...)...)
				if err != nil {
					return callResult{}, err
				}
				r := callResult{runs: len(res.Rows) * numStrategies * in.seeds, stats: facadeStats(res.Stats)}
				for _, row := range res.Rows {
					if !(row.WorstTime > 0) {
						r.problems = append(r.problems, fmt.Sprintf("hierarchy %s worst time %v", row.Model, row.WorstTime))
					}
				}
				r.digest, err = digestOf(res.Rows)
				return r, err
			},
		},
		in.sweep("F1", true, sessionproblem.SweepSporadicDelay, f1Steps,
			sessionproblem.WithSpec(6, 4), sessionproblem.WithStepBounds(2, 10),
			sessionproblem.WithDelayBounds(4, 40), sessionproblem.WithSweepSteps(f1Steps)),
		in.sweep("F2", true, sessionproblem.SweepPeriodicVsSemiSync, 2*(f2MaxS-1),
			sessionproblem.WithSpec(6, 4), sessionproblem.WithStepBounds(2, 10),
			sessionproblem.WithDelayBounds(4, 30), sessionproblem.WithMaxSessions(f2MaxS)),
		in.sweep("F3", true, sessionproblem.SweepPeriodicVsSporadic, len(f3Cmaxs)+1,
			sessionproblem.WithSpec(5, 3), sessionproblem.WithStepBounds(2, 10),
			sessionproblem.WithDelayBounds(4, 28), sessionproblem.WithPeriodMaxima(f3Cmaxs...)),
		in.sweep("F5", false, sessionproblem.SweepNetworkDiameter, 0,
			sessionproblem.WithSpec(3, 8), sessionproblem.WithStepBounds(1, 3),
			sessionproblem.WithDelayBounds(0, 10), sessionproblem.WithTopologies(topo.Families()...)),
		artifact{
			name: "F6",
			run: func(ctx context.Context, m callMode) (callResult, error) {
				pts, err := harness.SweepSporadicVsSemiSync(5, 3, 2, 10, 28, f6Steps, in.seeds)
				if err != nil {
					return callResult{}, err
				}
				r := callResult{runs: f6Steps * 2 * numStrategies * in.seeds}
				for _, p := range pts {
					if !(p.SemiSync > 0 && p.Sporadic > 0) {
						r.problems = append(r.problems, fmt.Sprintf("F6 u=%v: finish %v/%v", p.U, p.SemiSync, p.Sporadic))
					}
				}
				r.digest, err = digestOf(pts)
				return r, err
			},
		},
		artifact{
			name: "F7",
			run: func(ctx context.Context, m callMode) (callResult, error) {
				pts, err := harness.SweepCausality(8, 3, 2, 24, f7Steps, 1)
				if err != nil {
					return callResult{}, err
				}
				r := callResult{runs: f7Steps}
				for _, p := range pts {
					if p.CausalRatio < 0 || p.CausalRatio > 1 || p.Finish <= 0 {
						r.problems = append(r.problems, fmt.Sprintf("F7 u=%v: ratio %v finish %v", p.U, p.CausalRatio, p.Finish))
					}
				}
				r.digest, err = digestOf(pts)
				return r, err
			},
		},
		artifact{
			name: "faultsweep", replayed: true,
			run: func(ctx context.Context, m callMode) (callResult, error) {
				opts := []engine.Option{
					engine.WithParallelism(in.parallelism),
					engine.WithWorkerState(func() any { return new(core.RunScratch) }),
				}
				if m.observe != nil {
					obs := m.observe
					opts = append(opts, engine.WithObserver(func(r engine.Result) { obs(r.Label, r.Wall) }))
				}
				eng := engine.New(opts...)
				rows, err := harness.FaultSweep(ctx, in.faultSweepConfig(eng, m.solo))
				if err != nil {
					return callResult{}, err
				}
				r := callResult{stats: engineStats(eng.Stats())}
				for _, row := range rows {
					for _, c := range row.Cells {
						r.runs += c.Runs
						if c.Silent > 0 {
							r.problems = append(r.problems, fmt.Sprintf("fault sweep %s i=%.2f: %d SILENT", row.Model, c.Intensity, c.Silent))
						}
						if c.Intensity == 0 && c.Broken > 0 {
							r.problems = append(r.problems, fmt.Sprintf("fault sweep %s: fault-free control broke %d runs", row.Model, c.Broken))
						}
					}
				}
				r.digest, err = digestOf(rows)
				return r, err
			},
		},
	)
	return list
}

// tableResult checks a regenerated Table 1: every verdict must be ok.
func tableResult(res *sessionproblem.TableResult) (callResult, error) {
	r := callResult{stats: facadeStats(res.Stats)}
	for _, c := range res.Cells {
		r.runs += c.Runs
		if c.Verdict != "ok" {
			r.problems = append(r.problems, fmt.Sprintf("%s/%s verdict %s", c.Model, c.Comm, c.Verdict))
		}
	}
	data, err := wire.MarshalTable(res.Cells)
	if err != nil {
		return r, err
	}
	r.digest, err = digestOf(data)
	return r, err
}

// faultSweepConfig is the default `faultsweep` at the workload's constants.
func (in artifactsInput) faultSweepConfig(eng *engine.Engine, solo bool) harness.FaultSweepConfig {
	def := harness.Default()
	return harness.FaultSweepConfig{
		S: def.S, N: def.N,
		C1: sim.Duration(in.c1), C2: sim.Duration(in.c2),
		Cmin: sim.Duration(in.c1), Cmax: sim.Duration(in.c2),
		D1: sim.Duration(in.d1), D2: sim.Duration(in.d2),
		Seeds:       in.seeds,
		Engine:      eng,
		NoSeedBatch: solo,
	}
}

// sweep is one facade Sweep call. groups is the number of (point,
// contender) groups whose strategies × seeds matrix runs; the diameter
// sweep (groups 0) runs one Slow schedule per seed and topology.
func (in artifactsInput) sweep(name string, replayed bool, kind sessionproblem.SweepKind, groups int, extra ...sessionproblem.Option) artifact {
	return artifact{
		name: name, replayed: replayed,
		run: func(ctx context.Context, m callMode) (callResult, error) {
			res, err := sessionproblem.Sweep(ctx, kind, in.facadeOpts(m, extra...)...)
			if err != nil {
				return callResult{}, err
			}
			r := callResult{runs: groups * numStrategies * in.seeds, stats: facadeStats(res.Stats)}
			if kind == sessionproblem.SweepNetworkDiameter {
				r.runs = len(res.Points) * in.seeds
			}
			for _, p := range res.Points {
				if problem := envelopeProblem(kind, p); problem != "" {
					r.problems = append(r.problems, fmt.Sprintf("%s %s: %s", name, p.Label, problem))
				}
			}
			data, err := wire.MarshalSweep(res.Points)
			if err != nil {
				return r, err
			}
			r.digest, err = digestOf(data)
			return r, err
		},
	}
}

// envelopeProblem checks a sweep point against its paper envelope where
// one applies (F1: [L, U] per session; F5: the converted upper bound); the
// comparison sweeps F2 and F3 carry contenders instead, which must be
// positive running times.
func envelopeProblem(kind sessionproblem.SweepKind, p sessionproblem.SweepPoint) string {
	switch kind {
	case sessionproblem.SweepSporadicDelay:
		if p.Measured < p.PaperLower || p.Measured > p.PaperUpper {
			return fmt.Sprintf("measured %v outside [%v, %v]", p.Measured, p.PaperLower, p.PaperUpper)
		}
	case sessionproblem.SweepNetworkDiameter:
		if p.Measured > p.PaperUpper {
			return fmt.Sprintf("measured %v above %v", p.Measured, p.PaperUpper)
		}
	}
	if !(p.Measured > 0) {
		return fmt.Sprintf("measured %v", p.Measured)
	}
	return ""
}

// passResult is one pass over the artifact list.
type passResult struct {
	runs    int
	stats   callStats
	digests []string
	walls   []time.Duration
}

// passRecord is what one pass measured: its exact work counts, the
// digests of its outputs and the latency of each call.
type passRecord struct {
	Counts  map[string]int64 `json:"counts"`
	Digests []string         `json:"digests"`
	WallsNS []int64          `json:"walls_ns"`
}

// pairRecord is what a child process hands back on its standard output
// after its two passes: the passes, the checks it made and failed, and
// its peak RSS.
type pairRecord struct {
	Passes    [2]passRecord `json:"passes"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	PeakRSSMB float64       `json:"peak_rss_mb"`
}

// runCall makes one artifact call, times it and checks its output.
func runCall(ctx context.Context, a artifact, m callMode, out *outcome) (callResult, time.Duration, error) {
	t0 := time.Now()
	r, err := a.run(ctx, m)
	wall := time.Since(t0)
	if err != nil {
		return r, wall, fmt.Errorf("%s: %w", a.name, err)
	}
	out.attempted++
	if len(r.problems) > 0 {
		out.fail("%s: %s (and %d more)", a.name, r.problems[0], len(r.problems)-1)
	}
	return r, wall, nil
}

// runPass makes every call of the list once, checking each output.
func runPass(ctx context.Context, list []artifact, m callMode, out *outcome) (passResult, error) {
	var pr passResult
	for _, a := range list {
		r, wall, err := runCall(ctx, a, m, out)
		if err != nil {
			return pr, err
		}
		pr.runs += r.runs
		pr.stats.add(r.stats)
		pr.digests = append(pr.digests, r.digest)
		pr.walls = append(pr.walls, wall)
	}
	return pr, nil
}

// counts are the exact work counts of one pass.
func (pr passResult) counts() map[string]int64 {
	return map[string]int64{
		"runs":            int64(pr.runs),
		"steps":           int64(pr.stats.steps),
		"messages":        int64(pr.stats.messages),
		"faults":          int64(pr.stats.faults),
		"batch_lanes":     int64(pr.stats.lanes),
		"batch_forks":     int64(pr.stats.forks),
		"batch_fallbacks": int64(pr.stats.fallbacks),
		"engine_tasks":    int64(pr.stats.tasks),
	}
}

// sameWork compares a pass with the first one: equal exact counts and
// byte-identical outputs, or the pass fails.
func sameWork(first, pr passRecord, list []artifact, out *outcome) {
	for k, v := range first.Counts {
		if pr.Counts[k] != v {
			out.countsDiffer = true
			out.fail("exact count %s changed between passes: %d then %d", k, v, pr.Counts[k])
		}
	}
	if len(pr.Digests) != len(first.Digests) {
		out.fail("a pass made %d calls, the first %d", len(pr.Digests), len(first.Digests))
	}
	for i := range first.Digests {
		if i < len(pr.Digests) && pr.Digests[i] != first.Digests[i] {
			out.fail("%s: output differs from the first pass", list[i].name)
		}
	}
}

// runPassPair is the child side of a pass pair: it makes two passes in
// this fresh process, the first cold and the second warm, and prints
// what it measured as one JSON line.
func runPassPair(ctx context.Context, o options, stdout io.Writer) error {
	out := newOutcome(o)
	list := artifactsInputFor(o).artifactList()
	var rec pairRecord
	for i := range rec.Passes {
		pr, err := runPass(ctx, list, callMode{}, out)
		if err != nil {
			return err
		}
		p := passRecord{Counts: pr.counts(), Digests: pr.digests}
		for _, w := range pr.walls {
			p.WallsNS = append(p.WallsNS, int64(w))
		}
		rec.Passes[i] = p
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	rec.Attempted, rec.Failed, rec.PeakRSSMB = out.attempted, out.failed, rss
	return json.NewEncoder(stdout).Encode(rec)
}

// passPairInChild makes a pass pair in a fresh child process. The
// child's check failures reach stderr from the child itself.
func passPairInChild(ctx context.Context, o options) (pairRecord, error) {
	var rec pairRecord
	exe, err := os.Executable()
	if err != nil {
		return rec, err
	}
	cmd := exec.CommandContext(ctx, exe, "--pass-pair", "--workload", o.workload,
		"--seed", strconv.FormatUint(o.seed, 10), "--toy="+strconv.FormatBool(o.toy))
	cmd.Stderr = o.stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	data, err := cmd.Output()
	if err != nil {
		return rec, fmt.Errorf("pass pair: %w", err)
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("pass pair: %w", err)
	}
	return rec, nil
}

func runArtifacts(ctx context.Context, o options) (*outcome, error) {
	in := artifactsInputFor(o)
	if o.trace {
		return traceArtifacts(ctx, o, in)
	}
	out := newOutcome(o)
	setup, err := probeStarts(ctx, setupProbes)
	if err != nil {
		return nil, err
	}
	out.values["setup_s"] = setup

	// A request of the batch job is one artifact call, such as Table 1 at
	// one grid scale or one crossover experiment. A run is a series of
	// pass pairs, each in a fresh child process: the first pass is cold,
	// as a command-line run makes its calls (heap and scratch still
	// growing), the second warm, repeating inputs the process has just
	// answered, though nothing is cached. Cold and warm samples thus come
	// alike from every part of the run, so drift of the host's speed
	// falls on both.
	list := in.artifactList()
	lat := newCallLatencies(len(list))
	perCall := make([][]float64, len(list))
	var first passRecord
	var runs, steps, calls int
	rss := 0.0
	start := time.Now()
	for pair := 0; ; pair++ {
		rec, err := passPairInChild(ctx, o)
		if err != nil {
			return nil, err
		}
		out.attempted += rec.Attempted
		out.failed += rec.Failed
		rss = max(rss, rec.PeakRSSMB)
		for k, pr := range rec.Passes {
			if len(pr.WallsNS) != len(list) {
				return nil, fmt.Errorf("pass pair %d: a pass made %d calls of %d", pair, len(pr.WallsNS), len(list))
			}
			for i, w := range pr.WallsNS {
				lat.add(i, k == 1, time.Duration(w))
				perCall[i] = append(perCall[i], ms(time.Duration(w)))
			}
			calls += len(pr.WallsNS)
			if pair == 0 && k == 0 {
				first = pr
			} else {
				sameWork(first, pr, list, out)
			}
			runs += int(pr.Counts["runs"])
			steps += int(pr.Counts["steps"])
		}
		if measured(start, pair, o) {
			break
		}
	}
	wall := time.Since(start).Seconds()
	out.values["runs_per_s"] = float64(runs) / wall
	out.values["steps_per_s"] = float64(steps) / wall
	out.values["req_per_s"] = float64(calls) / wall
	lat.report(out)
	// Which call holds which percentile: the median latency of each.
	for i, a := range list {
		out.detail["call."+a.name+".median_ms"] = median(perCall[i])
	}
	out.values["peak_rss_mb"] = rss
	out.counts = first.Counts
	return out, nil
}

// setupProbes is how many process-and-engine starts a run times for
// set-up. A start takes a few milliseconds, so its median needs many.
const setupProbes = 31

// probeStart is the set-up probe: a fresh process starts the engine with
// one facade call on the smallest instance and exits.
func probeStart() error {
	_, err := sessionproblem.Table1(context.Background(),
		sessionproblem.WithSpec(2, 2), sessionproblem.WithSeeds(1),
		sessionproblem.WithParallelism(runtime.NumCPU()))
	return err
}

// probeStarts times n process-and-engine starts and returns the median in
// seconds.
func probeStarts(ctx context.Context, n int) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		cmd := exec.CommandContext(ctx, exe, "--probe-start")
		if out, err := cmd.CombinedOutput(); err != nil {
			return 0, fmt.Errorf("start probe: %v: %s", err, out)
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs), nil
}
