// Package cmdflags is the one place the CLI tools define their shared
// flags. Every tool historically re-declared -s/-n/-c1/…/-parallelism by
// hand, and the copies drifted: different defaults for the same parameter,
// -timeout missing here, -seeds defaulting lower there. Registering through
// this package pins every shared flag to one spelling, one help string and
// one source of defaults (harness.Default(), which is also what the facade
// uses), so `sessionsim -s 6` and `sessiontable -s 6` mean the same
// instance — and adds the -cache-dir flag that gives every tool a
// disk-persistent run cache shared across processes and invocations.
package cmdflags

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"sessionproblem"
	"sessionproblem/internal/core"
	"sessionproblem/internal/diskcache"
	"sessionproblem/internal/engine"
	"sessionproblem/internal/harness"
	"sessionproblem/internal/journal"
	"sessionproblem/internal/sim"
)

// Problem holds the shared problem-instance flags.
type Problem struct {
	S, N, B        int
	C1, C2, D1, D2 int64
}

// Exec holds the shared execution flags.
type Exec struct {
	Seeds        int
	Parallelism  int
	Timeout      time.Duration
	CacheDir     string
	SeedBatching bool
	// Topo is the comma-separated topology family list for the
	// network-diameter sweep; empty keeps the paper's fixed four.
	Topo string
}

// Topologies parses the -topo list into family names (nil when unset).
func (e *Exec) Topologies() []string {
	if e.Topo == "" {
		return nil
	}
	parts := strings.Split(e.Topo, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// RegisterProblem installs the problem-instance flags (-s -n -b -c1 -c2
// -d1 -d2) with the library defaults.
func RegisterProblem(fs *flag.FlagSet) *Problem {
	def := harness.Default()
	p := &Problem{}
	fs.IntVar(&p.S, "s", def.S, "number of sessions")
	fs.IntVar(&p.N, "n", def.N, "number of ports")
	fs.IntVar(&p.B, "b", def.B, "shared-variable access bound (SM)")
	fs.Int64Var(&p.C1, "c1", int64(def.C1), "lower bound on step time (ticks)")
	fs.Int64Var(&p.C2, "c2", int64(def.C2), "upper bound on step time / synchronous step (ticks)")
	fs.Int64Var(&p.D1, "d1", int64(def.D1), "lower bound on message delay, sporadic model (ticks)")
	fs.Int64Var(&p.D2, "d2", int64(def.D2), "upper bound on message delay (ticks)")
	return p
}

// RegisterExec installs the execution flags (-seeds -parallelism -timeout
// -cache-dir), identical across every tool.
func RegisterExec(fs *flag.FlagSet) *Exec {
	e := &Exec{}
	fs.IntVar(&e.Seeds, "seeds", harness.Default().Seeds, "seeds per scheduling strategy")
	fs.IntVar(&e.Parallelism, "parallelism", 0, "worker-pool width (0 = GOMAXPROCS); output is identical at any setting")
	fs.DurationVar(&e.Timeout, "timeout", 0, "wall-clock bound for the whole invocation (0 = none)")
	fs.StringVar(&e.CacheDir, "cache-dir", "", "directory for the disk-persistent run cache (empty = no disk cache)")
	fs.BoolVar(&e.SeedBatching, "seed-batching", true, "run each cell's seeds as one group that shares a run when its schedule draws no random value; output is identical either way")
	fs.StringVar(&e.Topo, "topo", "", "comma-separated topology families for the network-diameter sweep (default complete,star,ring,line; also grid,torus,expander,random-regular)")
	return e
}

// Journal holds the crash-recovery flags shared by the long-running sweep
// tools (-journal -resume -repair).
type Journal struct {
	// Path is the journal file (-journal); empty disables journaling.
	Path string
	// Resume replays the journal's surviving frames into the run cache
	// before executing, so only missing or failed cells re-run. Without
	// it, -journal starts fresh and an existing journal file is removed.
	Resume bool
	// Repair truncates the journal's damaged tail, reports what survived,
	// and exits without running anything.
	Repair bool
}

// RegisterJournal installs the crash-recovery flags, identical across the
// sweep tools (sessiontable, faultsweep, crossover).
func RegisterJournal(fs *flag.FlagSet) *Journal {
	j := &Journal{}
	fs.StringVar(&j.Path, "journal", "", "append every completed run to this crash-safe journal file")
	fs.BoolVar(&j.Resume, "resume", false, "replay the journal into the run cache and re-execute only missing cells")
	fs.BoolVar(&j.Repair, "repair", false, "truncate the journal's damaged tail, report what survived, and exit")
	return j
}

// Preflight validates the journal flags and performs the actions that
// happen before any run: -repair repairs, reports to w and asks the caller
// to exit (done=true); -journal without -resume removes a stale journal so
// the run starts fresh. The output byte stream of the run itself is never
// touched.
func (j *Journal) Preflight(w io.Writer) (done bool, err error) {
	if j == nil {
		return false, nil
	}
	if j.Path == "" {
		if j.Repair {
			return false, fmt.Errorf("-repair requires -journal")
		}
		if j.Resume {
			return false, fmt.Errorf("-resume requires -journal")
		}
		return false, nil
	}
	if j.Repair {
		st, err := journal.Repair(j.Path)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(w, "journal %s: %d frames (%d bytes) intact", j.Path, st.Frames, st.Bytes)
		if st.Damaged {
			fmt.Fprintf(w, ", %d damaged bytes truncated", st.DroppedBytes)
		}
		fmt.Fprintln(w)
		return true, nil
	}
	if !j.Resume {
		if err := os.Remove(j.Path); err != nil && !os.IsNotExist(err) {
			return false, fmt.Errorf("removing stale journal: %w", err)
		}
	}
	return false, nil
}

// wire opens the journal for appending (truncating any damaged tail),
// replays its surviving frames into cache's memory tier, and returns the
// journaling cache decorator plus a closer for the writer.
func (j *Journal) wire(cache engine.RunCacher) (engine.RunCacher, func(), error) {
	w, _, err := journal.Open(j.Path)
	if err != nil {
		return nil, nil, err
	}
	if _, err := journal.Load(j.Path, diskcache.MemoryTier(cache)); err != nil {
		w.Close()
		return nil, nil, err
	}
	return journal.NewCache(cache, w), func() { w.Close() }, nil
}

// Options renders the journal flags as facade options, for the tools (and
// output modes) that go through the public API; the facade performs the
// same replay-then-append wiring internally.
func (j *Journal) Options() []sessionproblem.Option {
	if j == nil || j.Path == "" {
		return nil
	}
	return []sessionproblem.Option{sessionproblem.WithJournal(j.Path)}
}

// Context applies the -timeout bound to parent.
func (e *Exec) Context(parent context.Context) (context.Context, context.CancelFunc) {
	if e.Timeout > 0 {
		return context.WithTimeout(parent, e.Timeout)
	}
	return context.WithCancel(parent)
}

// Engine builds the execution engine the harness-path tools share: the
// configured parallelism, per-worker run scratch, and — with -cache-dir —
// a two-tier run cache persisting verified summaries across invocations.
// With -journal the run cache (a fresh in-memory one if -cache-dir is
// absent) is first seeded from the journal's surviving frames and then
// wrapped so every newly verified summary is appended; call the returned
// closer when the run completes. Callers must run Journal.Preflight first.
// The engine applies no deadline of its own: -timeout reaches the runs
// through the context Context returns, which callers pass to every call.
func (e *Exec) Engine(j *Journal) (*engine.Engine, func(), error) {
	opts := []engine.Option{
		engine.WithParallelism(e.Parallelism),
		engine.WithWorkerState(func() any { return new(core.RunScratch) }),
	}
	var cache engine.RunCacher
	if e.CacheDir != "" {
		tc, err := diskcache.NewSummaryCache(nil, e.CacheDir)
		if err != nil {
			return nil, nil, err
		}
		cache = tc
	}
	closer := func() {}
	if j != nil && j.Path != "" {
		if cache == nil {
			cache = engine.NewRunCache()
		}
		jc, cl, err := j.wire(cache)
		if err != nil {
			return nil, nil, err
		}
		cache, closer = jc, cl
	}
	if cache != nil {
		opts = append(opts, engine.WithRunCache(cache))
	}
	return engine.New(opts...), closer, nil
}

// HarnessConfig renders the flags as a harness configuration wired to eng.
func (p *Problem) HarnessConfig(e *Exec, eng *engine.Engine) harness.Config {
	cfg := harness.Default()
	cfg.S, cfg.N, cfg.B = p.S, p.N, p.B
	cfg.C1, cfg.C2 = dur(p.C1), dur(p.C2)
	cfg.Cmin, cfg.Cmax = dur(p.C1), dur(p.C2)
	cfg.D1, cfg.D2 = dur(p.D1), dur(p.D2)
	cfg.Seeds = e.Seeds
	cfg.Engine = eng
	cfg.NoSeedBatch = !e.SeedBatching
	return cfg
}

func dur(v int64) sim.Duration { return sim.Duration(v) }

// Options renders the flags as facade options, for the tools (and output
// modes) that go through the public API — the path whose results are
// byte-identical to the sessiond daemon's. -timeout is not among them: it
// bounds the ctx Context returns, which those tools pass to the call.
func Options(p *Problem, e *Exec) []sessionproblem.Option {
	opts := []sessionproblem.Option{
		sessionproblem.WithSpec(p.S, p.N),
		sessionproblem.WithAccessBound(p.B),
		sessionproblem.WithStepBounds(p.C1, p.C2),
		sessionproblem.WithDelayBounds(p.D1, p.D2),
		sessionproblem.WithSeeds(e.Seeds),
		sessionproblem.WithParallelism(e.Parallelism),
		sessionproblem.WithCacheDir(e.CacheDir),
		sessionproblem.WithSeedBatching(e.SeedBatching),
	}
	if topos := e.Topologies(); len(topos) > 0 {
		opts = append(opts, sessionproblem.WithTopologies(topos...))
	}
	return opts
}
