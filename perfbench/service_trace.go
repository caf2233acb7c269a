package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"sessionproblem"
	"sessionproblem/internal/core"
	"sessionproblem/internal/diskcache"
	"sessionproblem/internal/engine"
	"sessionproblem/internal/journal"
	"sessionproblem/wire"
)

// The traced service run drives the daemon twice, once untraced and once
// recording a span per request and /v1/stats snapshots around each phase
// (the per-request wall of the two gives the tracing overhead). It then
// replays the traced drive's request stream in-process through the facade
// over a tier stack composed from engine.NewRunCache, diskcache.Open and
// NewTiered, and journal.Open/NewCache, with timing wrappers at each tier
// boundary, the summary codec and the wire encoders. The replay restarts
// its memory tier where the daemon restarted, and every reply it renders
// must be byte-identical to the daemon's.

// timer accumulates the durations of one kind of call. Safe for
// concurrent use.
type timer struct{ n, ns atomic.Int64 }

func (t *timer) since(t0 time.Time) {
	t.n.Add(1)
	t.ns.Add(int64(time.Since(t0)))
}

func (t *timer) meanUS() float64 {
	return ratio(float64(t.ns.Load()), float64(t.n.Load())) / float64(time.Microsecond)
}

// tierTimers are the timers of the replay's cache stack.
type tierTimers struct{ memGet, diskGet, put, encode, decode timer }

// tierStack is the daemon's two-tier run cache, composed from its public
// pieces so every tier boundary can be timed: the memory tier first, then
// the disk tier (promoting its hits), and every Put to both — the
// semantics of diskcache.Tiered.
type tierStack struct {
	mem          *engine.RunCache
	disk         *diskcache.Tiered // disk only: no memory tier of its own
	t            *tierTimers
	hits, misses atomic.Int64
}

func newTierStack(dir string, t *tierTimers) (*tierStack, error) {
	store, err := diskcache.Open(dir)
	if err != nil {
		return nil, err
	}
	codec := diskcache.Codec{
		Encode: func(v any) ([]byte, error) {
			sum, ok := v.(*core.RunSummary)
			if !ok {
				return nil, errors.New("replay cache: value is not a run summary")
			}
			t0 := time.Now()
			data, err := core.EncodeSummary(sum)
			t.encode.since(t0)
			return data, err
		},
		Decode: func(data []byte) (any, error) {
			t0 := time.Now()
			v, err := core.DecodeSummary(data)
			t.decode.since(t0)
			return v, err
		},
	}
	return &tierStack{mem: engine.NewRunCache(), disk: diskcache.NewTiered(nil, store, codec), t: t}, nil
}

func (s *tierStack) Get(key string) (any, bool) {
	t0 := time.Now()
	v, ok := s.mem.Get(key)
	s.t.memGet.since(t0)
	if !ok {
		t1 := time.Now()
		v, ok = s.disk.Get(key)
		s.t.diskGet.since(t1)
		if ok {
			s.mem.Put(key, v)
		}
	}
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return v, ok
}

func (s *tierStack) Put(key string, v any) {
	t0 := time.Now()
	s.mem.Put(key, v)
	s.disk.Put(key, v)
	s.t.put.since(t0)
}

func (s *tierStack) Hits() int64   { return s.hits.Load() }
func (s *tierStack) Misses() int64 { return s.misses.Load() }

// putTimer times the Puts through any RunCacher.
type putTimer struct {
	engine.RunCacher
	t *timer
}

func (p putTimer) Put(key string, v any) {
	t0 := time.Now()
	p.RunCacher.Put(key, v)
	p.t.since(t0)
}

// sweepKinds maps sessiond's sweep kind names onto the facade's.
var sweepKinds = map[string]sessionproblem.SweepKind{
	"sporadic-delay":       sessionproblem.SweepSporadicDelay,
	"periodic-vs-semisync": sessionproblem.SweepPeriodicVsSemiSync,
	"periodic-vs-sporadic": sessionproblem.SweepPeriodicVsSporadic,
	"network-diameter":     sessionproblem.SweepNetworkDiameter,
	"fault-intensity":      sessionproblem.SweepFaultIntensity,
}

// facadeOptions renders a request as the facade options sessiond builds
// for it at its default parallelism (0: GOMAXPROCS workers).
func facadeOptions(rq request, cache sessionproblem.RunCacher) []sessionproblem.Option {
	opts := []sessionproblem.Option{
		sessionproblem.WithSpec(rq.S, rq.N),
		sessionproblem.WithAccessBound(rq.B),
		sessionproblem.WithStepBounds(rq.C1, rq.C2),
		sessionproblem.WithDelayBounds(rq.D1, rq.D2),
		sessionproblem.WithSeeds(rq.Seeds),
		sessionproblem.WithParallelism(0),
		sessionproblem.WithRunCache(cache),
		sessionproblem.WithSweepSteps(rq.Steps),
		sessionproblem.WithMaxSessions(rq.MaxSessions),
		sessionproblem.WithSchedule(rq.Strategy, rq.Seed),
	}
	if len(rq.Cmaxs) > 0 {
		opts = append(opts, sessionproblem.WithPeriodMaxima(rq.Cmaxs...))
	}
	if len(rq.Topos) > 0 {
		opts = append(opts, sessionproblem.WithTopologies(rq.Topos...))
	}
	return opts
}

// callFacade makes one request's facade call and renders its envelope,
// recording spans around both.
func callFacade(ctx context.Context, e *entry, opts []sessionproblem.Option, rec *recorder, id int64) ([]byte, callStats, time.Duration, error) {
	root := rec.begin("facade."+e.endpoint, -1, id)
	t0 := time.Now()
	var st callStats
	var render func() ([]byte, error)
	var err error
	switch e.endpoint {
	case "table1":
		var res *sessionproblem.TableResult
		if res, err = sessionproblem.Table1(ctx, opts...); err == nil {
			st, render = facadeStats(res.Stats), func() ([]byte, error) { return wire.MarshalTable(res.Cells) }
		}
	case "hierarchy":
		var res *sessionproblem.HierarchyResult
		if res, err = sessionproblem.Hierarchy(ctx, opts...); err == nil {
			st, render = facadeStats(res.Stats), func() ([]byte, error) { return wire.MarshalHierarchy(res.Rows) }
		}
	case "sweep":
		var res *sessionproblem.SweepResult
		if res, err = sessionproblem.Sweep(ctx, sweepKinds[e.rq.Kind], opts...); err == nil {
			st, render = facadeStats(res.Stats), func() ([]byte, error) { return wire.MarshalSweep(res.Points) }
		}
	case "solve":
		var rep *sessionproblem.Report
		if rep, err = sessionproblem.Solve(ctx, sessionproblem.Model(e.rq.Model), sessionproblem.Comm(e.rq.Comm), opts...); err == nil {
			render = func() ([]byte, error) { return wire.MarshalReport(rep) }
		}
	default:
		err = fmt.Errorf("unknown endpoint %q", e.endpoint)
	}
	call := time.Since(t0)
	rec.end(root)
	if err != nil {
		return nil, st, call, err
	}
	w := rec.begin("wire.marshal", -1, id)
	data, err := render()
	rec.end(w)
	return append(data, '\n'), st, call, err
}

// progressLine is what the daemon writes per finished task of a streamed
// request; the replay encodes it too, so streamed requests cost the same.
type progressLine struct {
	V          int    `json:"v"`
	Kind       string `json:"kind"`
	Label      string `json:"label"`
	Worker     int    `json:"worker"`
	WallMicros int64  `json:"wallMicros"`
	Steps      int    `json:"steps"`
	Sessions   int    `json:"sessions"`
	Messages   int    `json:"messages"`
	Faults     int    `json:"faults"`
}

// replayService replays the drive's requests in sequence order and stores
// the layer metrics of the cache tiers, codec, journal, wire and facade.
func replayService(ctx context.Context, o options, res *driveResult, rec *recorder, out *outcome) error {
	dirs, err := newServiceDirs(o, "replay")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dirs.root)
	var tt tierTimers
	stack, err := newTierStack(dirs.cache, &tt)
	if err != nil {
		return err
	}
	var appendTotal, appendInner, load timer
	var tl taskLog
	var stats callStats
	var warm []float64
	seen := make([]bool, len(res.d.ws.bodies))
	sampler := startSampler(5 * time.Millisecond)
	total := res.d.sent()
	for pos := 0; pos < total; pos++ {
		if pos == res.restartPos {
			// The daemon restarted here: a fresh memory tier over the same
			// disk directory.
			if stack, err = newTierStack(dirs.cache, &tt); err != nil {
				break
			}
		}
		c := res.d.ws.calls[pos]
		e := &res.d.ws.bodies[c.body]
		var cache engine.RunCacher = stack
		var w *journal.Writer
		if e.rq.Journal != "" {
			path := filepath.Join(dirs.journal, e.rq.Journal+".journal")
			if w, _, err = journal.Open(path); err != nil {
				break
			}
			// The facade replays the journal into the run cache before every
			// journaled call, as sessiond does.
			t0 := time.Now()
			_, err = journal.Load(path, stack)
			load.since(t0)
			if err != nil {
				w.Close()
				break
			}
			cache = putTimer{journal.NewCache(putTimer{stack, &appendInner}, w), &appendTotal}
		}
		opts := facadeOptions(e.rq, cache)
		stream := c.stream
		opts = append(opts, sessionproblem.WithObserver(func(ob sessionproblem.Observation) {
			tl.observe(ob.Label, ob.Wall)
			if stream {
				// Only the cost of encoding matters; the line goes nowhere.
				_, _ = json.Marshal(progressLine{V: wire.Version, Kind: "progress", Label: ob.Label, Worker: ob.Worker,
					WallMicros: ob.Wall.Microseconds(), Steps: ob.Steps, Sessions: ob.Sessions,
					Messages: ob.Messages, Faults: ob.Faults})
			}
		}))
		data, st, took, callErr := callFacade(ctx, e, opts, rec, int64(pos))
		if w != nil {
			w.Close()
		}
		out.attempted++
		switch a := &res.d.answers[c.body]; {
		case callErr != nil:
			out.fail("replay %s body %d: %v", e.endpoint, c.body, callErr)
			continue
		case a.ok && !bytes.Equal(data, a.envelope):
			out.fail("replay %s body %d: envelope differs from the daemon's", e.endpoint, c.body)
		}
		stats.add(st)
		if seen[c.body] {
			warm = append(warm, float64(took)/float64(time.Microsecond))
		}
		seen[c.body] = true
	}
	sampler.finish(out)
	if err != nil {
		return err
	}
	spans := rec.totals()
	out.values["engine.mem_get_us"] = tt.memGet.meanUS()
	out.values["diskcache.disk_get_us"] = tt.diskGet.meanUS()
	out.values["diskcache.put_us"] = tt.put.meanUS()
	out.values["core.encode_us"] = tt.encode.meanUS()
	out.values["core.decode_us"] = tt.decode.meanUS()
	appends := appendTotal.n.Load()
	out.values["journal.append_us"] = ratio(float64(appendTotal.ns.Load()-appendInner.ns.Load()), float64(appends)) / float64(time.Microsecond)
	out.values["journal.load_us"] = load.meanUS()
	out.values["wire.marshal_us"] = meanUS(spans, "wire.marshal")
	out.values["sessionproblem.warm_call_us"] = mean(warm)
	out.values["engine.tasks"] = float64(stats.tasks)
	out.values["engine.busy_frac"] = ratio(float64(stats.busy), float64(stats.wall)*float64(stats.parallelism))
	out.values["core.batch_lanes"] = float64(stats.lanes)
	out.values["core.batch_forks"] = float64(stats.forks)
	out.values["core.batch_fallbacks"] = float64(stats.fallbacks)
	tl.report(out)
	out.samples["replay_warm_calls"] = len(warm)
	out.samples["journal_appends"] = int(appends)
	out.samples["journal_loads"] = int(load.n.Load())
	return nil
}

func traceService(ctx context.Context, o options, ws *workloadStream) (*outcome, error) {
	out := newOutcome(o)
	dirsU, err := newServiceDirs(o, "untraced")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dirsU.root)
	resU, err := runDrive(o, ws, dirsU, nil, 0)
	if err != nil {
		return nil, err
	}
	dirsT, err := newServiceDirs(o, "traced")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dirsT.root)
	rec := newRecorder()
	resT, err := runDrive(o, ws, dirsT, rec, 0)
	if err != nil {
		return nil, err
	}
	// The end-to-end numbers of both drives are discarded; their checks
	// count.
	discard := newOutcome(o)
	resU.report(discard)
	resT.report(discard)
	out.attempted += discard.attempted
	out.failed += discard.failed
	perReq := func(r *driveResult) float64 { return ratio(float64(r.wall), float64(r.d.done)) }
	overhead := ratio(perReq(resT), perReq(resU)) - 1
	out.overheadFrac = &overhead
	out.values["trace.overhead_frac"] = overhead

	var hits, misses, memHits, diskHits, corrupt, writeErrs int64
	var heap uint64
	for ph := 0; ph < 2; ph++ {
		a, b := resT.stats[ph][0], resT.stats[ph][1]
		hits += b.Cache.Hits - a.Cache.Hits
		misses += b.Cache.Misses - a.Cache.Misses
		memHits += b.Cache.MemHits - a.Cache.MemHits
		diskHits += b.Cache.DiskHits - a.Cache.DiskHits
		corrupt += b.Cache.Corrupt - a.Cache.Corrupt
		writeErrs += b.Cache.WriteErrors - a.Cache.WriteErrors
		for _, s := range []daemonStats{a, b} {
			if s.Mem.HeapInuseBytes > heap {
				heap = s.Mem.HeapInuseBytes
			}
		}
	}
	out.values["engine.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	out.values["engine.cache_misses"] = float64(misses)
	out.values["diskcache.mem_hits"] = float64(memHits)
	out.values["diskcache.disk_hits"] = float64(diskHits)
	out.values["diskcache.entries"] = float64(resT.stats[1][1].Cache.DiskEntries)
	out.values["diskcache.corrupt"] = float64(corrupt)
	out.values["diskcache.write_errors"] = float64(writeErrs)
	out.values["sessiond.heap_inuse_mb"] = float64(heap) / (1 << 20)
	out.values["wire.response_bytes"] = ratio(float64(resT.d.bytes), float64(resT.d.done))
	out.values["journal.bytes"] = float64(resT.journalB)

	if err := replayService(ctx, o, resT, rec, out); err != nil {
		return nil, err
	}
	if _, err := rec.write(filepath.Join(o.stateDir, "traces"), o.workload, o.seed); err != nil {
		return nil, err
	}
	return out, nil
}
