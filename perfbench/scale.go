package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"sessionproblem/internal/alg/async"
	"sessionproblem/internal/alg/gossip"
	"sessionproblem/internal/certify"
	"sessionproblem/internal/core"
	"sessionproblem/internal/sm"
	"sessionproblem/internal/timing"
)

// The scale workload certifies two large runs with the streaming
// certifier, as the BenchmarkLargeN cells do: the Section-3 relay tree
// (alg/async) at n = 4096, s = 2, where knowledge merge dominates, and the
// gossip synchronizer on a degree-4 expander at n = 10^5, s = 1, whose
// per-port state dwarfs the CPU caches. The Slow strategy draws nothing.
// The workload seed picks the expander's graph seed. One pass runs both
// cells; a run repeats passes until the measured time is spent. A request
// is one certified cell run: the runs of the first pass are cold, later
// ones warm.

// scaleCell is one large-n streaming-certified run.
type scaleCell struct {
	name string
	alg  core.SMAlgorithm
	spec core.Spec
}

// scaleModel is the asynchronous shared-memory model with step gaps capped
// at 4, as in the BenchmarkLargeN cells.
var scaleModel = timing.NewAsynchronousSM(4)

const scaleMaxSteps = 500_000_000

func scaleCells(o options) []scaleCell {
	treeN, expN := 4096, 100_000
	if o.toy {
		treeN, expN = 256, 2000
	}
	return []scaleCell{
		{"tree", async.NewSM(), core.Spec{S: 2, N: treeN, B: 3}},
		{"expander", gossip.NewSM("expander", o.seed), core.Spec{S: 1, N: expN, B: 2}},
	}
}

// buildCells times one BuildSM of every cell and returns the seconds per
// cell.
func buildCells(cells []scaleCell) ([]float64, error) {
	secs := make([]float64, len(cells))
	for i, c := range cells {
		t0 := time.Now()
		if _, err := c.alg.BuildSM(c.spec, scaleModel); err != nil {
			return nil, fmt.Errorf("build %s: %w", c.name, err)
		}
		secs[i] = time.Since(t0).Seconds()
	}
	return secs, nil
}

// setupRounds is how many times a run builds the cells to time set-up.
const setupRounds = 5

func scaleSetup(cells []scaleCell) (float64, error) {
	xs := make([]float64, setupRounds)
	for i := range xs {
		secs, err := buildCells(cells)
		if err != nil {
			return 0, err
		}
		for _, s := range secs {
			xs[i] += s
		}
	}
	return median(xs), nil
}

// cellRun is what one certified run reports.
type cellRun struct{ steps, sessions int }

// runCell certifies one cell through core.RunSMStream and checks it.
func runCell(ctx context.Context, c scaleCell, rs *core.RunScratch, out *outcome) cellRun {
	rep, err := core.RunSMStream(ctx, c.alg, c.spec, scaleModel, timing.Slow, 1, rs, core.StreamOptions{MaxSteps: scaleMaxSteps})
	out.attempted++
	if err != nil {
		out.fail("%s: %v", c.name, err)
		return cellRun{}
	}
	if rep.Sessions < c.spec.S {
		out.fail("%s: %d sessions, need %d", c.name, rep.Sessions, c.spec.S)
	}
	return cellRun{steps: rep.Steps(), sessions: rep.Sessions}
}

func runScale(ctx context.Context, o options) (*outcome, error) {
	cells := scaleCells(o)
	if o.trace {
		return traceScale(ctx, o, cells)
	}
	out := newOutcome(o)
	setup, err := scaleSetup(cells)
	if err != nil {
		return nil, err
	}
	out.values["setup_s"] = setup

	// A request is one certified cell run. The first pass's runs are cold
	// (fresh heap and scratch); later passes repeat the same inputs. With
	// the tree cell the cheaper one, the 50th percentiles are tree runs and
	// the 90th and 99th expander runs.
	rs := new(core.RunScratch)
	lat := newCallLatencies(len(cells))
	first := make([]cellRun, len(cells))
	var steps, runs int
	start := time.Now()
	for pass := 0; ; pass++ {
		for i, c := range cells {
			t0 := time.Now()
			r := runCell(ctx, c, rs, out)
			lat.add(i, pass > 0, time.Since(t0))
			if pass == 0 {
				first[i] = r
			} else if r.steps != first[i].steps || r.sessions != first[i].sessions {
				out.countsDiffer = true
				out.fail("%s: exact counts changed between passes: %d steps %d sessions, then %d and %d",
					c.name, first[i].steps, first[i].sessions, r.steps, r.sessions)
			}
			steps += r.steps
			runs++
		}
		if measured(start, pass, o) {
			break
		}
	}
	wall := time.Since(start).Seconds()
	out.values["runs_per_s"] = float64(runs) / wall
	out.values["steps_per_s"] = float64(steps) / wall
	// Every request is one run, so req_per_s equals runs_per_s here.
	out.values["req_per_s"] = float64(runs) / wall
	lat.report(out)
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	out.values["peak_rss_mb"] = rss
	for i, c := range cells {
		out.counts[c.name+"_steps"] = int64(first[i].steps)
		out.counts[c.name+"_sessions"] = int64(first[i].sessions)
	}
	return out, nil
}

// traceScale runs one untraced pass and then one pass through the layers:
// BuildSM (timed per cell), sm.RunContext with DiscardSteps, wrapped
// scheduler and processes, and a wrapped certify.Counter as the observer —
// the sequence core.RunSMStream runs, with the same checks.
func traceScale(ctx context.Context, o options, cells []scaleCell) (*outcome, error) {
	out := newOutcome(o)
	rs := new(core.RunScratch)

	sampler := startSampler(5 * time.Millisecond)
	t0 := time.Now()
	plain := make([]cellRun, len(cells))
	for i, c := range cells {
		plain[i] = runCell(ctx, c, rs, out)
	}
	wallU := time.Since(t0)
	sampler.finish(out)

	rec := newRecorder()
	var hs hotSet
	var steps, draws int64
	t0 = time.Now()
	for i, c := range cells {
		root := rec.begin("run", -1, int64(i))
		b := rec.begin(c.name+".build", root, int64(i))
		sys, err := c.alg.BuildSM(c.spec, scaleModel)
		rec.end(b)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", c.name, err)
		}
		ctr := certify.New(len(sys.Procs), len(sys.Ports)).CheckAdmissibility(scaleModel)
		wrapSM(sys, &hs)
		sched := scaleModel.NewScheduler(timing.Slow, 1)
		x := rec.begin("sm.run", root, int64(i))
		_, err = sm.RunContext(ctx, sys, smScheduler{inner: sched, st: &hs.sched}, sm.Options{
			ExpectedSteps: 2*c.spec.S*c.spec.N + 128,
			WindowHint:    scaleModel.MaxIncrement(),
			DiscardSteps:  true,
			Observer:      observer{inner: ctr, st: &hs.observe},
			MaxSteps:      scaleMaxSteps,
			Scratch:       &rs.SM,
		})
		rec.end(x)
		rec.end(root)
		out.attempted++
		if err != nil {
			out.fail("%s: %v", c.name, err)
			continue
		}
		if err := ctr.Err(); err != nil {
			out.fail("%s: inadmissible: %v", c.name, err)
		}
		if ctr.Sessions() < c.spec.S {
			out.fail("%s: %d sessions, need %d", c.name, ctr.Sessions(), c.spec.S)
		}
		if ctr.Steps() != plain[i].steps {
			out.countsDiffer = true
			out.fail("%s: traced run took %d steps, untraced %d", c.name, ctr.Steps(), plain[i].steps)
		}
		steps += int64(ctr.Steps())
		draws += int64(sched.Draws())
		out.counts[c.name+"_steps"] = int64(ctr.Steps())
		out.counts[c.name+"_sessions"] = int64(ctr.Sessions())
	}
	wallT := time.Since(t0)

	spans := rec.totals()
	overhead := ratio(float64(wallT), float64(wallU)) - 1
	out.overheadFrac = &overhead
	stepStats := hs.steps()
	out.values["trace.overhead_frac"] = overhead
	out.values["core.runs"] = float64(len(cells))
	out.values["core.steps"] = float64(steps)
	out.values["alg.step_calls"] = float64(stepStats.calls)
	out.values["alg.step_ns"] = stepStats.nsPerCall()
	out.values["tree.relay_step_ns"] = hs.relay.nsPerCall()
	out.values["alg.gossip_step_ns"] = hs.gossip.nsPerCall()
	out.values["timing.sched_calls"] = float64(hs.sched.calls)
	out.values["timing.draws"] = float64(draws)
	out.values["timing.sched_ns"] = hs.sched.nsPerCall()
	out.values["certify.observe_ns_per_step"] = hs.observe.nsPerCall()
	out.values["sm.exec_ns_per_step"] = ratio(spanNS(spans, "sm.run")-hs.sched.totalNS()-hs.stepNS()-hs.observe.totalNS(), float64(steps))
	out.values["tree.build_s"] = spanNS(spans, "tree.build") / float64(time.Second)
	out.values["topo.build_s"] = spanNS(spans, "expander.build") / float64(time.Second)
	out.counts["step_calls"] = stepStats.calls
	out.counts["sched_calls"] = hs.sched.calls
	out.counts["draws"] = draws
	if _, err := rec.write(filepath.Join(o.stateDir, "traces"), o.workload, o.seed); err != nil {
		return nil, err
	}
	return out, nil
}
