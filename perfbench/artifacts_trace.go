package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sessionproblem/internal/alg/registry"
	"sessionproblem/internal/core"
	"sessionproblem/internal/fault"
	"sessionproblem/internal/harness"
	"sessionproblem/internal/mp"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/sm"
	"sessionproblem/internal/timing"
)

// The traced artifacts run reports the layers from four parts, over the
// calls that seed batching applies to unless said otherwise:
//
//   - a warm-up pass, untimed, so that what follows runs on a warm heap;
//     its outputs are the reference the other parts must reproduce;
//   - batchPairs pairs of a batched and a solo run of every call, without
//     observer or sampler, interleaved call by call and alternating which
//     of the two goes first, so host drift falls on both sides alike. Solo
//     turns seed batching off, so every run goes alone through
//     core.RunSMScratch/RunMPScratch. core.batch_vs_solo is the median
//     over the pairs of the solo wall over the batched wall (above 1 means
//     batching pays);
//   - an observed pass over every call of the list, as the untraced run
//     makes it but with an engine observer and a runtime sampler: the
//     engine, batch-tier and Go runtime layers;
//   - a replay of the identical run matrix through the layers one call
//     at a time — BuildSM/BuildMP, sm.RunContext/mp.RunContext with wrapped
//     scheduler and processes, the certification calls, core.Summarize, and
//     core.RunMPFaulted with a wrapped injector for the fault rows — keeping
//     every check the runners make. Its exact counts must equal the solo
//     runs'.

// batchPairs is how many batched-and-solo pairs core.batch_vs_solo is the
// median of.
const batchPairs = 3

// replayRun is one (algorithm, model, strategy, seed) run of the matrix.
// Exactly one of smAlg and mpAlg is set; plan is set for fault-sweep runs.
type replayRun struct {
	smAlg core.SMAlgorithm
	mpAlg core.MPAlgorithm
	spec  core.Spec
	model timing.Model
	st    timing.Strategy
	seed  uint64
	plan  *fault.Plan
}

// faultMaxSteps is the fault sweep's default step cap.
const faultMaxSteps = 200_000

// faultIntensities is the fault sweep's default intensity axis.
var faultIntensities = []float64{0, 0.05, 0.1, 0.2, 0.4, 0.8}

// planSeed mirrors the fault sweep's per-run plan seed: the base seed
// mixed with the run's flat matrix index.
func planSeed(base uint64, i int) uint64 {
	return base ^ (uint64(i)+1)*0x9e3779b97f4a7c15
}

// replayRuns lays out the matrix behind the replayed calls, in the order
// and with the models the harness uses for them. Algorithms come from the
// registry, which designates the same ones the harness runs.
func (in artifactsInput) replayRuns() ([]replayRun, error) {
	var runs []replayRun
	var err error
	add := func(comm string, spec core.Spec, m timing.Model) {
		if err != nil {
			return
		}
		r := replayRun{spec: spec, model: m}
		if comm == "SM" {
			r.smAlg, err = registry.ForSM(m.Kind)
		} else {
			r.mpAlg, err = registry.ForMP(m.Kind)
		}
		for _, st := range timing.AllStrategies() {
			for seed := 1; seed <= in.seeds; seed++ {
				r.st, r.seed = st, uint64(seed)
				runs = append(runs, r)
			}
		}
	}
	c1, c2 := sim.Duration(in.c1), sim.Duration(in.c2)
	d1, d2 := sim.Duration(in.d1), sim.Duration(in.d2)
	mpModels := func(c1, c2, d1, d2 sim.Duration) []timing.Model {
		return []timing.Model{
			timing.NewSynchronous(c2, d2),
			timing.NewPeriodic(c1, c2, d2),
			timing.NewSemiSynchronous(c1, c2, d2),
			timing.NewSporadic(c1, d1, d2, 0),
			timing.NewAsynchronousMP(c2, d2),
		}
	}
	// Table 1 at every grid scale.
	for _, sc := range in.scales {
		for _, m := range []timing.Model{
			timing.NewSynchronous(c2, 0),
			timing.NewPeriodic(c1, c2, 0),
			timing.NewSemiSynchronous(c1, c2, 0),
			timing.NewAsynchronousSM(0),
		} {
			add("SM", core.Spec{S: sc.S, N: sc.N, B: in.b}, m)
		}
		for _, m := range mpModels(c1, c2, d1, d2) {
			add("MP", core.Spec{S: sc.S, N: sc.N}, m)
		}
	}
	// The hierarchy.
	def := harness.Default()
	for _, m := range mpModels(c1, c2, d1, d2) {
		add("MP", core.Spec{S: def.S, N: def.N}, m)
	}
	// F1: d1 sweeps 0 -> d2 = 40 with gaps capped at 2·c1.
	for i := 0; i < f1Steps; i++ {
		add("MP", core.Spec{S: 6, N: 4}, timing.NewSporadic(2, sim.Duration(40*i/(f1Steps-1)), 40, 4))
	}
	// F2: periodic and semi-synchronous as s grows.
	for s := 2; s <= f2MaxS; s++ {
		add("MP", core.Spec{S: s, N: 4}, timing.NewPeriodic(2, 10, 30))
		add("MP", core.Spec{S: s, N: 4}, timing.NewSemiSynchronous(2, 10, 30))
	}
	// F3: the sporadic baseline, then periodic as cmax grows.
	add("MP", core.Spec{S: 5, N: 3}, timing.NewSporadic(2, 4, 28, 0))
	for _, cmax := range f3Cmaxs {
		add("MP", core.Spec{S: 5, N: 3}, timing.NewPeriodic(2, sim.Duration(cmax), 28))
	}
	if err != nil {
		return nil, err
	}
	// The fault sweep: rows × intensities × strategies × seeds, with the
	// plan seed keyed by the flat index.
	spec := core.Spec{S: def.S, N: def.N}
	i := 0
	for _, m := range mpModels(c1, c2, d1, d2) {
		alg, err := registry.ForMP(m.Kind)
		if err != nil {
			return nil, err
		}
		for _, x := range faultIntensities {
			for _, st := range timing.AllStrategies() {
				for seed := 1; seed <= in.seeds; seed++ {
					plan := fault.NewPlan(planSeed(1, i), x).ScaledTo(m)
					runs = append(runs, replayRun{mpAlg: alg, spec: spec, model: m, st: st, seed: uint64(seed), plan: &plan})
					i++
				}
			}
		}
	}
	return runs, nil
}

// replayTotals accumulates the replay across workers.
type replayTotals struct {
	mu                sync.Mutex
	smHot, mpHot      hotSet
	smSteps, mpSteps  int64
	runs, steps, msgs int64
	faults, draws     int64
	injects           int64
	problems          []string
}

func (t *replayTotals) problem(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

// replay runs the matrix on nproc workers and returns the totals and the
// wall time.
func (in artifactsInput) replay(ctx context.Context, rec *recorder) (*replayTotals, time.Duration, error) {
	runs, err := in.replayRuns()
	if err != nil {
		return nil, 0, err
	}
	tot := &replayTotals{}
	var next atomic.Int64
	errs := make([]error, in.parallelism)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < in.parallelism; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(runs) {
					return
				}
				if err := replayOne(ctx, rec, int64(i), &runs[i], tot); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return tot, wall, nil
}

// replayOne runs one matrix entry through the layers, keeping every check
// the runner makes: admissibility and the session count for plain runs,
// the audit for faulted ones. Failed checks are recorded as problems;
// only a run that cannot be built or executed is an error.
func replayOne(ctx context.Context, rec *recorder, id int64, r *replayRun, tot *replayTotals) error {
	root := rec.begin("run", -1, id)
	defer rec.end(root)
	if err := r.spec.Validate(); err != nil {
		return err
	}
	if err := r.model.Validate(); err != nil {
		return err
	}
	if r.plan != nil {
		return replayFaulted(ctx, rec, root, id, r, tot)
	}
	var hs hotSet
	sched := r.model.NewScheduler(r.st, r.seed)
	var rep *core.Report
	var admissible error
	if r.smAlg != nil {
		b := rec.begin("alg.build", root, id)
		sys, err := r.smAlg.BuildSM(r.spec, r.model)
		rec.end(b)
		if err != nil {
			return fmt.Errorf("build %s: %w", r.smAlg.Name(), err)
		}
		wrapSM(sys, &hs)
		x := rec.begin("sm.run", root, id)
		res, err := sm.RunContext(ctx, sys, smScheduler{inner: sched, st: &hs.sched}, sm.Options{
			ExpectedSteps: 2*r.spec.S*r.spec.N + 128,
			WindowHint:    r.model.MaxIncrement(),
		})
		rec.end(x)
		if err != nil {
			return fmt.Errorf("run %s under %v: %w", r.smAlg.Name(), r.model.Kind, err)
		}
		c := rec.begin("model.certify", root, id)
		rep = &core.Report{
			Algorithm: r.smAlg.Name(), Model: r.model.Kind, Spec: r.spec,
			Trace: res.Trace, Finish: res.Finish,
			Sessions: res.Trace.CountSessions(),
			Rounds:   res.Trace.CountRounds(),
			Gamma:    res.Trace.Gamma(),
		}
		admissible = r.model.CheckAdmissible(res.Trace, nil)
		rec.end(c)
	} else {
		b := rec.begin("alg.build", root, id)
		sys, err := r.mpAlg.BuildMP(r.spec, r.model)
		rec.end(b)
		if err != nil {
			return fmt.Errorf("build %s: %w", r.mpAlg.Name(), err)
		}
		wrapMP(sys, &hs)
		x := rec.begin("mp.run", root, id)
		res, err := mp.RunContext(ctx, sys, mpScheduler{smScheduler{inner: sched, st: &hs.sched}}, mp.Options{
			ExpectedSteps:  r.spec.S*r.spec.N*(r.spec.N+2) + 128,
			ExpectedDelays: r.spec.S*r.spec.N*r.spec.N + 128,
			WindowHint:     r.model.MaxIncrement(),
		})
		rec.end(x)
		if err != nil {
			return fmt.Errorf("run %s under %v: %w", r.mpAlg.Name(), r.model.Kind, err)
		}
		c := rec.begin("model.certify", root, id)
		rep = &core.Report{
			Algorithm: r.mpAlg.Name(), Model: r.model.Kind, Spec: r.spec,
			Trace: res.Trace, Finish: res.Finish,
			Sessions: res.Trace.CountSessions(),
			Rounds:   res.Trace.CountRounds(),
			Gamma:    res.Trace.Gamma(),
			Messages: res.MessagesSent,
		}
		admissible = r.model.CheckAdmissible(res.Trace, res.Delays)
		rec.end(c)
	}
	if admissible != nil {
		tot.problem("%s under %v %v seed %d: inadmissible: %v", rep.Algorithm, r.model.Kind, r.st, r.seed, admissible)
	}
	if rep.Sessions < r.spec.S {
		tot.problem("%s under %v %v seed %d: %d sessions, need %d", rep.Algorithm, r.model.Kind, r.st, r.seed, rep.Sessions, r.spec.S)
	}
	s := rec.begin("core.summarize", root, id)
	sum := core.Summarize(rep)
	rec.end(s)

	tot.mu.Lock()
	defer tot.mu.Unlock()
	tot.runs++
	tot.steps += int64(sum.Steps)
	tot.msgs += int64(sum.Messages)
	tot.draws += int64(sched.Draws())
	if r.smAlg != nil {
		tot.smHot.add(&hs)
		tot.smSteps += int64(sum.Steps)
	} else {
		tot.mpHot.add(&hs)
		tot.mpSteps += int64(sum.Steps)
	}
	return nil
}

// replayFaulted runs one fault-sweep entry through core.RunMPFaulted with a
// wrapped injector and audits it as the sweep does.
func replayFaulted(ctx context.Context, rec *recorder, root int32, id int64, r *replayRun, tot *replayTotals) error {
	var calls int64
	f := rec.begin("fault.run", root, id)
	rep, err := core.RunMPFaulted(ctx, r.mpAlg, r.spec, r.model, r.st, r.seed, core.FaultRun{
		Injector: injector{inner: r.plan.Injector(), calls: &calls},
		MaxSteps: faultMaxSteps,
	})
	rec.end(f)
	if err != nil {
		return fmt.Errorf("fault run %s under %v: %w", r.mpAlg.Name(), r.model.Kind, err)
	}
	if rep.Audit.Silent() {
		tot.problem("fault run %s under %v %v seed %d: broken without a recorded violation", r.mpAlg.Name(), r.model.Kind, r.st, r.seed)
	}
	if r.plan.Intensity == 0 && !rep.Audit.Held() {
		tot.problem("fault run %s under %v %v seed %d: fault-free control broke", r.mpAlg.Name(), r.model.Kind, r.st, r.seed)
	}
	s := rec.begin("core.summarize", root, id)
	sum := core.Summarize(rep)
	rec.end(s)

	tot.mu.Lock()
	defer tot.mu.Unlock()
	tot.runs++
	tot.steps += int64(sum.Steps)
	tot.msgs += int64(sum.Messages)
	tot.faults += int64(sum.Faults)
	tot.injects += calls
	return nil
}

func traceArtifacts(ctx context.Context, o options, in artifactsInput) (*outcome, error) {
	out := newOutcome(o)
	list := in.artifactList()
	var calls []artifact
	for _, a := range list {
		if a.replayed {
			calls = append(calls, a)
		}
	}

	// The warm-up pass.
	ref, err := runPass(ctx, calls, callMode{}, out)
	if err != nil {
		return nil, err
	}

	// The batched-and-solo pairs.
	var solo passResult // the first pair's solo runs
	ratios := make([]float64, batchPairs)
	soloWalls := make([]float64, batchPairs)
	for i := range ratios {
		var wallBatched, wallSolo time.Duration
		for j, a := range calls {
			for k := 0; k < 2; k++ {
				isSolo := (i+j+k)%2 == 1
				r, wall, err := runCall(ctx, a, callMode{solo: isSolo}, out)
				if err != nil {
					return nil, err
				}
				if r.digest != ref.digests[j] {
					out.fail("%s: output (seed batching %v) differs from the warm-up pass", a.name, !isSolo)
				}
				if !isSolo {
					wallBatched += wall
					continue
				}
				wallSolo += wall
				if i == 0 {
					solo.runs += r.runs
					solo.stats.add(r.stats)
				}
			}
		}
		ratios[i] = ratio(float64(wallSolo), float64(wallBatched))
		soloWalls[i] = float64(wallSolo)
		out.detail[fmt.Sprintf("batch_vs_solo.pair%d", i+1)] = ratios[i]
	}
	out.values["core.batch_vs_solo"] = median(ratios)
	out.samples["batch_vs_solo_pairs"] = batchPairs

	// The observed pass.
	var tl taskLog
	sampler := startSampler(5 * time.Millisecond)
	observed, err := runPass(ctx, list, callMode{observe: tl.observe}, out)
	sampler.finish(out)
	if err != nil {
		return nil, err
	}
	j := 0
	for i, a := range list {
		if a.replayed {
			if observed.digests[i] != ref.digests[j] {
				out.fail("%s: observed output differs from the warm-up pass", a.name)
			}
			j++
		}
	}
	st := observed.stats
	out.values["engine.tasks"] = float64(st.tasks)
	out.values["engine.busy_frac"] = ratio(float64(st.busy), float64(st.wall)*float64(st.parallelism))
	tl.report(out)
	out.values["core.batch_lanes"] = float64(st.lanes)
	out.values["core.batch_forks"] = float64(st.forks)
	out.values["core.batch_fallbacks"] = float64(st.fallbacks)

	// The replay through the layers.
	rec := newRecorder()
	tot, wallC, err := in.replay(ctx, rec)
	if err != nil {
		return nil, err
	}
	out.attempted += int(tot.runs)
	for i, p := range tot.problems {
		if i == 0 {
			out.fail("replay: %s (and %d more)", p, len(tot.problems)-1)
		} else {
			out.failed++
		}
	}
	// The solo runs are exactly the replayed matrix, so their counts are
	// the ones the replay must reproduce.
	b := solo.stats
	if tot.runs != int64(solo.runs) || tot.steps != int64(b.steps) || tot.msgs != int64(b.messages) || tot.faults != int64(b.faults) {
		out.countsDiffer = true
		out.fail("replay did other work than the facade: runs %d/%d steps %d/%d messages %d/%d faults %d/%d",
			tot.runs, solo.runs, tot.steps, b.steps, tot.msgs, b.messages, tot.faults, b.faults)
	}
	overhead := ratio(float64(wallC), median(soloWalls)) - 1
	out.overheadFrac = &overhead
	out.values["trace.overhead_frac"] = overhead

	spans := rec.totals()
	var sched, steps hotStats
	sched.add(tot.smHot.sched)
	sched.add(tot.mpHot.sched)
	steps.add(tot.smHot.steps())
	steps.add(tot.mpHot.steps())
	out.values["alg.build_us"] = meanUS(spans, "alg.build")
	out.values["timing.sched_calls"] = float64(sched.calls)
	out.values["timing.draws"] = float64(tot.draws)
	out.values["timing.sched_ns"] = sched.nsPerCall()
	out.values["alg.step_calls"] = float64(steps.calls)
	out.values["alg.step_ns"] = steps.nsPerCall()
	out.values["tree.relay_step_ns"] = tot.smHot.relay.nsPerCall()
	out.values["alg.gossip_step_ns"] = tot.smHot.gossip.nsPerCall()
	out.values["sm.exec_ns_per_step"] = ratio(spanNS(spans, "sm.run")-tot.smHot.sched.totalNS()-tot.smHot.stepNS(), float64(tot.smSteps))
	out.values["mp.exec_ns_per_step"] = ratio(spanNS(spans, "mp.run")-tot.mpHot.sched.totalNS()-tot.mpHot.stepNS(), float64(tot.mpSteps))
	out.values["core.runs"] = float64(tot.runs)
	out.values["core.steps"] = float64(tot.steps)
	out.values["mp.messages"] = float64(tot.msgs)
	out.values["model.certify_ns_per_step"] = ratio(spanNS(spans, "model.certify"), float64(tot.smSteps+tot.mpSteps))
	out.values["core.summarize_us"] = meanUS(spans, "core.summarize")
	out.values["fault.inject_calls"] = float64(tot.injects)
	out.values["fault.faults"] = float64(tot.faults)
	out.values["fault.run_us"] = meanUS(spans, "fault.run")

	out.counts = observed.counts()
	for k, v := range map[string]int64{
		"replay_runs": tot.runs, "replay_steps": tot.steps, "replay_messages": tot.msgs,
		"replay_faults": tot.faults, "replay_draws": tot.draws, "replay_step_calls": steps.calls,
		"replay_sched_calls": sched.calls, "replay_inject_calls": tot.injects,
	} {
		out.counts[k] = v
	}
	if _, err := rec.write(filepath.Join(o.stateDir, "traces"), o.workload, o.seed); err != nil {
		return nil, err
	}
	return out, nil
}
