package core_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"sessionproblem/internal/alg/async"
	"sessionproblem/internal/alg/gossip"
	"sessionproblem/internal/alg/periodic"
	"sessionproblem/internal/alg/registry"
	"sessionproblem/internal/alg/semisync"
	"sessionproblem/internal/alg/synchronous"
	"sessionproblem/internal/core"
	"sessionproblem/internal/fault"
	"sessionproblem/internal/model"
	"sessionproblem/internal/mp"
	"sessionproblem/internal/sm"
	"sessionproblem/internal/timing"
	"sessionproblem/internal/topo"
	"sessionproblem/internal/trace"
)

// TestStreamMatchesMaterializedSM is the golden count-identity test for the
// trace-free runners: over a grid of real algorithms (the gossip
// synchronizer on every topology family included), timing models,
// strategies and seeds, RunSMStream must report exactly the session count,
// rounds, gamma, finish, step count and session spans that the model.Trace
// methods and trace.Sessions derive from RunSM's recorded trace, which must
// itself pass CheckAdmissible.
func TestStreamMatchesMaterializedSM(t *testing.T) {
	cases := []struct {
		name string
		alg  core.SMAlgorithm
		m    timing.Model
	}{
		{"synchronous", synchronous.NewSM(), timing.NewSynchronous(3, 0)},
		{"periodic", periodic.NewSM(), timing.NewPeriodic(2, 7, 0)},
		{"semisync", semisync.NewSM(semisync.Auto), timing.NewSemiSynchronous(2, 7, 0)},
		{"async", async.NewSM(), timing.NewAsynchronousSM(4)},
	}
	for _, family := range topo.Families() {
		cases = append(cases, struct {
			name string
			alg  core.SMAlgorithm
			m    timing.Model
		}{"gossip-" + family, gossip.NewSM(family, 5), timing.NewAsynchronousSM(4)})
	}
	spec := core.Spec{S: 3, N: 5, B: 3}
	for _, tc := range cases {
		for _, st := range []timing.Strategy{timing.Slow, timing.Fast, timing.Random, timing.Jittered} {
			for seed := uint64(1); seed <= 3; seed++ {
				want, err := core.RunSM(tc.alg, spec, tc.m, st, seed)
				if err != nil {
					t.Fatalf("%s/%v/%d traced: %v", tc.name, st, seed, err)
				}
				if err := tc.m.CheckAdmissible(want.Trace, nil); err != nil {
					t.Errorf("%s/%v/%d: recorded trace inadmissible: %v", tc.name, st, seed, err)
				}
				got, err := core.RunSMStream(context.Background(), tc.alg, spec, tc.m, st, seed, nil, core.StreamOptions{})
				if err != nil {
					t.Fatalf("%s/%v/%d trace-free: %v", tc.name, st, seed, err)
				}
				compareReports(t, tc.name, want, got)
			}
		}
	}
}

// TestStreamMatchesMaterializedMP covers the message-passing executor, whose
// streams include network delivery steps and message delays.
func TestStreamMatchesMaterializedMP(t *testing.T) {
	cases := []struct {
		name string
		alg  core.MPAlgorithm
		m    timing.Model
	}{
		{"synchronous", synchronous.NewMP(), timing.NewSynchronous(3, 2)},
		{"periodic", periodic.NewMP(), timing.NewPeriodic(2, 7, 4)},
		{"semisync", semisync.NewMP(semisync.Auto), timing.NewSemiSynchronous(2, 7, 4)},
		{"async", async.NewMP(), timing.NewAsynchronousMP(4, 6)},
		{"sporadic-start-sync", async.NewMP(), timing.NewAsynchronousMP(4, 6).WithSynchronizedStart()},
	}
	spec := core.Spec{S: 3, N: 4}
	for _, tc := range cases {
		for _, st := range []timing.Strategy{timing.Slow, timing.Fast, timing.Random, timing.Jittered} {
			for seed := uint64(1); seed <= 3; seed++ {
				want, err := core.RunMP(tc.alg, spec, tc.m, st, seed)
				if err != nil {
					t.Fatalf("%s/%v/%d traced: %v", tc.name, st, seed, err)
				}
				got, err := core.RunMPStream(context.Background(), tc.alg, spec, tc.m, st, seed, nil, core.StreamOptions{})
				if err != nil {
					t.Fatalf("%s/%v/%d trace-free: %v", tc.name, st, seed, err)
				}
				compareReports(t, tc.name, want, got)
			}
		}
	}
}

// compareReports checks a trace-free report against an independent
// reference: the counts and the greedy span decomposition recomputed from
// the traced run's recorded steps by the model.Trace methods and
// trace.Sessions, not by the online certifier both runs share.
func compareReports(t *testing.T, name string, want, got *core.Report) {
	t.Helper()
	tr := want.Trace
	if got.Trace != nil {
		t.Fatalf("%s: trace-free run recorded a trace", name)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: recorded trace invalid: %v", name, err)
	}
	for _, r := range []struct {
		path string
		rep  *core.Report
	}{{"traced", want}, {"trace-free", got}} {
		if r.rep.Sessions != tr.CountSessions() || r.rep.Rounds != tr.CountRounds() ||
			r.rep.Gamma != tr.Gamma() || r.rep.Steps() != len(tr.Steps) {
			t.Errorf("%s: %s report has sessions %d rounds %d gamma %v steps %d; trace has %d %d %v %d",
				name, r.path, r.rep.Sessions, r.rep.Rounds, r.rep.Gamma, r.rep.Steps(),
				tr.CountSessions(), tr.CountRounds(), tr.Gamma(), len(tr.Steps))
		}
	}
	if got.Finish != want.Finish || got.Messages != want.Messages {
		t.Errorf("%s: finish/messages: trace-free %v/%d, traced %v/%d",
			name, got.Finish, got.Messages, want.Finish, want.Messages)
	}
	if wantSpans := trace.Sessions(tr); !reflect.DeepEqual(got.Spans, wantSpans) {
		t.Errorf("%s: spans: trace-free %+v, trace.Sessions %+v", name, got.Spans, wantSpans)
	}
	// Summarize reads the trace when there is one, the certifier otherwise.
	wantSum, gotSum := core.Summarize(want), core.Summarize(got)
	if !reflect.DeepEqual(wantSum, gotSum) {
		t.Errorf("%s: summaries differ: trace-free %+v, traced %+v", name, gotSum, wantSum)
	}
}

// TestFaultedAuditMatchesTrace holds the fault-aware runner's online audit
// to the trace auditor: for every message-passing model, strategy and two
// fault intensities, RunMPFaulted must report the Audit that fault.AuditTrace
// gives for a traced mp.RunContext run of the same system, scheduler and
// plan, and the counts the model.Trace methods give. The last case's step
// cap cuts runs short, so the reference appends the no-termination note.
func TestFaultedAuditMatchesTrace(t *testing.T) {
	ctx := context.Background()
	spec := core.Spec{S: 3, N: 3}
	models := []timing.Model{
		timing.NewSynchronous(4, 6),
		timing.NewPeriodic(2, 5, 6),
		timing.NewSemiSynchronous(1, 4, 6),
		timing.NewSporadic(1, 2, 6, 12),
		timing.NewAsynchronousMP(4, 6),
	}
	capped := 0
	for _, maxSteps := range []int{20_000, 40} {
		for _, m := range models {
			alg, err := registry.ForMP(m.Kind)
			if err != nil {
				t.Fatal(err)
			}
			for _, intensity := range []float64{0.1, 0.4} {
				for i, st := range timing.AllStrategies() {
					name := fmt.Sprintf("%v/%v/i=%.1f/cap %d", m.Kind, st, intensity, maxSteps)
					plan := fault.NewPlan(uint64(i)+11, intensity).ScaledTo(m)
					seed := uint64(i) + 1

					sys, err := alg.BuildMP(spec, m)
					if err != nil {
						t.Fatal(err)
					}
					res, err := mp.RunContext(ctx, sys, m.NewScheduler(st, seed), mp.Options{
						MaxSteps: maxSteps, Injector: plan.Injector(), WindowHint: m.MaxIncrement(),
					})
					noTerm := errors.Is(err, mp.ErrNoTermination)
					if err != nil && !noTerm {
						t.Fatalf("%s: traced run: %v", name, err)
					}
					portsIdle := true
					for _, pp := range sys.PortProcs {
						portsIdle = portsIdle && res.IdleAt[pp] >= 0
					}
					want := fault.AuditTrace(m, res.Trace, res.Delays, spec.S, portsIdle, res.Faults)
					wantList := want.Violations.Strings()
					if noTerm {
						capped++
						wantList = append(wantList, "step cap reached before every process idled")
						if want.Verdict == fault.VerdictAdmissible {
							want.Verdict = fault.VerdictRecovered
						}
					}

					got, err := core.RunMPFaulted(ctx, alg, spec, m, st, seed,
						core.FaultRun{Injector: plan.Injector(), MaxSteps: maxSteps})
					if err != nil {
						t.Fatalf("%s: RunMPFaulted: %v", name, err)
					}
					if got.Trace != nil {
						t.Fatalf("%s: faulted run recorded a trace", name)
					}
					// The rendered lists, not only their lengths: the online
					// certifier and the trace replay must record the same
					// violations in the same order.
					gotList := got.Audit.Violations.Strings()
					if !reflect.DeepEqual(gotList, wantList) {
						t.Errorf("%s: violations\n got  %q\n want %q", name, gotList, wantList)
					}
					gotScalars, wantScalars := got.Audit, want
					gotScalars.Violations, wantScalars.Violations = fault.Violations{}, fault.Violations{}
					if !reflect.DeepEqual(gotScalars, wantScalars) {
						t.Errorf("%s: audit\n got  %+v\n want %+v", name, gotScalars, wantScalars)
					}
					tr := res.Trace
					if got.Sessions != tr.CountSessions() || got.Rounds != tr.CountRounds() ||
						got.Gamma != tr.Gamma() || got.Steps() != len(tr.Steps) {
						t.Errorf("%s: sessions %d rounds %d gamma %v steps %d; trace has %d %d %v %d",
							name, got.Sessions, got.Rounds, got.Gamma, got.Steps(),
							tr.CountSessions(), tr.CountRounds(), tr.Gamma(), len(tr.Steps))
					}
				}
			}
		}
	}
	if capped == 0 {
		t.Error("no case hit the step cap; the no-termination path went untested")
	}
}

// TestTraceFreeRunnersRecordNoTrace pins which runners record steps. The
// per-run trace-free runners return a nil Trace. The seed-group runners
// return summaries, so their trace-freedom is read off what they allocate:
// a recording run stores a model.Step and an access record for every step
// it takes, while a trace-free group of simulated seeds allocates well
// under one model.Step per step.
func TestTraceFreeRunnersRecordNoTrace(t *testing.T) {
	ctx := context.Background()
	smSpec, mpSpec := core.Spec{S: 20, N: 8, B: 2}, core.Spec{S: 20, N: 8}
	m := timing.NewSemiSynchronous(1, 4, 6)
	smAlg, mpAlg := semisync.NewSM(semisync.Auto), semisync.NewMP(semisync.Auto)
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}

	reps := map[string]func() (*core.Report, error){
		"RunSMStream": func() (*core.Report, error) {
			return core.RunSMStream(ctx, smAlg, smSpec, m, timing.Random, 1, nil, core.StreamOptions{})
		},
		"RunMPStream": func() (*core.Report, error) {
			return core.RunMPStream(ctx, mpAlg, mpSpec, m, timing.Random, 1, nil, core.StreamOptions{})
		},
		"RunSMFaulted": func() (*core.Report, error) {
			return core.RunSMFaulted(ctx, smAlg, smSpec, m, timing.Random, 1, core.FaultRun{})
		},
		"RunMPFaulted": func() (*core.Report, error) {
			return core.RunMPFaulted(ctx, mpAlg, mpSpec, m, timing.Random, 1, core.FaultRun{})
		},
	}
	for name, run := range reps {
		rep, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Trace != nil || rep.NumSteps == 0 {
			t.Errorf("%s: Trace %v, NumSteps %d; want a nil trace and a certified step count", name, rep.Trace, rep.NumSteps)
		}
	}

	// bytesPerStep runs group twice on one scratch and returns the bytes
	// the second call allocated per step it simulated. Random schedules
	// draw, so every seed of the group runs; a shared group would
	// simulate one seed and prove nothing.
	stepBytes := float64(unsafe.Sizeof(model.Step{}))
	bytesPerStep := func(name string, group func(rs *core.RunScratch) ([]*core.RunSummary, core.BatchStats, error)) float64 {
		t.Helper()
		rs := new(core.RunScratch)
		if _, _, err := group(rs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sums, stats, err := group(rs)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stats.Forks != 0 {
			t.Fatalf("%s: %d seeds shared the probe's run; the group must simulate every seed", name, stats.Forks)
		}
		steps := 0
		for _, sum := range sums {
			steps += sum.Steps
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(steps)
	}
	groups := map[string]func(rs *core.RunScratch) ([]*core.RunSummary, core.BatchStats, error){
		"BatchRunSM": func(rs *core.RunScratch) ([]*core.RunSummary, core.BatchStats, error) {
			return core.BatchRunSM(ctx, smAlg, smSpec, m, timing.Random, seeds, rs)
		},
		"BatchRunMP": func(rs *core.RunScratch) ([]*core.RunSummary, core.BatchStats, error) {
			return core.BatchRunMP(ctx, mpAlg, mpSpec, m, timing.Random, seeds, rs)
		},
		"BatchRunMPFaulted": func(rs *core.RunScratch) ([]*core.RunSummary, core.BatchStats, error) {
			frs := make([]core.FaultRun, len(seeds))
			for i := range frs {
				frs[i].Scratch = rs
			}
			return core.BatchRunMPFaulted(ctx, mpAlg, mpSpec, m, timing.Random, seeds, frs)
		},
	}
	for name, group := range groups {
		if got := bytesPerStep(name, group); got >= stepBytes {
			t.Errorf("%s allocated %.1f bytes per step, want under one model.Step (%.0f bytes): it records steps", name, got, stepBytes)
		}
	}
	// The measure must be able to see a recording run.
	traced := bytesPerStep("RunSMContext", func(*core.RunScratch) ([]*core.RunSummary, core.BatchStats, error) {
		sums := make([]*core.RunSummary, len(seeds))
		for i, seed := range seeds {
			rep, err := core.RunSMContext(ctx, smAlg, smSpec, m, timing.Random, seed)
			if err != nil {
				return nil, core.BatchStats{}, err
			}
			sums[i] = core.Summarize(rep)
		}
		return sums, core.BatchStats{}, nil
	})
	if traced < stepBytes {
		t.Fatalf("a traced run allocated %.1f bytes per step, under one model.Step (%.0f bytes): the measure cannot see recording", traced, stepBytes)
	}
}

// oneShotSM is an algorithm whose ports step exactly once: it yields one
// session regardless of spec.S, so any S > 1 fails verification.
type oneShotSM struct{}

func (oneShotSM) Name() string { return "one-shot" }

func (oneShotSM) BuildSM(spec core.Spec, _ timing.Model) (*sm.System, error) {
	b := spec.B
	if b == 0 {
		b = 2
	}
	sys := &sm.System{B: b}
	for i := 0; i < spec.N; i++ {
		v := model.VarID(i)
		sys.Procs = append(sys.Procs, &oneShotPort{v: v})
		sys.Ports = append(sys.Ports, sm.PortBinding{Var: v, Proc: i})
	}
	return sys, nil
}

type oneShotPort struct {
	v    model.VarID
	done bool
}

func (p *oneShotPort) Target() model.VarID { return p.v }
func (p *oneShotPort) Step(old sm.Value) sm.Value {
	if p.done {
		return old
	}
	p.done = true
	return 1
}
func (p *oneShotPort) Idle() bool { return p.done }

// TestStreamReportsTooFewSessions checks the failure path keeps the solo
// wording (same sentinel error, same context fields).
func TestStreamReportsTooFewSessions(t *testing.T) {
	m := timing.NewSynchronous(3, 0)
	spec := core.Spec{S: 3, N: 5, B: 3}
	_, wantErr := core.RunSM(oneShotSM{}, spec, m, timing.Slow, 7)
	_, gotErr := core.RunSMStream(context.Background(), oneShotSM{}, spec, m, timing.Slow, 7, nil, core.StreamOptions{})
	if wantErr == nil || gotErr == nil {
		t.Fatalf("both paths should fail: materialized %v, streaming %v", wantErr, gotErr)
	}
	if !errors.Is(wantErr, core.ErrTooFewSessions) || !errors.Is(gotErr, core.ErrTooFewSessions) {
		t.Fatalf("want ErrTooFewSessions from both: materialized %v, streaming %v", wantErr, gotErr)
	}
	if wantErr.Error() != gotErr.Error() {
		t.Errorf("error wording diverged:\nmaterialized: %v\nstreaming:    %v", wantErr, gotErr)
	}
}
