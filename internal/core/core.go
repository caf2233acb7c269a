// Package core defines the (s, n)-session problem (Section 2.3) and the
// machinery that runs an algorithm under a timing model and verifies the
// problem's three conditions on the resulting timed computation:
//
//  1. idle states are stable (checked by the executors; additionally
//     probeable for shared memory),
//  2. there is a distinguished set of n ports with unique port processes
//     (encoded in the built systems), and
//  3. every admissible timed computation contains at least s disjoint
//     sessions and all port processes eventually idle.
//
// Algorithms plug in as factories building shared-memory or message-passing
// systems for a given spec and timing model.
package core

import (
	"context"
	"errors"
	"fmt"

	"sessionproblem/internal/certify"
	"sessionproblem/internal/fault"
	"sessionproblem/internal/model"
	"sessionproblem/internal/mp"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/sm"
	"sessionproblem/internal/timing"
	"sessionproblem/internal/trace"
)

// Spec is one instance of the (s, n)-session problem.
type Spec struct {
	// S is the number of disjoint sessions required.
	S int
	// N is the number of ports.
	N int
	// B is the shared-variable access bound (shared-memory systems only).
	B int
}

// Validate checks the spec.
func (sp Spec) Validate() error {
	if sp.S < 1 {
		return fmt.Errorf("core: s must be >= 1, got %d", sp.S)
	}
	if sp.N < 1 {
		return fmt.Errorf("core: n must be >= 1, got %d", sp.N)
	}
	if sp.B != 0 && sp.B < 2 {
		return fmt.Errorf("core: b must be >= 2, got %d", sp.B)
	}
	return nil
}

// SMAlgorithm builds a shared-memory system solving the session problem.
type SMAlgorithm interface {
	Name() string
	BuildSM(spec Spec, m timing.Model) (*sm.System, error)
}

// MPAlgorithm builds a message-passing system solving the session problem.
type MPAlgorithm interface {
	Name() string
	BuildMP(spec Spec, m timing.Model) (*mp.System, error)
}

// Report summarizes one verified execution.
type Report struct {
	// Algorithm and Model identify what ran.
	Algorithm string
	Model     timing.Kind
	// Spec is the problem instance.
	Spec Spec

	// Trace is the recorded timed computation. Only RunSM, RunSMContext,
	// RunSMScratch and their MP twins record it, for callers that print or
	// inspect the steps; every other runner leaves it nil.
	Trace *model.Trace
	// Finish is the running time: the time by which every port process is
	// idle.
	Finish sim.Time
	// Sessions is the number of disjoint sessions in the computation.
	Sessions int
	// Rounds is the number of disjoint rounds in the computation (the
	// running-time measure for the asynchronous shared-memory model).
	Rounds int
	// Gamma is the largest step time taken by any process (per-computation
	// parameter of the sporadic analysis).
	Gamma sim.Duration
	// Messages counts broadcasts (message-passing runs only).
	Messages int

	// Audit is the fault auditor's classification. Only the fault-aware
	// runners (RunSMFaulted, RunMPFaulted) fill it; it is zero for the
	// plain verified paths, which fail hard on inadmissibility instead.
	Audit fault.Audit
	// Faults lists the injected faults the executor applied, in execution
	// order. Nil for fault-free runs.
	Faults []fault.Event

	// NumSteps and Spans carry the online certifier's step count and greedy
	// session decomposition; every core runner fills them. A Report built
	// around a recorded trace without a certifier may leave them zero, and
	// Steps() and Summarize then read the trace.
	NumSteps int
	Spans    []trace.SessionSpan
}

// ErrTooFewSessions is wrapped by verification failures where the
// computation contained fewer than s disjoint sessions.
var ErrTooFewSessions = errors.New("core: fewer than s disjoint sessions")

// Steps is the number of process steps in the computation: the recorded
// trace length when there is a trace, else the certifier's count.
func (r *Report) Steps() int {
	if r == nil {
		return 0
	}
	if r.Trace == nil {
		return r.NumSteps
	}
	return len(r.Trace.Steps)
}

// StreamOptions tune a trace-free run.
type StreamOptions struct {
	// MaxSteps caps executor steps (0 = the executor default of 1e6).
	// Large-n runs need a higher cap: step counts grow with n · s · depth.
	MaxSteps int
}

// RunSM executes alg under model m with the given strategy and seed, then
// verifies admissibility and the session condition. The Report carries the
// recorded trace.
func RunSM(alg SMAlgorithm, spec Spec, m timing.Model, st timing.Strategy, seed uint64) (*Report, error) {
	return RunSMContext(context.Background(), alg, spec, m, st, seed)
}

// RunSMContext is RunSM with cooperative cancellation threaded through the
// shared-memory executor.
func RunSMContext(ctx context.Context, alg SMAlgorithm, spec Spec, m timing.Model, st timing.Strategy, seed uint64) (*Report, error) {
	return runSM(ctx, alg, spec, m, m.NewScheduler(st, seed), st, seed, nil, StreamOptions{}, true)
}

// RunSMStream is RunSMScratch without the trace: the executor records no
// steps, so memory stays O(ports) however many steps the run takes. Every
// other field, and any verification error, is what the traced runners
// report.
func RunSMStream(ctx context.Context, alg SMAlgorithm, spec Spec, m timing.Model, st timing.Strategy, seed uint64, rs *RunScratch, so StreamOptions) (*Report, error) {
	return runSM(ctx, alg, spec, m, m.NewScheduler(st, seed), st, seed, rs, so, false)
}

// runSM is the one verified shared-memory runner. The caller builds the
// scheduler for seed, so the seed-group layer can read its draw count
// afterwards. An online certifier checks every step as the executor
// produces it; keepTrace additionally records the steps into Report.Trace.
func runSM(ctx context.Context, alg SMAlgorithm, spec Spec, m timing.Model, sched *timing.Scheduler, st timing.Strategy, seed uint64, rs *RunScratch, so StreamOptions, keepTrace bool) (*Report, error) {
	sys, err := buildSM(alg, spec, m)
	if err != nil {
		return nil, err
	}
	ctr := certify.New(len(sys.Procs), len(sys.Ports)).CheckAdmissibility(m)
	opts := smOptions(spec, m, rs)
	opts.MaxSteps = so.MaxSteps
	opts.Observer = ctr
	opts.DiscardSteps = !keepTrace
	res, err := sm.RunContext(ctx, sys, sched, opts)
	if err != nil {
		return nil, fmt.Errorf("run %s under %v: %w", alg.Name(), m.Kind, err)
	}
	rep := certified(alg.Name(), spec, m, res.Finish, ctr)
	if keepTrace {
		rep.Trace = res.Trace
	}
	return verify(rep, ctr, st, seed)
}

// RunMP executes alg under model m with the given strategy and seed, then
// verifies admissibility (including message delays) and the session
// condition. The Report carries the recorded trace.
func RunMP(alg MPAlgorithm, spec Spec, m timing.Model, st timing.Strategy, seed uint64) (*Report, error) {
	return RunMPContext(context.Background(), alg, spec, m, st, seed)
}

// RunMPContext is RunMP with cooperative cancellation threaded through the
// message-passing executor.
func RunMPContext(ctx context.Context, alg MPAlgorithm, spec Spec, m timing.Model, st timing.Strategy, seed uint64) (*Report, error) {
	return runMP(ctx, alg, spec, m, m.NewScheduler(st, seed), st, seed, nil, StreamOptions{}, true)
}

// RunMPStream is RunSMStream for message-passing algorithms.
func RunMPStream(ctx context.Context, alg MPAlgorithm, spec Spec, m timing.Model, st timing.Strategy, seed uint64, rs *RunScratch, so StreamOptions) (*Report, error) {
	return runMP(ctx, alg, spec, m, m.NewScheduler(st, seed), st, seed, rs, so, false)
}

// runMP is the one verified message-passing runner; see runSM. The
// certifier additionally observes every message delay.
func runMP(ctx context.Context, alg MPAlgorithm, spec Spec, m timing.Model, sched *timing.Scheduler, st timing.Strategy, seed uint64, rs *RunScratch, so StreamOptions, keepTrace bool) (*Report, error) {
	sys, err := buildMP(alg, spec, m)
	if err != nil {
		return nil, err
	}
	ctr := certify.New(len(sys.Procs), len(sys.PortProcs)).CheckAdmissibility(m)
	opts := mpOptions(spec, m, rs)
	opts.MaxSteps = so.MaxSteps
	opts.Observer = ctr
	opts.DelayObserver = ctr
	opts.DiscardSteps = !keepTrace
	res, err := mp.RunContext(ctx, sys, sched, opts)
	if err != nil {
		return nil, fmt.Errorf("run %s under %v: %w", alg.Name(), m.Kind, err)
	}
	rep := certified(alg.Name(), spec, m, res.Finish, ctr)
	rep.Messages = res.MessagesSent
	if keepTrace {
		rep.Trace = res.Trace
	}
	return verify(rep, ctr, st, seed)
}

// buildSM validates the spec and model and builds alg's system.
func buildSM(alg SMAlgorithm, spec Spec, m timing.Model) (*sm.System, error) {
	if err := validate(spec, m); err != nil {
		return nil, err
	}
	sys, err := alg.BuildSM(spec, m)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", alg.Name(), err)
	}
	return sys, nil
}

// buildMP is buildSM for message-passing algorithms.
func buildMP(alg MPAlgorithm, spec Spec, m timing.Model) (*mp.System, error) {
	if err := validate(spec, m); err != nil {
		return nil, err
	}
	sys, err := alg.BuildMP(spec, m)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", alg.Name(), err)
	}
	return sys, nil
}

func validate(spec Spec, m timing.Model) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	return m.Validate()
}

// certified builds a run's report from its online certifier.
func certified(alg string, spec Spec, m timing.Model, finish sim.Time, ctr *certify.Counter) *Report {
	return &Report{
		Algorithm: alg,
		Model:     m.Kind,
		Spec:      spec,
		Finish:    finish,
		Sessions:  ctr.Sessions(),
		Rounds:    ctr.Rounds(),
		Gamma:     ctr.Gamma(),
		NumSteps:  ctr.Steps(),
		Spans:     ctr.Spans(),
	}
}

// verify fails a plain run on the certifier's admissibility verdict, then on
// the session condition; the report rides along either way.
func verify(rep *Report, ctr *certify.Counter, st timing.Strategy, seed uint64) (*Report, error) {
	if err := ctr.Err(); err != nil {
		return rep, fmt.Errorf("core: inadmissible computation: %w", err)
	}
	if rep.Sessions < rep.Spec.S {
		return rep, fmt.Errorf("%w: got %d, need %d (alg %s, model %v, strategy %v, seed %d)",
			ErrTooFewSessions, rep.Sessions, rep.Spec.S, rep.Algorithm, rep.Model, st, seed)
	}
	return rep, nil
}

// ProbeIdleStability reruns a shared-memory algorithm with extra post-idle
// steps, verifying condition (1) of the problem: once idle, a process stays
// idle and stops modifying shared state. The executor fails the run if the
// property is violated.
func ProbeIdleStability(alg SMAlgorithm, spec Spec, m timing.Model, st timing.Strategy, seed uint64) error {
	sys, err := alg.BuildSM(spec, m)
	if err != nil {
		return fmt.Errorf("build %s: %w", alg.Name(), err)
	}
	_, err = sm.Run(sys, m.NewScheduler(st, seed), sm.Options{ProbeSteps: 3})
	return err
}
