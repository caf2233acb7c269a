package core

import (
	"context"
	"errors"
	"fmt"

	"sessionproblem/internal/certify"
	"sessionproblem/internal/fault"
	"sessionproblem/internal/mp"
	"sessionproblem/internal/sm"
	"sessionproblem/internal/timing"
)

// FaultRun configures a fault-aware execution.
type FaultRun struct {
	// Injector is consulted by the executor; nil runs fault-free (the
	// fault-aware runners then behave like the plain ones, except that
	// verification failures become audit verdicts instead of errors).
	Injector fault.Injector
	// MaxSteps caps executor steps. Faulted runs can legitimately fail to
	// terminate (a crashed relay starves the others), so callers usually
	// want a cap well below the executor default of 1_000_000. Zero keeps
	// the executor default.
	MaxSteps int
	// Scratch, when non-nil, backs the run with reusable executor buffers.
	Scratch *RunScratch
}

// noTerminationNote is appended to the audit's violations when the step cap
// cut the run short: non-termination is itself a violated guarantee, even
// when every port process happened to idle first.
const noTerminationNote = "step cap reached before every process idled"

// RunSMFaulted executes alg under model m with faults injected by fr and
// audits the outcome instead of failing it: inadmissible timing, missing
// sessions and fault-induced non-termination all land in Report.Audit with
// a nil error. Hard errors (invalid spec or model, build failures, context
// cancellation, executor invariant violations) are still returned as errors.
// The run is certified online and its Report carries no trace.
func RunSMFaulted(ctx context.Context, alg SMAlgorithm, spec Spec, m timing.Model, st timing.Strategy, seed uint64, fr FaultRun) (*Report, error) {
	sys, err := buildSM(alg, spec, m)
	if err != nil {
		return nil, err
	}
	ctr := certify.New(len(sys.Procs), len(sys.Ports)).CollectViolations(m)
	opts := smOptions(m, fr.Scratch)
	opts.MaxSteps = fr.MaxSteps
	opts.Injector = fr.Injector
	opts.Observer = ctr
	opts.DiscardSteps = true
	res, err := sm.RunContext(ctx, sys, m.NewScheduler(st, seed), opts)
	if err != nil && (res == nil || !errors.Is(err, sm.ErrNoTermination)) {
		return nil, fmt.Errorf("run %s under %v: %w", alg.Name(), m.Kind, err)
	}
	portsIdle := true
	for _, pb := range sys.Ports {
		if res.IdleAt[pb.Proc] < 0 {
			portsIdle = false
		}
	}
	rep := certified(alg.Name(), spec, m, res.Finish, ctr)
	rep.Faults = res.Faults
	rep.Audit = audit(ctr, spec.S, portsIdle, res.Faults, err != nil)
	return rep, nil
}

// RunMPFaulted is RunSMFaulted for message-passing algorithms; message
// delays (including late and duplicated deliveries) feed the audit.
func RunMPFaulted(ctx context.Context, alg MPAlgorithm, spec Spec, m timing.Model, st timing.Strategy, seed uint64, fr FaultRun) (*Report, error) {
	return runMPFaultedSched(ctx, alg, spec, m, m.NewScheduler(st, seed), fr)
}

// runMPFaultedSched is RunMPFaulted with a caller-supplied scheduler, letting
// the seed-group layer read its draw count afterwards; see runSM.
func runMPFaultedSched(ctx context.Context, alg MPAlgorithm, spec Spec, m timing.Model, sched *timing.Scheduler, fr FaultRun) (*Report, error) {
	sys, err := buildMP(alg, spec, m)
	if err != nil {
		return nil, err
	}
	ctr := certify.New(len(sys.Procs), len(sys.PortProcs)).CollectViolations(m)
	opts := mpOptions(m, fr.Scratch)
	opts.MaxSteps = fr.MaxSteps
	opts.Injector = fr.Injector
	opts.Observer = ctr
	opts.DelayObserver = ctr
	opts.DiscardSteps = true
	res, err := mp.RunContext(ctx, sys, sched, opts)
	if err != nil && (res == nil || !errors.Is(err, mp.ErrNoTermination)) {
		return nil, fmt.Errorf("run %s under %v: %w", alg.Name(), m.Kind, err)
	}
	portsIdle := true
	for _, pp := range sys.PortProcs {
		if res.IdleAt[pp] < 0 {
			portsIdle = false
		}
	}
	rep := certified(alg.Name(), spec, m, res.Finish, ctr)
	rep.Messages = res.MessagesSent
	rep.Faults = res.Faults
	rep.Audit = audit(ctr, spec.S, portsIdle, res.Faults, err != nil)
	return rep, nil
}

// audit classifies a fault-aware run from its certifier; capped marks a run
// the step cap cut short.
func audit(ctr *certify.Counter, s int, portsIdle bool, faults []fault.Event, capped bool) fault.Audit {
	violations := ctr.Violations()
	if capped {
		violations = append(violations, noTerminationNote)
	}
	return fault.Classify(ctr.Sessions(), s, portsIdle, faults, violations)
}
