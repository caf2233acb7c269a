package core

import (
	"context"
	"errors"
	"fmt"

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
	// Scratch, when non-nil, backs the run with reusable executor buffers;
	// the resulting Report then follows the RunScratch ownership contract.
	Scratch *RunScratch
}

// noTerminationNote is appended to the audit's violations when the step cap
// cut the run short: non-termination is itself a violated guarantee, even
// when every port process happened to idle first.
const noTerminationNote = "step cap reached before every process idled"

func degrade(aud *fault.Audit) {
	if aud.FirstViolation == "" {
		aud.FirstViolation = aud.Violations[0]
	}
	if aud.Verdict == fault.VerdictAdmissible {
		aud.Verdict = fault.VerdictRecovered
	}
}

// RunSMFaulted executes alg under model m with faults injected by fr and
// audits the outcome instead of failing it: inadmissible timing, missing
// sessions and fault-induced non-termination all land in Report.Audit with
// a nil error. Hard errors (invalid spec or model, build failures, context
// cancellation, executor invariant violations) are still returned as errors.
func RunSMFaulted(ctx context.Context, alg SMAlgorithm, spec Spec, m timing.Model, st timing.Strategy, seed uint64, fr FaultRun) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	sys, err := alg.BuildSM(spec, m)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", alg.Name(), err)
	}
	opts := smOptions(spec, m, fr.Scratch)
	opts.MaxSteps = fr.MaxSteps
	opts.Injector = fr.Injector
	res, err := sm.RunContext(ctx, sys, m.NewScheduler(st, seed), opts)
	noTerm := false
	if err != nil {
		if res == nil || !errors.Is(err, sm.ErrNoTermination) {
			return nil, fmt.Errorf("run %s under %v: %w", alg.Name(), m.Kind, err)
		}
		noTerm = true
	}
	portsIdle := true
	for _, pb := range sys.Ports {
		if res.IdleAt[pb.Proc] < 0 {
			portsIdle = false
		}
	}
	rep := &Report{
		Algorithm: alg.Name(),
		Model:     m.Kind,
		Spec:      spec,
		Trace:     res.Trace,
		Finish:    res.Finish,
		Sessions:  res.Trace.CountSessions(),
		Rounds:    res.Trace.CountRounds(),
		Gamma:     res.Trace.Gamma(),
		Faults:    res.Faults,
	}
	rep.Audit = fault.AuditTrace(m, res.Trace, nil, spec.S, portsIdle, res.Faults)
	if noTerm {
		rep.Audit.Violations = append(rep.Audit.Violations, noTerminationNote)
		degrade(&rep.Audit)
	}
	return rep, nil
}

// RunMPFaulted is RunSMFaulted for message-passing algorithms; recorded
// message delays (including late and duplicated deliveries) feed the audit.
func RunMPFaulted(ctx context.Context, alg MPAlgorithm, spec Spec, m timing.Model, st timing.Strategy, seed uint64, fr FaultRun) (*Report, error) {
	return runMPFaultedSched(ctx, alg, spec, m, m.NewScheduler(st, seed), fr)
}

// runMPFaultedSched is RunMPFaulted with a caller-supplied scheduler, letting
// the seed-group layer read its draw count afterwards; see runSM.
func runMPFaultedSched(ctx context.Context, alg MPAlgorithm, spec Spec, m timing.Model, sched *timing.Scheduler, fr FaultRun) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	sys, err := alg.BuildMP(spec, m)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", alg.Name(), err)
	}
	opts := mpOptions(spec, m, fr.Scratch)
	opts.MaxSteps = fr.MaxSteps
	opts.Injector = fr.Injector
	res, err := mp.RunContext(ctx, sys, sched, opts)
	noTerm := false
	if err != nil {
		if res == nil || !errors.Is(err, mp.ErrNoTermination) {
			return nil, fmt.Errorf("run %s under %v: %w", alg.Name(), m.Kind, err)
		}
		noTerm = true
	}
	portsIdle := true
	for _, pp := range sys.PortProcs {
		if res.IdleAt[pp] < 0 {
			portsIdle = false
		}
	}
	rep := &Report{
		Algorithm: alg.Name(),
		Model:     m.Kind,
		Spec:      spec,
		Trace:     res.Trace,
		Finish:    res.Finish,
		Sessions:  res.Trace.CountSessions(),
		Rounds:    res.Trace.CountRounds(),
		Gamma:     res.Trace.Gamma(),
		Messages:  res.MessagesSent,
		Faults:    res.Faults,
	}
	rep.Audit = fault.AuditTrace(m, res.Trace, res.Delays, spec.S, portsIdle, res.Faults)
	if noTerm {
		rep.Audit.Violations = append(rep.Audit.Violations, noTerminationNote)
		degrade(&rep.Audit)
	}
	return rep, nil
}
