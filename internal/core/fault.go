package core

import (
	"context"

	"sessionproblem/internal/certify"
	"sessionproblem/internal/fault"
	"sessionproblem/internal/mp"
	"sessionproblem/internal/sm"
	"sessionproblem/internal/timing"
)

// FaultRun configures an audited execution.
type FaultRun struct {
	// Injector is consulted by the executor; nil runs fault-free (the
	// audited runners then behave like the plain ones, except that
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

// AuditSM executes alg under model m with the given scheduler and audits the
// outcome instead of failing it: inadmissible timing, missing sessions and
// non-termination all land in Report.Audit with a nil error. sched is any
// executor scheduler, so a schedule that did not come from m (an enumerated
// or searched one, a fault-free hop scheduler) is certified against m too.
// Hard errors (invalid spec or model, build failures, context cancellation,
// executor invariant violations) are still returned as errors. The run is
// certified online and its Report carries no trace.
func AuditSM(ctx context.Context, alg SMAlgorithm, spec Spec, m timing.Model, sched sm.Scheduler, fr FaultRun) (*Report, error) {
	return runSM(ctx, alg, spec, m, sched, execution{FaultRun: fr, audited: true})
}

// AuditMP is AuditSM for message-passing algorithms; message delays
// (including late and duplicated deliveries) feed the audit.
func AuditMP(ctx context.Context, alg MPAlgorithm, spec Spec, m timing.Model, sched mp.Scheduler, fr FaultRun) (*Report, error) {
	return runMP(ctx, alg, spec, m, sched, execution{FaultRun: fr, audited: true})
}

// RunSMFaulted is AuditSM under m's scheduler for st and seed, with faults
// injected by fr.
func RunSMFaulted(ctx context.Context, alg SMAlgorithm, spec Spec, m timing.Model, st timing.Strategy, seed uint64, fr FaultRun) (*Report, error) {
	return AuditSM(ctx, alg, spec, m, m.NewScheduler(st, seed), fr)
}

// RunMPFaulted is RunSMFaulted for message-passing algorithms.
func RunMPFaulted(ctx context.Context, alg MPAlgorithm, spec Spec, m timing.Model, st timing.Strategy, seed uint64, fr FaultRun) (*Report, error) {
	return AuditMP(ctx, alg, spec, m, m.NewScheduler(st, seed), fr)
}

// audit classifies an audited run from its certifier; capped marks a run
// the step cap cut short.
func audit(ctr *certify.Counter, s int, portsIdle bool, faults []fault.Event, capped bool) fault.Audit {
	v := fault.Violations{Faults: faults}
	var err error
	if v.Bounds, err = ctr.Violations(); err != nil {
		v.Text = append(v.Text, err.Error())
	}
	if capped {
		v.Text = append(v.Text, noTerminationNote)
	}
	return fault.Classify(ctr.Sessions(), s, portsIdle, v)
}
