package fault

import (
	"fmt"

	"sessionproblem/internal/model"
	"sessionproblem/internal/timing"
)

// Verdict classifies one audited computation.
type Verdict int

const (
	// VerdictAdmissible: no assumption was violated and the session
	// guarantee held — the run is indistinguishable from a fault-free one.
	VerdictAdmissible Verdict = iota + 1
	// VerdictRecovered: assumptions were violated (faults struck, or the
	// trace breaks a timing bound) but the algorithm still achieved s
	// sessions and every port process went idle.
	VerdictRecovered
	// VerdictBroken: the session guarantee did not survive — too few
	// sessions, or some port process never idled.
	VerdictBroken
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictAdmissible:
		return "admissible"
	case VerdictRecovered:
		return "recovered"
	case VerdictBroken:
		return "broken"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Audit is the auditor's record for one computation.
type Audit struct {
	// Verdict is the classification.
	Verdict Verdict
	// Violations lists every violated assumption: injected faults in
	// execution order first (drops, duplicates and stale reads leave traces
	// the timing checker cannot fault — the event log is the only witness),
	// then every timing-bound violation the trace itself exhibits.
	Violations []string
	// FirstViolation is Violations[0], the first violated bound, or ""
	// when the run was admissible.
	FirstViolation string
	// SessionsAchieved and SessionsRequired compare the computation against
	// the spec's s.
	SessionsAchieved int
	SessionsRequired int
	// PortsIdle reports whether every port process reached an idle state.
	PortsIdle bool
	// FaultsInjected counts the faults the executor actually applied.
	FaultsInjected int
}

// Admissible reports whether the run was fully admissible.
func (a Audit) Admissible() bool { return a.Verdict == VerdictAdmissible }

// Held reports whether the session guarantee held (possibly despite
// violations): the verdict is not broken.
func (a Audit) Held() bool { return a.Verdict != VerdictBroken }

// Silent reports the dangerous quadrant: the guarantee broke but the auditor
// recorded no violated assumption. A correct algorithm under a correct
// executor never produces this; the robustness sweeps assert it stays zero.
func (a Audit) Silent() bool { return a.Verdict == VerdictBroken && len(a.Violations) == 0 }

// AuditTrace classifies one recorded computation. tr and delays are the
// executor's recorded outputs, sRequired is the spec's s, portsIdle reports
// whether every port process idled (false for runs cut short by the step cap
// or by a permanent port crash), and faults is the executor's applied-fault
// log. A nil trace (run died before producing one) has no sessions, so it
// is audited as broken.
func AuditTrace(m timing.Model, tr *model.Trace, delays []timing.MessageDelay, sRequired int, portsIdle bool, faults []Event) Audit {
	if tr == nil {
		return Classify(0, sRequired, portsIdle, faults, []string{"no trace recorded"})
	}
	return Classify(tr.CountSessions(), sRequired, portsIdle, faults, m.AdmissibilityViolations(tr, delays))
}

// Classify builds the audit of one computation from its parts: sessions is
// its greedy session count, violations its timing-bound violations in
// timing.Model.AdmissibilityViolations order (plus any note the runner
// adds), and faults the executor's applied-fault log, whose events lead the
// audit's Violations. It is the one home of the verdict rules: AuditTrace
// classifies recorded traces with it, the fault-aware core runners their
// online certifier's results.
func Classify(sessions, sRequired int, portsIdle bool, faults []Event, violations []string) Audit {
	a := Audit{
		SessionsAchieved: sessions,
		SessionsRequired: sRequired,
		PortsIdle:        portsIdle,
		FaultsInjected:   len(faults),
	}
	for _, ev := range faults {
		a.Violations = append(a.Violations, ev.String())
	}
	a.Violations = append(a.Violations, violations...)
	if len(a.Violations) > 0 {
		a.FirstViolation = a.Violations[0]
	}
	switch {
	case sessions < sRequired || !portsIdle:
		a.Verdict = VerdictBroken
	case len(a.Violations) == 0:
		a.Verdict = VerdictAdmissible
	default:
		a.Verdict = VerdictRecovered
	}
	return a
}
