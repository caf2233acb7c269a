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
	// Violations lists every violated assumption, kept as values until a
	// reader renders them: injected faults in execution order first (drops,
	// duplicates and stale reads leave traces the timing checker cannot
	// fault — the event log is the only witness), then every timing-bound
	// violation the trace itself exhibits.
	Violations Violations
	// SessionsAchieved and SessionsRequired compare the computation against
	// the spec's s.
	SessionsAchieved int
	SessionsRequired int
	// PortsIdle reports whether every port process reached an idle state.
	PortsIdle bool
	// FaultsInjected counts the faults the executor actually applied.
	FaultsInjected int
}

// Violations is an audit's list of violated assumptions.
type Violations struct {
	// Faults are the applied faults, in execution order.
	Faults []Event
	// Bounds are the timing bounds the computation broke, in
	// timing.Checker.Violations order: gaps by process, then delays in
	// send order.
	Bounds []timing.Violation
	// Text holds violations with no typed form, in order: an invalid
	// trace, a run the step cap cut short. A run summary keeps its whole
	// list here, as Strings rendered it.
	Text []string
}

// Len counts the violations without rendering them.
func (v Violations) Len() int { return len(v.Faults) + len(v.Bounds) + len(v.Text) }

// Strings renders the list, faults then bounds then Text, into a new slice;
// nil when there are no violations. It is the one place an audit's
// violations become text.
func (v Violations) Strings() []string {
	if v.Len() == 0 {
		return nil
	}
	out := make([]string, 0, v.Len())
	for _, e := range v.Faults {
		out = append(out, e.String())
	}
	for _, b := range v.Bounds {
		out = append(out, b.Error())
	}
	return append(out, v.Text...)
}

// Admissible reports whether the run was fully admissible.
func (a Audit) Admissible() bool { return a.Verdict == VerdictAdmissible }

// Held reports whether the session guarantee held (possibly despite
// violations): the verdict is not broken.
func (a Audit) Held() bool { return a.Verdict != VerdictBroken }

// Silent reports the dangerous quadrant: the guarantee broke but the auditor
// recorded no violated assumption. A correct algorithm under a correct
// executor never produces this; the robustness sweeps assert it stays zero.
func (a Audit) Silent() bool { return a.Verdict == VerdictBroken && a.Violations.Len() == 0 }

// AuditTrace classifies one recorded computation. tr and delays are the
// executor's recorded outputs, sRequired is the spec's s, portsIdle reports
// whether every port process idled (false for runs cut short by the step cap
// or by a permanent port crash), and faults is the executor's applied-fault
// log. A nil trace (run died before producing one) has no sessions, so it
// is audited as broken.
func AuditTrace(m timing.Model, tr *model.Trace, delays []timing.MessageDelay, sRequired int, portsIdle bool, faults []Event) Audit {
	v := Violations{Faults: faults}
	if tr == nil {
		v.Text = []string{"no trace recorded"}
		return Classify(0, sRequired, portsIdle, v)
	}
	var err error
	if v.Bounds, err = m.AdmissibilityViolations(tr, delays); err != nil {
		v.Text = []string{err.Error()}
	}
	return Classify(tr.CountSessions(), sRequired, portsIdle, v)
}

// Classify builds the audit of one computation from its greedy session
// count and its violations. It is the one home of the verdict rules:
// AuditTrace classifies recorded traces with it, the audited core runners
// their online certifier's results. It counts the violations and renders
// none of them.
func Classify(sessions, sRequired int, portsIdle bool, v Violations) Audit {
	a := Audit{
		Violations:       v,
		SessionsAchieved: sessions,
		SessionsRequired: sRequired,
		PortsIdle:        portsIdle,
		FaultsInjected:   len(v.Faults),
	}
	switch {
	case sessions < sRequired || !portsIdle:
		a.Verdict = VerdictBroken
	case v.Len() == 0:
		a.Verdict = VerdictAdmissible
	default:
		a.Verdict = VerdictRecovered
	}
	return a
}
