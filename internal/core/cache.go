// Run caching. A simulator run is a pure function of its inputs: the
// algorithm, the problem spec, the timing model's constants, the scheduling
// strategy and seed, the fault plan and the step cap fully determine the
// computation (the executors are deterministic by construction; sessionlint
// enforces it). That makes verified runs content-addressable: RunKey renders
// the inputs as a full-fidelity string and RunSummary captures everything
// the harness and the facade read out of a report, with no pointers into the
// trace or into reusable scratch state, so a cached summary can be shared by
// any number of concurrent readers.

package core

import (
	"strconv"
	"strings"

	"sessionproblem/internal/fault"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
	"sessionproblem/internal/trace"
)

// RunSummary is the immutable digest of one run: every scalar the harness
// aggregates plus the audit and the session decomposition the facade
// reports. It deliberately omits the trace: only the traced runners record
// one, and it grows with the run's steps, so a cache holds what every runner
// reports and nothing that scales with the computation.
type RunSummary struct {
	// Algorithm and Model identify what ran.
	Algorithm string
	Model     timing.Kind
	// Spec is the problem instance.
	Spec Spec

	// Finish, Sessions, Rounds, Gamma and Messages mirror Report.
	Finish   sim.Time
	Sessions int
	Rounds   int
	Gamma    sim.Duration
	Messages int
	// Steps is Report.Steps() and Faults is len(Report.Faults).
	Steps  int
	Faults int

	// Audit is the fault auditor's classification (zero for plain runs).
	// Its violations are held as text, in Violations.Text: a private
	// rendering of the report's list, and the form the v1 codec stores.
	Audit fault.Audit

	// Spans is the greedy session decomposition of the computation.
	Spans []trace.SessionSpan
}

// Summarize digests a report into a cache-safe summary: all scalars are
// copied, the violations are rendered, and the session spans are taken
// from the trace when the report has one, else copied from the certifier's
// decomposition.
func Summarize(rep *Report) *RunSummary {
	sum := &RunSummary{
		Algorithm: rep.Algorithm,
		Model:     rep.Model,
		Spec:      rep.Spec,
		Finish:    rep.Finish,
		Sessions:  rep.Sessions,
		Rounds:    rep.Rounds,
		Gamma:     rep.Gamma,
		Messages:  rep.Messages,
		Steps:     rep.Steps(),
		Faults:    len(rep.Faults),
		Audit:     rep.Audit,
	}
	sum.Audit.Violations = fault.Violations{Text: rep.Audit.Violations.Strings()}
	if rep.Trace != nil {
		sum.Spans = trace.Sessions(rep.Trace)
	} else {
		// Trace-free run: the certifier computed the decomposition online.
		// Copied because the summary must not alias the counter's buffer.
		sum.Spans = append([]trace.SessionSpan(nil), rep.Spans...)
	}
	return sum
}

// RunKey renders a run's complete input tuple as a string: communication
// model, algorithm name, spec, every timing-model constant, strategy, seed,
// step cap, and (for fault-aware runs) every fault-plan parameter. Two runs
// with equal keys are guaranteed to produce identical reports; nothing is
// hashed away, so distinct inputs always produce distinct keys. plan is nil
// for runs without an injector.
func RunKey(comm, alg string, spec Spec, m timing.Model, st timing.Strategy, seed uint64, maxSteps int, plan *fault.Plan) string {
	var b strings.Builder
	b.Grow(128)
	b.WriteString(comm)
	b.WriteByte('|')
	b.WriteString(alg)
	b.WriteByte('|')
	keyInts(&b, int64(spec.S), int64(spec.N), int64(spec.B))
	keyInts(&b, int64(m.Kind),
		int64(m.C1), int64(m.C2), int64(m.D1), int64(m.D2),
		int64(m.PeriodMin), int64(m.PeriodMax), int64(m.GapCap))
	if m.StartSync {
		b.WriteString("ss|")
	}
	keyInts(&b, int64(st))
	b.WriteString(strconv.FormatUint(seed, 10))
	b.WriteByte('|')
	keyInts(&b, int64(maxSteps))
	if plan != nil {
		b.WriteString("f:")
		b.WriteString(strconv.FormatUint(plan.Seed, 10))
		b.WriteByte('|')
		// 'g'/-1 round-trips the float exactly; intensity is part of the
		// identity, not a display value.
		b.WriteString(strconv.FormatFloat(plan.Intensity, 'g', -1, 64))
		b.WriteByte('|')
		for _, k := range plan.Kinds {
			b.WriteString(strconv.Itoa(int(k)))
			b.WriteByte(',')
		}
		b.WriteByte('|')
		keyInts(&b, int64(plan.StepScale), int64(plan.DelayScale), int64(plan.MaxFaults))
	}
	return b.String()
}

func keyInts(b *strings.Builder, vs ...int64) {
	for _, v := range vs {
		b.WriteString(strconv.FormatInt(v, 10))
		b.WriteByte('|')
	}
}
