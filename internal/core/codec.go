// Versioned serialization of run summaries. The disk-persistent cache tier
// (internal/diskcache) stores RunSummary values across process lifetimes,
// and the crash-recovery journal (internal/journal) replays them into the
// cache on resume, so the encoding must be explicit about its own version
// and independent of incidental struct layout: every field is spelled out
// with a stable JSON name, and a version bump is the only sanctioned way to
// change the shape. Decoding a summary written by a different codec version
// fails, which a cache treats as a miss and a journal load skips — stale
// formats degrade to work, never to wrong answers.

package core

import (
	"encoding/json"
	"fmt"

	"sessionproblem/internal/fault"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
	"sessionproblem/internal/trace"
)

// SummaryCodecVersion is the current on-disk summary format version.
const SummaryCodecVersion = 1

// summaryJSON is the v1 wire shape of a RunSummary.
type summaryJSON struct {
	V         int        `json:"v"`
	Algorithm string     `json:"alg"`
	Model     int        `json:"model"`
	SpecS     int        `json:"s"`
	SpecN     int        `json:"n"`
	SpecB     int        `json:"b,omitempty"`
	Finish    int64      `json:"finish"`
	Sessions  int        `json:"sessions"`
	Rounds    int        `json:"rounds,omitempty"`
	Gamma     int64      `json:"gamma,omitempty"`
	Messages  int        `json:"messages,omitempty"`
	Steps     int        `json:"steps,omitempty"`
	Faults    int        `json:"faults,omitempty"`
	Audit     auditJSON  `json:"audit"`
	Spans     []spanJSON `json:"spans,omitempty"`
}

type auditJSON struct {
	Verdict    int      `json:"verdict,omitempty"`
	Violations []string `json:"violations,omitempty"`
	// First repeats Violations[0]; the v1 format keeps it, and the
	// decoder reads the list.
	First     string `json:"first,omitempty"`
	Achieved  int    `json:"achieved,omitempty"`
	Required  int    `json:"required,omitempty"`
	PortsIdle bool   `json:"portsIdle,omitempty"`
	Injected  int    `json:"injected,omitempty"`
}

type spanJSON struct {
	Index     int   `json:"i"`
	FirstStep int   `json:"fs"`
	LastStep  int   `json:"ls"`
	Start     int64 `json:"start"`
	End       int64 `json:"end"`
}

// EncodeSummary renders a summary in the current versioned format.
func EncodeSummary(sum *RunSummary) ([]byte, error) {
	if sum == nil {
		return nil, fmt.Errorf("core: cannot encode a nil summary")
	}
	violations := sum.Audit.Violations.Strings()
	w := summaryJSON{
		V:         SummaryCodecVersion,
		Algorithm: sum.Algorithm,
		Model:     int(sum.Model),
		SpecS:     sum.Spec.S,
		SpecN:     sum.Spec.N,
		SpecB:     sum.Spec.B,
		Finish:    int64(sum.Finish),
		Sessions:  sum.Sessions,
		Rounds:    sum.Rounds,
		Gamma:     int64(sum.Gamma),
		Messages:  sum.Messages,
		Steps:     sum.Steps,
		Faults:    sum.Faults,
		Audit: auditJSON{
			Verdict:    int(sum.Audit.Verdict),
			Violations: violations,
			Achieved:   sum.Audit.SessionsAchieved,
			Required:   sum.Audit.SessionsRequired,
			PortsIdle:  sum.Audit.PortsIdle,
			Injected:   sum.Audit.FaultsInjected,
		},
	}
	if len(violations) > 0 {
		w.Audit.First = violations[0]
	}
	for _, sp := range sum.Spans {
		w.Spans = append(w.Spans, spanJSON{
			Index: sp.Index, FirstStep: sp.FirstStep, LastStep: sp.LastStep,
			Start: int64(sp.Start), End: int64(sp.End),
		})
	}
	return json.Marshal(w)
}

// DecodeSummary parses a summary previously written by EncodeSummary. A
// malformed payload or a version other than SummaryCodecVersion is an error;
// callers (the disk cache) treat it as a miss and recompute.
func DecodeSummary(data []byte) (*RunSummary, error) {
	var w summaryJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("core: decode summary: %w", err)
	}
	if w.V != SummaryCodecVersion {
		return nil, fmt.Errorf("core: summary codec version %d, want %d", w.V, SummaryCodecVersion)
	}
	sum := &RunSummary{
		Algorithm: w.Algorithm,
		Model:     timing.Kind(w.Model),
		Spec:      Spec{S: w.SpecS, N: w.SpecN, B: w.SpecB},
		Finish:    sim.Time(w.Finish),
		Sessions:  w.Sessions,
		Rounds:    w.Rounds,
		Gamma:     sim.Duration(w.Gamma),
		Messages:  w.Messages,
		Steps:     w.Steps,
		Faults:    w.Faults,
		Audit: fault.Audit{
			Verdict:          fault.Verdict(w.Audit.Verdict),
			Violations:       fault.Violations{Text: w.Audit.Violations},
			SessionsAchieved: w.Audit.Achieved,
			SessionsRequired: w.Audit.Required,
			PortsIdle:        w.Audit.PortsIdle,
			FaultsInjected:   w.Audit.Injected,
		},
	}
	for _, sp := range w.Spans {
		sum.Spans = append(sum.Spans, trace.SessionSpan{
			Index: sp.Index, FirstStep: sp.FirstStep, LastStep: sp.LastStep,
			Start: sim.Time(sp.Start), End: sim.Time(sp.End),
		})
	}
	return sum, nil
}
