// Package trace provides analysis and export utilities over recorded timed
// computations: session decompositions with boundaries and durations,
// per-process step statistics, and human-readable / JSON export for the CLI
// tools.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"sessionproblem/internal/model"
	"sessionproblem/internal/sim"
)

// SessionSpan describes one disjoint session in the greedy decomposition.
type SessionSpan struct {
	// Index is 1-based session number.
	Index int
	// FirstStep and LastStep are trace indices of the fragment boundaries
	// (the last step is the one completing the session).
	FirstStep, LastStep int
	// Start and End are the times of those steps.
	Start, End sim.Time
}

// Duration returns the time span of the session fragment.
func (s SessionSpan) Duration() sim.Duration { return s.End.Sub(s.Start) }

// Sessions computes the greedy disjoint-session decomposition with
// boundaries. The count equals Trace.CountSessions.
func Sessions(tr *model.Trace) []SessionSpan {
	if tr.NumPorts == 0 {
		return nil
	}
	var out []SessionSpan
	seen := make([]bool, tr.NumPorts)
	count := 0
	first := -1
	for i, st := range tr.Steps {
		if !st.IsPortStep() || seen[st.Port] {
			continue
		}
		if count == 0 {
			first = i
		}
		seen[st.Port] = true
		count++
		if count == tr.NumPorts {
			out = append(out, SessionSpan{
				Index:     len(out) + 1,
				FirstStep: first,
				LastStep:  i,
				Start:     tr.Steps[first].Time,
				End:       st.Time,
			})
			for j := range seen {
				seen[j] = false
			}
			count = 0
		}
	}
	return out
}

// PerSessionTimes returns the end-to-end gap between consecutive session
// completions (the per-session time the sporadic analysis reasons about).
// The first entry is the completion time of session 1.
func PerSessionTimes(tr *model.Trace) []sim.Duration {
	spans := Sessions(tr)
	out := make([]sim.Duration, len(spans))
	prev := sim.Time(0)
	for i, sp := range spans {
		out[i] = sp.End.Sub(prev)
		prev = sp.End
	}
	return out
}

// Render writes a human-readable listing of the trace: one line per step,
// followed by the session decomposition. Limit caps the number of step
// lines (0 = all).
func Render(w io.Writer, tr *model.Trace, limit int) error {
	for i, st := range tr.Steps {
		if limit > 0 && i >= limit {
			if _, err := fmt.Fprintf(w, "... (%d more steps)\n", len(tr.Steps)-limit); err != nil {
				return err
			}
			break
		}
		who := fmt.Sprintf("p%d", st.Proc)
		if st.Proc == model.NetworkProc {
			who = "net"
		}
		port := ""
		if st.IsPortStep() {
			port = fmt.Sprintf(" port=%d", st.Port)
		}
		vars := make([]string, 0, len(st.Accesses))
		for _, a := range st.Accesses {
			vars = append(vars, fmt.Sprintf("v%d", a.Var))
		}
		if _, err := fmt.Fprintf(w, "%6d  t=%-8v %-5s %s%s\n",
			i, st.Time, who, strings.Join(vars, ","), port); err != nil {
			return err
		}
	}
	spans := Sessions(tr)
	if _, err := fmt.Fprintf(w, "sessions: %d\n", len(spans)); err != nil {
		return err
	}
	for _, sp := range spans {
		if _, err := fmt.Fprintf(w, "  session %d: steps [%d,%d] time [%v,%v]\n",
			sp.Index, sp.FirstStep, sp.LastStep, sp.Start, sp.End); err != nil {
			return err
		}
	}
	return nil
}

// jsonStep is the export shape for one step.
type jsonStep struct {
	Index int   `json:"index"`
	Proc  int   `json:"proc"`
	Time  int64 `json:"time"`
	Port  int   `json:"port"`
	Vars  []int `json:"vars"`
}

// jsonTrace is the export shape for a trace.
type jsonTrace struct {
	NumProcs int            `json:"numProcs"`
	NumPorts int            `json:"numPorts"`
	Sessions int            `json:"sessions"`
	Rounds   int            `json:"rounds"`
	Finish   int64          `json:"finishTime"`
	Steps    []jsonStep     `json:"steps"`
	Spans    []jsonSpanJSON `json:"sessionSpans"`
}

type jsonSpanJSON struct {
	Index int   `json:"index"`
	First int   `json:"firstStep"`
	Last  int   `json:"lastStep"`
	Start int64 `json:"startTime"`
	End   int64 `json:"endTime"`
}

// WriteJSON exports the trace as JSON.
func WriteJSON(w io.Writer, tr *model.Trace) error {
	out := jsonTrace{
		NumProcs: tr.NumProcs,
		NumPorts: tr.NumPorts,
		Sessions: tr.CountSessions(),
		Rounds:   tr.CountRounds(),
		Finish:   int64(tr.FinishTime()),
	}
	for _, st := range tr.Steps {
		js := jsonStep{Index: st.Index, Proc: st.Proc, Time: int64(st.Time), Port: st.Port}
		for _, a := range st.Accesses {
			js.Vars = append(js.Vars, int(a.Var))
		}
		out.Steps = append(out.Steps, js)
	}
	for _, sp := range Sessions(tr) {
		out.Spans = append(out.Spans, jsonSpanJSON{
			Index: sp.Index, First: sp.FirstStep, Last: sp.LastStep,
			Start: int64(sp.Start), End: int64(sp.End),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
