package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"sessionproblem/internal/model"
	"sessionproblem/internal/sim"
)

func mkTrace(n int, entries ...[3]int) *model.Trace {
	// entries: {proc, time, port}
	tr := &model.Trace{NumProcs: n, NumPorts: n}
	for i, e := range entries {
		tr.Steps = append(tr.Steps, model.Step{
			Index: i,
			Proc:  e[0],
			Time:  sim.Time(e[1]),
			Port:  e[2],
			Accesses: []model.VarAccess{
				{Var: model.VarID(e[0])},
			},
		})
	}
	return tr
}

func TestSessionsSpans(t *testing.T) {
	tr := mkTrace(2,
		[3]int{0, 1, 0},
		[3]int{1, 3, 1}, // session 1 completes
		[3]int{0, 5, 0},
		[3]int{0, 6, 0},
		[3]int{1, 9, 1}, // session 2 completes
	)
	spans := Sessions(tr)
	if len(spans) != 2 {
		t.Fatalf("spans: got %d, want 2", len(spans))
	}
	if spans[0].FirstStep != 0 || spans[0].LastStep != 1 || spans[0].Start != 1 || spans[0].End != 3 {
		t.Errorf("span 1 wrong: %+v", spans[0])
	}
	if spans[1].FirstStep != 2 || spans[1].LastStep != 4 || spans[1].End != 9 {
		t.Errorf("span 2 wrong: %+v", spans[1])
	}
	if spans[1].Duration() != 4 {
		t.Errorf("duration: got %v, want 4", spans[1].Duration())
	}
	if got := tr.CountSessions(); got != len(spans) {
		t.Errorf("span count %d != CountSessions %d", len(spans), got)
	}
}

func TestSessionsEmpty(t *testing.T) {
	if Sessions(&model.Trace{NumPorts: 0}) != nil {
		t.Error("no ports should yield nil spans")
	}
	tr := mkTrace(2, [3]int{0, 1, 0})
	if len(Sessions(tr)) != 0 {
		t.Error("incomplete session should yield no spans")
	}
}

func TestPerSessionTimes(t *testing.T) {
	tr := mkTrace(1,
		[3]int{0, 4, 0},
		[3]int{0, 10, 0},
	)
	times := PerSessionTimes(tr)
	if len(times) != 2 || times[0] != 4 || times[1] != 6 {
		t.Errorf("PerSessionTimes: got %v, want [4 6]", times)
	}
}

func TestRender(t *testing.T) {
	tr := mkTrace(2,
		[3]int{0, 1, 0},
		[3]int{1, 2, 1},
	)
	var buf bytes.Buffer
	if err := Render(&buf, tr, 0); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"p0", "p1", "port=0", "sessions: 1", "session 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderLimit(t *testing.T) {
	tr := mkTrace(1,
		[3]int{0, 1, 0}, [3]int{0, 2, 0}, [3]int{0, 3, 0},
	)
	var buf bytes.Buffer
	if err := Render(&buf, tr, 1); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "2 more steps") {
		t.Errorf("limit notice missing:\n%s", buf.String())
	}
}

func TestRenderNetworkSteps(t *testing.T) {
	tr := &model.Trace{NumProcs: 1, NumPorts: 1}
	tr.Steps = append(tr.Steps, model.Step{
		Index: 0, Proc: model.NetworkProc, Time: 1, Port: model.NoPort,
		Accesses: []model.VarAccess{{Var: 3}},
	})
	var buf bytes.Buffer
	if err := Render(&buf, tr, 0); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "net") {
		t.Errorf("network step not labeled:\n%s", buf.String())
	}
}

func TestTimeline(t *testing.T) {
	tr := mkTrace(2,
		[3]int{0, 0, 0},
		[3]int{1, 5, 1},
		[3]int{0, 10, 0},
		[3]int{1, 19, 1},
	)
	var buf bytes.Buffer
	if err := Timeline(&buf, tr, 20); err != nil {
		t.Fatalf("Timeline: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "p0") || !strings.Contains(out, "p1") {
		t.Errorf("missing process rows:\n%s", out)
	}
	procGlyphs := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "p") {
			procGlyphs += strings.Count(line, "O")
		}
	}
	if procGlyphs != 4 {
		t.Errorf("want 4 port-step glyphs, got %d:\n%s", procGlyphs, out)
	}
	if !strings.Contains(out, "|") {
		t.Errorf("missing session boundary:\n%s", out)
	}
}

func TestTimelineWithNetwork(t *testing.T) {
	tr := &model.Trace{NumProcs: 1, NumPorts: 1}
	tr.Steps = []model.Step{
		{Index: 0, Proc: 0, Time: 0, Port: 0},
		{Index: 1, Proc: model.NetworkProc, Time: 3, Port: model.NoPort,
			Accesses: []model.VarAccess{{Var: 1}}},
		{Index: 2, Proc: 0, Time: 6, Port: 0},
	}
	var buf bytes.Buffer
	if err := Timeline(&buf, tr, 12); err != nil {
		t.Fatalf("Timeline: %v", err)
	}
	if !strings.Contains(buf.String(), "net") {
		t.Errorf("missing net row:\n%s", buf.String())
	}
}

func TestTimelineEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Timeline(&buf, &model.Trace{NumProcs: 1}, 20); err != nil {
		t.Fatalf("Timeline: %v", err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Error("empty trace not reported")
	}
}

func TestWriteJSON(t *testing.T) {
	tr := mkTrace(2,
		[3]int{0, 1, 0},
		[3]int{1, 2, 1},
	)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, tr); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded["sessions"].(float64) != 1 {
		t.Errorf("sessions: got %v", decoded["sessions"])
	}
	if decoded["numProcs"].(float64) != 2 {
		t.Errorf("numProcs: got %v", decoded["numProcs"])
	}
	steps := decoded["steps"].([]any)
	if len(steps) != 2 {
		t.Errorf("steps: got %d", len(steps))
	}
}
