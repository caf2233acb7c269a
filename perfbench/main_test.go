package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sessionproblem"
	"sessionproblem/wire"
)

// TestMain lets the artifacts set-up probe and pass pairs, which
// re-execute the running binary with --probe-start or --pass-pair, work
// under go test.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "--probe-start" || a == "--pass-pair" {
			os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must match.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesMetrics holds BENCHMARK.json and the metric lists
// the program prints in step, name for name and unit for unit.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != "artifacts,service,scale" {
		t.Errorf("workloads %s, want artifacts,service,scale", got)
	}
	check := func(kind string, file []struct{ Name, Unit string }, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(prog))
		}
		for i := 0; i < len(file) && i < len(prog); i++ {
			if file[i].Name != prog[i].name || file[i].Unit != prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, i, file[i].Name, file[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	if len(bf.Paths) != 1 || bf.Paths[0] != "perfbench" {
		t.Errorf("paths %v, want [perfbench]", bf.Paths)
	}
	if len(bf.Command) < 2 || bf.Command[1] != "perfbench/run.sh" {
		t.Errorf("command %v does not run perfbench/run.sh", bf.Command)
	}
}

// buildSessiond builds the daemon the service workload drives.
func buildSessiond(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sessiond")
	cmd := exec.Command("go", "build", "-o", bin, "sessionproblem/cmd/sessiond")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building sessiond: %v\n%s", err, out)
	}
	return bin
}

// lastLine runs the benchmark and decodes the last line of its output.
func lastLine(t *testing.T, args ...string) map[string]json.RawMessage {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("perfbench %v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line: %v\n%s", err, stdout.String())
	}
	return res
}

// TestToyWorkloadsPrintEveryMetric runs every workload at toy size, traced
// and untraced, and checks the result line: exactly the four keys, a
// correct run, and every metric of BENCHMARK.json with its unit.
func TestToyWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	sessiond := buildSessiond(t)
	state := t.TempDir()
	for _, w := range []string{"artifacts", "service", "scale"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				res := lastLine(t, "--workload", w, "--seed", "3", "--seconds", "1", "--trace", trace,
					"--toy", "--sessiond", sessiond, "--state-dir", state)
				if len(res) != 4 {
					t.Errorf("result has %d keys, want correct, attempted, failed, metrics", len(res))
				}
				var correct bool
				var attempted, failed int
				var metrics map[string]metricValue
				for k, dst := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
					if err := json.Unmarshal(res[k], dst); err != nil {
						t.Fatalf("%s: %v", k, err)
					}
				}
				if !correct || failed != 0 || attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", correct, attempted, failed)
				}
				want := bf.EndToEnd
				if trace == "1" {
					want = bf.PerLayer
				}
				if len(metrics) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(metrics), len(want))
				}
				for _, m := range want {
					got, ok := metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s printed in %q, want %q", m.Name, got.Unit, m.Unit)
					case trace == "0" && !(got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want a positive measurement", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestTamperedReplyCountsAsFailure serves a flipped byte in the second
// reply to the same body: the repeat is no longer byte-identical to the
// first reply, so the run is not correct.
func TestTamperedReplyCountsAsFailure(t *testing.T) {
	rep := &sessionproblem.Report{Algorithm: "periodic", Model: "periodic", Finish: 42, Sessions: 3, Steps: 10, Verdict: "admissible", Admissible: true, Attempts: 1}
	env, err := wire.MarshalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	env = append(env, '\n')
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := append([]byte(nil), env...)
		if served.Add(1) == 2 {
			i := bytes.Index(body, []byte("42"))
			body[i] = '7' // still a valid envelope, but not the same bytes
		}
		w.Write(body)
	}))
	defer srv.Close()

	ws := &workloadStream{
		bodies: []entry{{endpoint: "solve", data: []byte(`{}`)}},
		calls:  []call{{body: 0, cold: true}, {body: 0}, {body: 0}},
		dryAt:  -1,
	}
	d := newDrive(ws, 1, nil)
	for pos := range ws.calls {
		if err := d.send(srv.URL, pos); err != nil {
			t.Fatal(err)
		}
	}
	// toy: three requests are too few for the sample minimums.
	res := &driveResult{d: d, wall: time.Second, starts: []float64{0.01}, toy: true}
	out := newOutcome(options{})
	res.report(out)
	if out.failed != 1 || out.attempted != 3 || out.correct() {
		t.Errorf("failed=%d attempted=%d correct=%v, want the tampered reply alone to fail", out.failed, out.attempted, out.correct())
	}
}

// TestWrongVerdictCountsAsFailure forces a Table-1 verdict to VIOLATION:
// the artifact call fails its check and the run is not correct.
func TestWrongVerdictCountsAsFailure(t *testing.T) {
	res, err := sessionproblem.Table1(context.Background(), sessionproblem.WithSpec(2, 2), sessionproblem.WithSeeds(1))
	if err != nil {
		t.Fatal(err)
	}
	if r, err := tableResult(res); err != nil || len(r.problems) != 0 {
		t.Fatalf("untampered table: problems %v, err %v", r.problems, err)
	}
	res.Cells[0].Verdict = "VIOLATION"
	list := []artifact{{name: "table1", run: func(context.Context, callMode) (callResult, error) { return tableResult(res) }}}
	out := newOutcome(options{})
	if _, err := runPass(context.Background(), list, callMode{}, out); err != nil {
		t.Fatal(err)
	}
	if out.failed != 1 || out.correct() {
		t.Errorf("failed=%d correct=%v, want the forced verdict to fail the run", out.failed, out.correct())
	}
}

// TestChangedWorkCountsFail records exact counts for a seed and then
// presents different ones for the same build and seed: the run fails.
func TestChangedWorkCountsFail(t *testing.T) {
	o := options{workload: "scale", seed: 7, stateDir: t.TempDir()}
	first := newOutcome(o)
	first.counts["steps"] = 100
	if err := first.checkCounts(o); err != nil || first.failed != 0 {
		t.Fatalf("recording counts: err %v, failed %d", err, first.failed)
	}
	same := newOutcome(o)
	same.counts["steps"] = 100
	if err := same.checkCounts(o); err != nil || same.failed != 0 {
		t.Fatalf("repeating counts: err %v, failed %d", err, same.failed)
	}
	changed := newOutcome(o)
	changed.counts["steps"] = 101
	if err := changed.checkCounts(o); err != nil {
		t.Fatal(err)
	}
	if changed.correct() || changed.failed != 1 {
		t.Errorf("changed counts: correct=%v failed=%d", changed.correct(), changed.failed)
	}
}

// TestGenerateIsSeeded checks that the request sequence is a function of
// the seed alone, and that repeats only follow their body's first use.
func TestGenerateIsSeeded(t *testing.T) {
	a, err := generate(11, 5000, false)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generate(11, 5000, false)
	c, _ := generate(12, 5000, false)
	same := func(x, y *workloadStream) bool {
		if len(x.calls) != len(y.calls) || len(x.bodies) != len(y.bodies) {
			return false
		}
		for i := range x.calls {
			if x.calls[i] != y.calls[i] || !bytes.Equal(x.bodies[x.calls[i].body].data, y.bodies[y.calls[i].body].data) {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("the same seed gave two different sequences")
	}
	if same(a, c) {
		t.Error("two seeds gave the same sequence")
	}
	introduced := make([]bool, len(a.bodies))
	cold := 0
	for i, c := range a.calls {
		if c.cold == introduced[c.body] {
			t.Fatalf("call %d: cold=%v but body introduced=%v", i, c.cold, introduced[c.body])
		}
		introduced[c.body] = true
		if c.cold {
			cold++
		}
	}
	if share := float64(cold) / float64(len(a.calls)); share < coldShare/2 || share > coldShare*2 {
		t.Errorf("cold share %.3f, want about %.3f", share, coldShare)
	}
}

// TestTooFewSamplesFail checks that a service run whose percentiles rest
// on fewer samples than the minimums, or whose catalogue ran dry while it
// was sending, is not correct.
func TestTooFewSamplesFail(t *testing.T) {
	ws := &workloadStream{
		bodies: []entry{{endpoint: "solve"}},
		calls:  make([]call, 10),
		dryAt:  -1,
	}
	d := newDrive(ws, 1, nil)
	d.next.Store(10)
	for i := 0; i < minWarmSamples-1; i++ {
		d.lat.add(true, time.Millisecond)
	}
	for i := 0; i < minColdSamples; i++ {
		d.lat.add(false, time.Millisecond)
	}
	res := &driveResult{d: d, wall: time.Second, starts: []float64{0.01}}
	out := newOutcome(options{})
	res.checkSamples(out)
	if out.failed != 1 {
		t.Errorf("one warm sample short: failed=%d, want 1", out.failed)
	}
	d.lat.add(true, time.Millisecond)
	ws.dryAt, ws.dryClass = 9, "hierarchy"
	out = newOutcome(options{})
	res.checkSamples(out)
	if out.failed != 1 {
		t.Errorf("catalogue dry at request 9 of 10: failed=%d, want 1", out.failed)
	}
	ws.dryAt = 10
	out = newOutcome(options{})
	res.checkSamples(out)
	if out.failed != 0 {
		t.Errorf("catalogue dry only past the requests sent: failed=%d, want 0", out.failed)
	}
}

// TestCatalogueCoversSequence checks that no class of the catalogue runs
// dry within a whole request sequence, at full and at toy size.
func TestCatalogueCoversSequence(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, toy := range []bool{false, true} {
			n := sequenceLen
			if toy {
				n = toySequenceLen
			}
			ws, err := generate(seed, n, toy)
			if err != nil {
				t.Fatal(err)
			}
			if ws.dryAt >= 0 {
				t.Errorf("seed %d toy %v: the %s bodies run out at request %d of %d", seed, toy, ws.dryClass, ws.dryAt, n)
			}
		}
	}
}

// TestStratifiedOrderSpansCost checks that the introduction order of a
// class is a permutation of it whose first round takes one body from every
// cost stratum, starting with the middle one.
func TestStratifiedOrderSpansCost(t *testing.T) {
	cat := catalogue(false)
	es := cat[classHierarchy]
	order := stratifiedOrder(slices.Clone(es), rand.New(rand.NewPCG(1, 2)))
	if len(order) != len(es) {
		t.Fatalf("%d bodies ordered, want %d", len(order), len(es))
	}
	seen := make(map[string]bool)
	for _, e := range order {
		key, _ := json.Marshal(e.rq)
		seen[string(key)] = true
	}
	if len(seen) != len(es) {
		t.Errorf("%d distinct bodies ordered, want %d", len(seen), len(es))
	}
	costs := make([]float64, len(es))
	for i, e := range es {
		costs[i] = costProxy(e.rq)
	}
	slices.Sort(costs)
	per := len(es) / strata
	first, mid := costProxy(order[0].rq), costs[len(costs)/2]
	if first < costs[len(costs)/3] || first > costs[2*len(costs)/3] {
		t.Errorf("first body costs %.1f, want near the middle %.1f", first, mid)
	}
	var lo, hi bool // the first round reaches both ends of the range
	for _, e := range order[:strata] {
		c := costProxy(e.rq)
		lo = lo || c <= costs[per]
		hi = hi || c >= costs[len(costs)-per-1]
	}
	if !lo || !hi {
		t.Errorf("the first %d bodies miss an end of the cost range (low %v, high %v)", strata, lo, hi)
	}
}

// TestCatalogueIsValid answers every catalogue body in-process through the
// facade, as the traced replay does: none may fail.
func TestCatalogueIsValid(t *testing.T) {
	if testing.Short() {
		t.Skip("answers the whole catalogue")
	}
	cache := sessionproblem.NewRunCache()
	rec := newRecorder()
	for c, es := range catalogue(false) {
		for i, e := range es {
			e.rq.Journal = "" // the journal is the daemon's; the answer is the same
			if _, _, _, err := callFacade(context.Background(), &e, facadeOptions(e.rq, cache), rec, int64(i)); err != nil {
				t.Errorf("%s %+v: %v", classes[c].name, e.rq, err)
			}
		}
	}
}
