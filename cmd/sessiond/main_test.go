package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sessionproblem"
	"sessionproblem/wire"
)

const smallBody = `{"s":2,"n":2,"seeds":1}`

func newTestServer(t *testing.T, cacheDir string) *httptest.Server {
	t.Helper()
	ts, _ := newTestServerJournal(t, cacheDir, "")
	return ts
}

func newTestServerJournal(t *testing.T, cacheDir, journalDir string) (*httptest.Server, *server) {
	t.Helper()
	srv, err := newServer(cacheDir, journalDir, 0, 0)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s response: %v", path, err)
	}
	return resp.StatusCode, data
}

func getStats(t *testing.T, ts *httptest.Server) statsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	return st
}

// The daemon's response must be byte-identical to the library path that the
// CLI -json flags print: the wire envelope plus one trailing newline.
func TestTable1MatchesLibrary(t *testing.T) {
	ts := newTestServer(t, "")
	status, got := post(t, ts, "/v1/table1", smallBody)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	res, err := sessionproblem.Table1(context.Background(),
		sessionproblem.WithSpec(2, 2), sessionproblem.WithSeeds(1))
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	want, err := wire.MarshalTable(res.Cells)
	if err != nil {
		t.Fatalf("MarshalTable: %v", err)
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("daemon response differs from library:\ndaemon: %s\nlib:    %s", got, want)
	}
}

func TestStatsMemBlock(t *testing.T) {
	ts := newTestServer(t, "")
	// Exercise a run first so the heap numbers describe a working daemon.
	if status, body := post(t, ts, "/v1/table1", smallBody); status != http.StatusOK {
		t.Fatalf("table1 status %d: %s", status, body)
	}
	st := getStats(t, ts)
	if st.Mem.HeapAllocBytes == 0 {
		t.Error("mem.heapAllocBytes = 0, want live heap")
	}
	if st.Mem.HeapInuseBytes < st.Mem.HeapAllocBytes {
		t.Errorf("mem.heapInuseBytes %d < heapAllocBytes %d", st.Mem.HeapInuseBytes, st.Mem.HeapAllocBytes)
	}
	if st.Mem.KnowledgeWords < 0 {
		t.Errorf("mem.knowledgeWords = %d, want >= 0", st.Mem.KnowledgeWords)
	}
}

func TestSolveMatchesLibrary(t *testing.T) {
	ts := newTestServer(t, "")
	body := `{"s":3,"n":4,"model":"periodic","comm":"mp","strategy":"slow","seed":7}`
	status, got := post(t, ts, "/v1/solve", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	rep, err := sessionproblem.Solve(context.Background(),
		sessionproblem.Periodic, sessionproblem.MessagePassing,
		sessionproblem.WithSpec(3, 4), sessionproblem.WithSchedule("slow", 7))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want, err := wire.MarshalReport(rep)
	if err != nil {
		t.Fatalf("MarshalReport: %v", err)
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("daemon response differs from library:\ndaemon: %s\nlib:    %s", got, want)
	}
}

func TestHierarchyAndSweep(t *testing.T) {
	ts := newTestServer(t, "")
	status, data := post(t, ts, "/v1/hierarchy", smallBody)
	if status != http.StatusOK {
		t.Fatalf("hierarchy status %d: %s", status, data)
	}
	var h wire.Hierarchy
	if err := json.Unmarshal(data, &h); err != nil || len(h.Rows) == 0 {
		t.Fatalf("hierarchy envelope: err=%v rows=%d", err, len(h.Rows))
	}
	status, data = post(t, ts, "/v1/sweep",
		`{"s":3,"n":2,"seeds":1,"kind":"sporadic-delay","steps":3}`)
	if status != http.StatusOK {
		t.Fatalf("sweep status %d: %s", status, data)
	}
	var sw wire.Sweep
	if err := json.Unmarshal(data, &sw); err != nil || len(sw.Points) != 3 {
		t.Fatalf("sweep envelope: err=%v points=%d", err, len(sw.Points))
	}
}

// ?stream=1 interleaves per-run progress events and finishes with the exact
// bytes the non-streaming path would have sent.
func TestStreamingSolve(t *testing.T) {
	ts := newTestServer(t, "")
	_, plain := post(t, ts, "/v1/solve", smallBody)
	status, streamed := post(t, ts, "/v1/solve?stream=1", smallBody)
	if status != http.StatusOK {
		t.Fatalf("stream status %d: %s", status, streamed)
	}
	lines := strings.Split(strings.TrimSuffix(string(streamed), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("want progress lines plus a result, got %d lines: %s", len(lines), streamed)
	}
	for _, line := range lines[:len(lines)-1] {
		var ev progressEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("progress line %q: %v", line, err)
		}
		if ev.V != wire.Version || ev.Kind != "progress" || ev.Err != "" {
			t.Fatalf("unexpected progress event: %+v", ev)
		}
	}
	if got := lines[len(lines)-1] + "\n"; got != string(plain) {
		t.Fatalf("streamed result differs from plain response:\nstream: %s\nplain:  %s", got, plain)
	}
}

func TestStreamingTable1EmitsEveryRun(t *testing.T) {
	ts := newTestServer(t, "")
	status, streamed := post(t, ts, "/v1/table1?stream=1", smallBody)
	if status != http.StatusOK {
		t.Fatalf("stream status %d: %s", status, streamed)
	}
	lines := strings.Split(strings.TrimSuffix(string(streamed), "\n"), "\n")
	// 10 cells x 5 strategies x 1 seed runs (some cells share runs via the
	// in-call dedup, but there is always more than one) plus the result.
	if len(lines) < 5 {
		t.Fatalf("suspiciously few stream lines: %d", len(lines))
	}
	var tbl wire.Table
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tbl); err != nil {
		t.Fatalf("final stream line is not the table envelope: %v", err)
	}
}

// A second identical request must be served from the shared cache, and a
// daemon restart on the same directory must serve from disk.
func TestStatsReportCacheReuseAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ts := newTestServer(t, dir)
	post(t, ts, "/v1/table1", smallBody)
	cold := getStats(t, ts)
	if cold.Cache.Misses == 0 || !cold.DiskCache {
		t.Fatalf("cold stats: %+v", cold)
	}
	post(t, ts, "/v1/table1", smallBody)
	warm := getStats(t, ts)
	if warm.Cache.Hits <= cold.Cache.Hits {
		t.Fatalf("second request did not hit the cache: cold=%+v warm=%+v", cold, warm)
	}
	if warm.Requests != 2 { // the two POSTs; GET /v1/stats is not counted
		t.Fatalf("requests: got %d, want 2: %+v", warm.Requests, warm)
	}
	ts.Close()

	ts2 := newTestServer(t, dir)
	post(t, ts2, "/v1/table1", smallBody)
	restarted := getStats(t, ts2)
	if restarted.Cache.DiskHits == 0 {
		t.Fatalf("restarted daemon did not hit the disk cache: %+v", restarted)
	}
	if restarted.Cache.DiskEntries == 0 {
		t.Fatalf("disk entries: %+v", restarted)
	}
}

// Concurrent clients asking the same question get byte-identical answers,
// with the shared cache absorbing the duplicate work.
func TestConcurrentClientsByteIdentical(t *testing.T) {
	ts := newTestServer(t, t.TempDir())
	const clients = 8
	results := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/table1", "application/json", strings.NewReader(smallBody))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				results[i], _ = io.ReadAll(resp.Body)
			}
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r == nil {
			t.Fatalf("client %d failed", i)
		}
		if !bytes.Equal(r, results[0]) {
			t.Fatalf("client %d got a different answer", i)
		}
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t, "")
	cases := []struct {
		path, body string
		status     int
	}{
		{"/v1/table1", `{"bogus":1}`, http.StatusBadRequest},
		// The streaming-certification field is gone: now an unknown field.
		{"/v1/table1", `{"s":2,"n":2,"seeds":2,"streamCertify":true}`, http.StatusBadRequest},
		{"/v1/table1", `not json`, http.StatusBadRequest},
		{"/v1/sweep", `{"kind":"warp-drive"}`, http.StatusBadRequest},
		{"/v1/sweep", `{"kind":"periodic-vs-sporadic"}`, http.StatusUnprocessableEntity}, // needs cmaxs
		{"/v1/solve", `{"model":"quantum"}`, http.StatusUnprocessableEntity},
		{"/v1/solve", `{"strategy":"warp"}`, http.StatusUnprocessableEntity},
		{"/v1/table1", `{"s":2,"n":2,"seeds":-1}`, http.StatusUnprocessableEntity},
		{"/v1/sweep", `{"kind":"sporadic-delay","seeds":-1}`, http.StatusUnprocessableEntity},
		{"/v1/table1", `{"s":2,"n":2,"b":1}`, http.StatusUnprocessableEntity},
		{"/v1/table1", `{"s":2,"n":0}`, http.StatusUnprocessableEntity},
		// One JSON object per body: anything but whitespace after it is
		// rejected before any run starts.
		{"/v1/table1", `{"s":2,"n":2,"seeds":1}garbage`, http.StatusBadRequest},
		{"/v1/table1", `{"s":2}]`, http.StatusBadRequest},
		{"/v1/solve", `{"s":2} {"s":3}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, data := post(t, ts, tc.path, tc.body)
		if status != tc.status {
			t.Errorf("POST %s %s: status %d want %d (%s)", tc.path, tc.body, status, tc.status, data)
		}
		var e struct {
			Kind  string `json:"kind"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil || e.Kind != "error" || e.Error == "" {
			t.Errorf("POST %s %s: malformed error body %s", tc.path, tc.body, data)
		}
	}
}

// An empty body means "all defaults"; decode must accept it without running
// the (expensive) default-sized analysis here.
func TestDecodeRequestDefaults(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/v1/table1", strings.NewReader(""))
	rq, err := decodeRequest(httptest.NewRecorder(), r)
	if err != nil {
		t.Fatalf("empty body: %v", err)
	}
	if def := defaultRequest(); rq.S != def.S || rq.N != def.N || rq.Seeds != def.Seeds {
		t.Fatalf("empty body should yield the defaults: %+v", rq)
	}
	r = httptest.NewRequest(http.MethodPost, "/v1/table1", strings.NewReader(`{"s":2}`))
	rq, err = decodeRequest(httptest.NewRecorder(), r)
	if err != nil {
		t.Fatalf("partial body: %v", err)
	}
	if rq.S != 2 || rq.N != defaultRequest().N {
		t.Fatalf("partial body should overlay the defaults: %+v", rq)
	}
}

func TestUnusableCacheDirFailsStartup(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newServer(file, "", 0, 0); err == nil {
		t.Fatal("newServer accepted a regular file as cache dir")
	}
}

// A panicking handler must answer a structured 500 and leave the daemon
// serving subsequent requests — the recover middleware's whole job.
func TestPanickingHandlerLeavesDaemonServing(t *testing.T) {
	srv, err := newServer("", "", 0, 0)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/panic", srv.recovered(func(http.ResponseWriter, *http.Request) {
		panic("deliberate test panic")
	}))
	mux.HandleFunc("GET /v1/stats", srv.recovered(srv.handleStats))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/panic", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatalf("POST /v1/panic: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500 (%s)", resp.StatusCode, data)
	}
	var e struct {
		V     int    `json:"v"`
		Kind  string `json:"kind"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil || e.Kind != "error" || e.V != wire.Version ||
		!strings.Contains(e.Error, "deliberate test panic") {
		t.Fatalf("panic response is not a v1 error envelope: %s", data)
	}

	// The daemon must still answer.
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats after panic: %v", err)
	}
	var st statsResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats after panic: status %d err %v", resp.StatusCode, err)
	}
	if st.Panics != 1 {
		t.Fatalf("panics counter = %d, want 1", st.Panics)
	}
}

// Request bodies are capped; an oversized one must come back as 413 with an
// error envelope, not be read to the end.
func TestOversizedBodyIs413(t *testing.T) {
	ts := newTestServer(t, "")
	big := `{"s":2,"pad":"` + strings.Repeat("x", maxRequestBody) + `"}`
	status, data := post(t, ts, "/v1/table1", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413 (%.80s)", status, data)
	}
	var e struct {
		Kind  string `json:"kind"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil || e.Kind != "error" || e.Error == "" {
		t.Fatalf("413 body is not an error envelope: %s", data)
	}
}

// A request naming a journal gets its runs journaled crash-safely, the
// response stays byte-identical to the unjournaled path, and /v1/repair
// fixes a damaged tail.
func TestJournaledRequestAndRepair(t *testing.T) {
	jdir := t.TempDir()
	ts, _ := newTestServerJournal(t, "", jdir)

	// Journaled request first: its runs are cache misses, so each completed
	// run lands in the journal. (The journal records work performed; a
	// request served entirely from the shared cache has nothing to journal.)
	jbody := `{"s":2,"n":2,"seeds":1,"journal":"t1"}`
	status, journaled := post(t, ts, "/v1/solve", jbody)
	if status != http.StatusOK {
		t.Fatalf("journaled solve: status %d: %s", status, journaled)
	}
	_, plain := post(t, ts, "/v1/solve", smallBody)
	if !bytes.Equal(plain, journaled) {
		t.Fatalf("journaled response differs from plain:\njournal: %s\nplain:   %s", journaled, plain)
	}
	jpath := filepath.Join(jdir, "t1.journal")
	if fi, err := os.Stat(jpath); err != nil || fi.Size() == 0 {
		t.Fatalf("journal file after journaled request: %v (size %v)", err, fi)
	}

	// Damage the tail; /v1/repair must truncate it and say so.
	if err := appendBytes(jpath, []byte("torn tail")); err != nil {
		t.Fatal(err)
	}
	status, data := post(t, ts, "/v1/repair", `{"journal":"t1"}`)
	if status != http.StatusOK {
		t.Fatalf("repair: status %d: %s", status, data)
	}
	rep, err := wire.UnmarshalRepair(data)
	if err != nil {
		t.Fatalf("repair envelope: %v (%s)", err, data)
	}
	if !rep.Truncated || rep.DroppedBytes != int64(len("torn tail")) || rep.Frames == 0 {
		t.Fatalf("repair outcome: %+v", rep)
	}

	// The repaired journal resumes: same request, same bytes.
	status, again := post(t, ts, "/v1/solve", jbody)
	if status != http.StatusOK || !bytes.Equal(again, plain) {
		t.Fatalf("resumed journaled solve: status %d\ngot:  %s\nwant: %s", status, again, plain)
	}

	st := getStats(t, ts)
	if !st.Journal.Enabled || st.Journal.Requests != 2 || st.Journal.Repairs != 1 {
		t.Fatalf("journal stats: %+v", st.Journal)
	}
}

func appendBytes(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(b)
	return err
}

func TestJournalRequestErrors(t *testing.T) {
	// Journaling disabled: naming a journal is a client error.
	ts := newTestServer(t, "")
	if status, _ := post(t, ts, "/v1/solve", `{"journal":"x"}`); status != http.StatusBadRequest {
		t.Fatalf("journal without -journal-dir: status %d, want 400", status)
	}
	if status, _ := post(t, ts, "/v1/repair", `{"journal":"x"}`); status != http.StatusBadRequest {
		t.Fatalf("repair without -journal-dir: status %d, want 400", status)
	}

	tsj, _ := newTestServerJournal(t, "", t.TempDir())
	cases := []struct {
		body   string
		status int
	}{
		{`{}`, http.StatusBadRequest},                      // repair needs a name
		{`{"journal":"../escape"}`, http.StatusBadRequest}, // path traversal
		{`{"journal":".hidden"}`, http.StatusBadRequest},   // leading dot
		{`{"journal":"absent"}`, http.StatusNotFound},      // nothing to repair
	}
	for _, tc := range cases {
		if status, data := post(t, tsj, "/v1/repair", tc.body); status != tc.status {
			t.Errorf("repair %s: status %d, want %d (%s)", tc.body, status, tc.status, data)
		}
	}
	if status, _ := post(t, tsj, "/v1/solve", `{"s":2,"n":2,"seeds":1,"journal":"bad/name"}`); status != http.StatusBadRequest {
		t.Errorf("solve with bad journal name: status %d, want 400", status)
	}
}

// Seed batching is on by default in the facade, so a multi-seed analysis
// request must surface share accounting in /v1/stats: the Slow and Fast
// groups of a 3-seed table1 draw nothing, so their probes serve the other
// seeds. A cache-warm repeat of the same request must not inflate it (every
// seed is a cache hit, no group runs at all).
func TestStatsReportSeedBatching(t *testing.T) {
	ts := newTestServer(t, "")
	body := `{"s":2,"n":2,"seeds":3}`
	if status, data := post(t, ts, "/v1/table1", body); status != http.StatusOK {
		t.Fatalf("table1: status %d: %s", status, data)
	}
	cold := getStats(t, ts)
	if cold.Batch.Forks <= 0 {
		t.Fatalf("after a 3-seed table1, batch stats show no forks: %+v", cold.Batch)
	}
	if status, data := post(t, ts, "/v1/table1", body); status != http.StatusOK {
		t.Fatalf("warm table1: status %d: %s", status, data)
	}
	warm := getStats(t, ts)
	if warm.Batch != cold.Batch {
		t.Fatalf("cache-warm repeat changed batch stats: cold %+v, warm %+v", cold.Batch, warm.Batch)
	}
}
