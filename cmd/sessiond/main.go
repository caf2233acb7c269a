// Command sessiond serves the session-problem analysis library over
// HTTP/JSON as a long-lived daemon. Where the CLI tools pay the full run
// matrix on every invocation, sessiond keeps one shared run cache across
// requests — in-memory always, disk-persistent with -cache-dir — so
// repeated and overlapping analyses reuse every verified run summary, even
// across daemon restarts and even with the CLI tools sharing the directory.
//
// Endpoints (all results are versioned wire envelopes, package wire):
//
//	POST /v1/table1     {"s":6,"n":8,...}            -> {"v":1,"kind":"table1",...}
//	POST /v1/hierarchy  {"s":6,"n":8,...}            -> {"v":1,"kind":"hierarchy",...}
//	POST /v1/sweep      {"kind":"sporadic-delay",..} -> {"v":1,"kind":"sweep",...}
//	POST /v1/solve      {"model":"periodic",...}     -> {"v":1,"kind":"report",...}
//	POST /v1/repair     {"journal":"nightly"}        -> {"v":1,"kind":"repair",...}
//	GET  /v1/stats                                   -> cache + request accounting
//
// The daemon is hardened for long-lived unattended operation: every handler
// runs under a recover() middleware (a panic is logged with its stack and
// answered with a structured 500 instead of killing the daemon), request
// headers and bodies are read under a deadline, and bodies are capped at
// 1 MiB (413 on overflow). With -journal-dir, a request naming a journal
// ({"journal":"nightly"}) has its long sweep/solve call journaled
// crash-safely under that directory: a killed daemon replays the journal on
// the next identical request and re-executes only the missing cells, and
// POST /v1/repair truncates a damaged journal tail on demand.
//
// Every request field is optional and defaults to the library default, so
// `curl -d '{}' localhost:8372/v1/table1` regenerates the paper's Table 1.
// Responses are byte-identical to the corresponding CLI `-json` output
// (`sessiontable -json`, `sessionsim -json`): one envelope, one trailing
// newline — cache state and parallelism never change a result byte.
//
// With ?stream=1 the POST endpoints reply with NDJSON: one
// {"v":1,"kind":"progress",...} line per completed simulator run as it
// happens, then the result envelope as the final line (still byte-identical
// to the non-streaming body).
//
// Usage:
//
//	sessiond [-addr HOST:PORT] [-cache-dir DIR] [-journal-dir DIR]
//	         [-parallelism N] [-timeout D]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sessionproblem"
	"sessionproblem/internal/diskcache"
	"sessionproblem/internal/engine"
	"sessionproblem/internal/harness"
	"sessionproblem/internal/journal"
	"sessionproblem/internal/tree"
	"sessionproblem/wire"
)

func main() {
	fs := flag.NewFlagSet("sessiond", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8372", "listen address")
	cacheDir := fs.String("cache-dir", "", "directory for the disk-persistent run cache (empty = in-memory only)")
	journalDir := fs.String("journal-dir", "", "directory for per-request crash-safe run journals (empty = journaling disabled)")
	parallelism := fs.Int("parallelism", 0, "worker-pool width per request (0 = GOMAXPROCS); results are identical at any setting")
	timeout := fs.Duration("timeout", 0, "wall-clock bound per request (0 = none)")
	fs.Parse(os.Args[1:])

	srv, err := newServer(*cacheDir, *journalDir, *parallelism, *timeout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sessiond:", err)
		os.Exit(1)
	}
	hs := &http.Server{
		Addr:    *addr,
		Handler: srv.handler(),
		// A stalled or hostile client must not hold a connection open
		// forever: bound reading the headers and the (already size-capped)
		// body. No WriteTimeout — streaming sweeps legitimately run long.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
	}
	go func() {
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		<-stop
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	}()
	log.Printf("sessiond: listening on %s (cache-dir=%q)", *addr, *cacheDir)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "sessiond:", err)
		os.Exit(1)
	}
}

// server holds the state shared by every request: the run cache (the whole
// point of being a daemon) and the execution limits.
type server struct {
	mem         *engine.RunCache  // memory tier, always present
	tiered      *diskcache.Tiered // non-nil iff a cache directory is configured
	journalDir  string            // non-empty iff per-request journaling is enabled
	parallelism int
	timeout     time.Duration
	requests    atomic.Int64
	journaled   atomic.Int64 // requests that named a journal
	repairs     atomic.Int64 // successful /v1/repair calls
	panics      atomic.Int64 // handler panics contained by the middleware

	// Seed-batching accounting, accumulated from every analysis result:
	// seeds served from a zero-draw probe run, and seeds that ran solo
	// after a probe that drew.
	batchForks     atomic.Int64
	batchFallbacks atomic.Int64
}

// recordBatch folds one analysis result's seed-batching counters into the
// daemon's cumulative stats.
func (s *server) recordBatch(st sessionproblem.Stats) {
	s.batchForks.Add(int64(st.BatchForks))
	s.batchFallbacks.Add(int64(st.BatchFallbacks))
}

func newServer(cacheDir, journalDir string, parallelism int, timeout time.Duration) (*server, error) {
	s := &server{
		mem:         engine.NewRunCache(),
		journalDir:  journalDir,
		parallelism: parallelism,
		timeout:     timeout,
	}
	if cacheDir != "" {
		tc, err := diskcache.NewSummaryCache(s.mem, cacheDir)
		if err != nil {
			return nil, err
		}
		s.tiered = tc
	}
	if journalDir != "" {
		if err := os.MkdirAll(journalDir, 0o755); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// cache is the RunCacher every request shares.
func (s *server) cache() sessionproblem.RunCacher {
	if s.tiered != nil {
		return s.tiered
	}
	return s.mem
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/table1", s.recovered(s.analysis(func(ctx context.Context, rq request, opts []sessionproblem.Option) ([]byte, error) {
		res, err := sessionproblem.Table1(ctx, opts...)
		if err != nil {
			return nil, err
		}
		s.recordBatch(res.Stats)
		return wire.MarshalTable(res.Cells)
	})))
	mux.HandleFunc("POST /v1/hierarchy", s.recovered(s.analysis(func(ctx context.Context, rq request, opts []sessionproblem.Option) ([]byte, error) {
		res, err := sessionproblem.Hierarchy(ctx, opts...)
		if err != nil {
			return nil, err
		}
		s.recordBatch(res.Stats)
		return wire.MarshalHierarchy(res.Rows)
	})))
	mux.HandleFunc("POST /v1/sweep", s.recovered(s.analysis(func(ctx context.Context, rq request, opts []sessionproblem.Option) ([]byte, error) {
		kind, ok := sweepKinds[rq.Kind]
		if !ok {
			return nil, badRequestf("unknown sweep kind %q (want sporadic-delay, periodic-vs-semisync, periodic-vs-sporadic, network-diameter or fault-intensity)", rq.Kind)
		}
		res, err := sessionproblem.Sweep(ctx, kind, opts...)
		if err != nil {
			return nil, err
		}
		s.recordBatch(res.Stats)
		return wire.MarshalSweep(res.Points)
	})))
	mux.HandleFunc("POST /v1/solve", s.recovered(s.analysis(func(ctx context.Context, rq request, opts []sessionproblem.Option) ([]byte, error) {
		rep, err := sessionproblem.Solve(ctx, sessionproblem.Model(rq.Model), sessionproblem.Comm(rq.Comm), opts...)
		if err != nil {
			return nil, err
		}
		return wire.MarshalReport(rep)
	})))
	mux.HandleFunc("POST /v1/repair", s.recovered(s.handleRepair))
	mux.HandleFunc("GET /v1/stats", s.recovered(s.handleStats))
	return mux
}

// recovered contains a handler panic to its request: the stack is logged,
// the client receives a structured v1 error envelope with status 500, and
// the daemon keeps serving. Without it a panic that escaped a handler would
// kill the connection (and, outside net/http's per-connection recovery,
// could take the whole process down) with nothing structured for the
// client.
func (s *server) recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.panics.Add(1)
				log.Printf("sessiond: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", v))
			}
		}()
		h(w, r)
	}
}

// request is the JSON body every POST endpoint accepts. Omitted fields take
// the library defaults (harness.Default() — the same instance the CLI tools
// and the facade default to), so "{}" is a valid body for every endpoint.
type request struct {
	S     int   `json:"s"`
	N     int   `json:"n"`
	B     int   `json:"b"`
	C1    int64 `json:"c1"`
	C2    int64 `json:"c2"`
	D1    int64 `json:"d1"`
	D2    int64 `json:"d2"`
	Seeds int   `json:"seeds"`

	// Sweep-only.
	Kind        string   `json:"kind,omitempty"`
	Steps       int      `json:"steps,omitempty"`
	MaxSessions int      `json:"maxSessions,omitempty"`
	Cmaxs       []int64  `json:"cmaxs,omitempty"`
	Topos       []string `json:"topos,omitempty"`

	// Solve-only.
	Model    string `json:"model,omitempty"`
	Comm     string `json:"comm,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`

	// Journal names a per-request crash-safe run journal under the
	// daemon's -journal-dir (analysis endpoints: journal the call's runs
	// and resume from any surviving frames; /v1/repair: the journal to
	// repair). Requires -journal-dir.
	Journal string `json:"journal,omitempty"`
}

func defaultRequest() request {
	def := harness.Default()
	return request{
		S: def.S, N: def.N, B: def.B,
		C1: int64(def.C1), C2: int64(def.C2),
		D1: int64(def.D1), D2: int64(def.D2),
		Seeds:       def.Seeds,
		Steps:       9,
		MaxSessions: 10,
		Model:       "periodic",
		Comm:        "mp",
		Strategy:    "random",
		Seed:        1,
	}
}

var sweepKinds = map[string]sessionproblem.SweepKind{
	"sporadic-delay":       sessionproblem.SweepSporadicDelay,
	"periodic-vs-semisync": sessionproblem.SweepPeriodicVsSemiSync,
	"periodic-vs-sporadic": sessionproblem.SweepPeriodicVsSporadic,
	"network-diameter":     sessionproblem.SweepNetworkDiameter,
	"fault-intensity":      sessionproblem.SweepFaultIntensity,
}

// options renders a request as facade options, always routing through the
// daemon's shared run cache. This mirrors what the CLI tools build from
// their flags, which is what keeps daemon and CLI results byte-identical.
func (s *server) options(rq request) []sessionproblem.Option {
	opts := []sessionproblem.Option{
		sessionproblem.WithSpec(rq.S, rq.N),
		sessionproblem.WithAccessBound(rq.B),
		sessionproblem.WithStepBounds(rq.C1, rq.C2),
		sessionproblem.WithDelayBounds(rq.D1, rq.D2),
		sessionproblem.WithSeeds(rq.Seeds),
		sessionproblem.WithParallelism(s.parallelism),
		sessionproblem.WithTimeout(s.timeout),
		sessionproblem.WithRunCache(s.cache()),
		sessionproblem.WithSweepSteps(rq.Steps),
		sessionproblem.WithMaxSessions(rq.MaxSessions),
		sessionproblem.WithSchedule(rq.Strategy, rq.Seed),
	}
	if len(rq.Cmaxs) > 0 {
		opts = append(opts, sessionproblem.WithPeriodMaxima(rq.Cmaxs...))
	}
	if len(rq.Topos) > 0 {
		opts = append(opts, sessionproblem.WithTopologies(rq.Topos...))
	}
	return opts
}

// badRequest marks an error as the client's fault (HTTP 400).
type badRequest struct{ error }

func badRequestf(format string, args ...any) error {
	return badRequest{fmt.Errorf(format, args...)}
}

// tooLarge marks a request body that overflowed the size cap (HTTP 413).
type tooLarge struct{ error }

// journalNameRE admits plain file-name-ish journal names: no separators, no
// leading dot, so a request can never escape -journal-dir.
var journalNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,100}$`)

// journalPath resolves a request's journal name under -journal-dir.
func (s *server) journalPath(name string) (string, error) {
	if s.journalDir == "" {
		return "", badRequestf("journaling is disabled: start sessiond with -journal-dir")
	}
	if !journalNameRE.MatchString(name) {
		return "", badRequestf("bad journal name %q (want letters, digits, dot, dash, underscore; leading alphanumeric)", name)
	}
	return filepath.Join(s.journalDir, name+".journal"), nil
}

// journalOptions renders a request's journal field as facade options: the
// facade replays the journal's surviving frames into the shared run cache
// and appends every newly verified summary, so a killed daemon resumes the
// sweep on the next identical request.
func (s *server) journalOptions(rq request) ([]sessionproblem.Option, error) {
	if rq.Journal == "" {
		return nil, nil
	}
	path, err := s.journalPath(rq.Journal)
	if err != nil {
		return nil, err
	}
	s.journaled.Add(1)
	return []sessionproblem.Option{sessionproblem.WithJournal(path)}, nil
}

// analysis adapts one facade call into a POST handler: decode the request
// (defaults for everything omitted), run, reply with the wire envelope plus
// one trailing newline — or, with ?stream=1, with NDJSON progress lines
// followed by the same envelope.
func (s *server) analysis(run func(context.Context, request, []sessionproblem.Option) ([]byte, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		rq, err := decodeRequest(w, r)
		if err != nil {
			writeError(w, errStatus(err), err)
			return
		}
		opts := s.options(rq)
		jopts, err := s.journalOptions(rq)
		if err != nil {
			writeError(w, errStatus(err), err)
			return
		}
		opts = append(opts, jopts...)

		if r.URL.Query().Get("stream") == "" {
			data, err := run(r.Context(), rq, opts)
			if err != nil {
				writeError(w, errStatus(err), err)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(append(data, '\n'))
			return
		}

		// Streaming: progress events go out as they happen, so the header
		// must commit before the result is known; a late failure becomes a
		// terminal {"v":1,"kind":"error"} line instead of a status code.
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		sw := &streamWriter{w: w}
		opts = append(opts, sessionproblem.WithObserver(sw.observe))
		data, err := run(r.Context(), rq, opts)
		if err != nil {
			sw.writeLine(map[string]any{"v": wire.Version, "kind": "error", "error": err.Error()})
			return
		}
		sw.writeRaw(append(data, '\n'))
	}
}

// streamWriter serializes NDJSON lines onto one response. The observer is
// invoked concurrently from every worker, so writes are mutex-guarded and
// flushed per line — clients see progress in real time.
type streamWriter struct {
	mu sync.Mutex
	w  http.ResponseWriter
}

// progressEvent is one completed simulator run, as seen by a streaming
// client. Completion order is nondeterministic under parallelism; the final
// result envelope is deterministic regardless.
type progressEvent struct {
	V          int    `json:"v"`
	Kind       string `json:"kind"` // always "progress"
	Label      string `json:"label"`
	Worker     int    `json:"worker"`
	WallMicros int64  `json:"wallMicros"`
	Steps      int    `json:"steps"`
	Sessions   int    `json:"sessions"`
	Messages   int    `json:"messages"`
	Faults     int    `json:"faults"`
	Err        string `json:"err,omitempty"`
}

func (sw *streamWriter) observe(o sessionproblem.Observation) {
	ev := progressEvent{
		V: wire.Version, Kind: "progress",
		Label: o.Label, Worker: o.Worker, WallMicros: o.Wall.Microseconds(),
		Steps: o.Steps, Sessions: o.Sessions, Messages: o.Messages, Faults: o.Faults,
	}
	if o.Err != nil {
		ev.Err = o.Err.Error()
	}
	sw.writeLine(ev)
}

func (sw *streamWriter) writeLine(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	sw.writeRaw(append(data, '\n'))
}

func (sw *streamWriter) writeRaw(line []byte) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.w.Write(line)
	if f, ok := sw.w.(http.Flusher); ok {
		f.Flush()
	}
}

// maxRequestBody caps every request body: the analysis requests are a
// handful of scalars, so anything larger is a mistake or abuse.
const maxRequestBody = 1 << 20

func decodeRequest(w http.ResponseWriter, r *http.Request) (request, error) {
	rq := defaultRequest()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return rq, tooLarge{fmt.Errorf("request body exceeds %d bytes", mbe.Limit)}
		}
		return rq, badRequestf("reading body: %v", err)
	}
	if len(body) == 0 {
		return rq, nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rq); err != nil {
		return rq, badRequestf("decoding request: %v", err)
	}
	// The body is one JSON value: only whitespace may follow it.
	if _, err := dec.Token(); err != io.EOF {
		return rq, badRequestf("decoding request: trailing data after the request object")
	}
	return rq, nil
}

func errStatus(err error) int {
	var br badRequest
	if errors.As(err, &br) {
		return http.StatusBadRequest
	}
	var tl tooLarge
	if errors.As(err, &tl) {
		return http.StatusRequestEntityTooLarge
	}
	// The facade reports unknown models, strategies and malformed sweeps as
	// plain errors; they are client mistakes, not server faults.
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusGatewayTimeout
	}
	return http.StatusUnprocessableEntity
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{"v": wire.Version, "kind": "error", "error": err.Error()})
}

// handleRepair is POST /v1/repair: truncate the named journal's damaged
// tail (torn or bit-flipped by a kill mid-append) and report what survived,
// as a v1 "repair" envelope. A missing journal is 404; repairing an intact
// journal is a reported no-op.
func (s *server) handleRepair(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	rq, err := decodeRequest(w, r)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	if rq.Journal == "" {
		writeError(w, http.StatusBadRequest, badRequestf("repair needs a journal name"))
		return
	}
	path, err := s.journalPath(rq.Journal)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	st, err := journal.Repair(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			writeError(w, http.StatusNotFound, fmt.Errorf("journal %q not found", rq.Journal))
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.repairs.Add(1)
	data, err := wire.MarshalRepair(wire.Repair{
		Journal: rq.Journal, Frames: st.Frames, BytesKept: st.Bytes,
		Truncated: st.Damaged, DroppedBytes: st.DroppedBytes,
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// journalStats is the /v1/stats journaling section.
type journalStats struct {
	// Enabled reports whether -journal-dir is configured.
	Enabled bool `json:"enabled"`
	// Requests counts analysis requests that named a journal; Repairs
	// counts successful /v1/repair calls.
	Requests int64 `json:"requests"`
	Repairs  int64 `json:"repairs"`
}

// batchStats is the /v1/stats seed-batching section: how much work seed
// sharing saved across every analysis request. Forks counts seeds served
// from a group's zero-draw probe run instead of being simulated, Fallbacks
// counts seeds that ran solo because the probe drew random values (or in a
// fault sweep's faulted group of more than one seed).
type batchStats struct {
	Forks     int64 `json:"forks"`
	Fallbacks int64 `json:"fallbacks"`
}

// memStats is the /v1/stats memory section, the observability side of the
// O(ports) ceilings: heap occupancy from the runtime plus the knowledge
// substrate's own packed-word count, so a long-lived daemon serving large-n
// requests can be watched for state that should have been released.
type memStats struct {
	// HeapAllocBytes is live heap; HeapInuseBytes spans (live + not yet
	// reclaimed), both from runtime.MemStats.
	HeapAllocBytes uint64 `json:"heapAllocBytes"`
	HeapInuseBytes uint64 `json:"heapInuseBytes"`
	// KnowledgeWords counts packed uint64 knowledge words currently held
	// by live tree.Knowledge values (freelist excluded); it is the
	// dominant per-port state of the shared-memory algorithms.
	KnowledgeWords int64 `json:"knowledgeWords"`
}

// statsResponse is GET /v1/stats: cumulative request and cache accounting
// since daemon start. Disk fields are zero when no -cache-dir is set.
type statsResponse struct {
	V         int             `json:"v"`
	Kind      string          `json:"kind"` // always "stats"
	Requests  int64           `json:"requests"`
	Panics    int64           `json:"panics"`
	DiskCache bool            `json:"diskCache"`
	Cache     diskcache.Stats `json:"cache"`
	Journal   journalStats    `json:"journal"`
	Batch     batchStats      `json:"batch"`
	Mem       memStats        `json:"mem"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		V: wire.Version, Kind: "stats",
		Requests: s.requests.Load(),
		Panics:   s.panics.Load(),
		Journal: journalStats{
			Enabled:  s.journalDir != "",
			Requests: s.journaled.Load(),
			Repairs:  s.repairs.Load(),
		},
		Batch: batchStats{
			Forks:     s.batchForks.Load(),
			Fallbacks: s.batchFallbacks.Load(),
		},
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	resp.Mem = memStats{
		HeapAllocBytes: ms.HeapAlloc,
		HeapInuseBytes: ms.HeapInuse,
		KnowledgeWords: tree.KnowledgeWords(),
	}
	if s.tiered != nil {
		resp.DiskCache = true
		resp.Cache = s.tiered.Stats()
	} else {
		resp.Cache = diskcache.Stats{
			Hits:       s.mem.Hits(),
			Misses:     s.mem.Misses(),
			MemHits:    s.mem.Hits(),
			MemEntries: s.mem.Len(),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
