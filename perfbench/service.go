package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sessionproblem/wire"
)

// The service workload drives a sessiond daemon built from cmd/sessiond,
// started with -cache-dir and -journal-dir on empty directories and
// otherwise at its defaults, as its callers start it. nproc clients run a
// closed loop, one keep-alive connection each: sessiond's callers wait for
// each envelope before sending the next. A seeded generator draws bodies
// for every POST endpoint from a fixed catalogue of valid small instances
// with skewed popularity, so most requests repeat a body already answered
// (warm) and a steady share are first-seen (cold). Some sweeps name a
// journal and some requests ask for ?stream=1. Halfway through, the daemon
// gets SIGTERM and restarts on the same directories, so the next repeats
// are served first by the disk tier.

// request is the JSON body sessiond's POST endpoints accept. Every field
// the daemon would default is sent explicitly, so the in-process replay of
// the traced run sees exactly the daemon's inputs.
type request struct {
	S           int      `json:"s"`
	N           int      `json:"n"`
	B           int      `json:"b"`
	C1          int64    `json:"c1"`
	C2          int64    `json:"c2"`
	D1          int64    `json:"d1"`
	D2          int64    `json:"d2"`
	Seeds       int      `json:"seeds"`
	Kind        string   `json:"kind,omitempty"`
	Steps       int      `json:"steps"`
	MaxSessions int      `json:"maxSessions"`
	Cmaxs       []int64  `json:"cmaxs,omitempty"`
	Topos       []string `json:"topos,omitempty"`
	Model       string   `json:"model"`
	Comm        string   `json:"comm"`
	Strategy    string   `json:"strategy"`
	Seed        uint64   `json:"seed"`
	Journal     string   `json:"journal,omitempty"`
}

// entry is one catalogue body.
type entry struct {
	endpoint string // table1, hierarchy, sweep or solve
	class    int    // index into classes
	rq       request
	data     []byte
}

// classes partition the catalogue by what answering a body costs. The
// generator keeps the mix of classes fixed, among first-seen bodies and
// among repeats alike, so every seed pays for the same kinds of work;
// the seed varies which bodies of a class are sent and which are popular.
//
// The mix is synthetic: no recorded sessiond traffic exists to take it
// from (the only caller in the repository, the CI smoke job, sends one
// Table-1 body twice around a restart), so it is unverified. Each share
// has a stated reason instead.
var classes = []struct {
	name     string
	endpoint string
	// warmShare is the class's share of repeats; coldCycle sets its share
	// of first-seen bodies.
	warmShare float64
}{
	// Single runs are the cheapest question and the one a notebook asks
	// most: the largest share.
	{"solve", "solve", 0.40},
	// The three artifact endpoints share most of the rest about evenly.
	{"table1", "table1", 0.20},
	{"hierarchy", "hierarchy", 0.18},
	{"sweep", "sweep", 0.17},
	// A journal makes a long sweep resumable; sending the same journaled
	// body again is a resume, which is rare. Such a repeat replays the
	// whole journal into the cache, a disk Put with fsync per entry, and
	// costs 10-30 ms against ~0.3 ms for other repeats. At 0.2% of repeats
	// it stays below warm_p99_ms, which therefore measures the cache-hit
	// path the other repeats take; journal.load_us on the traced run times
	// the replay, and the record gives the class's own latencies.
	{"journaled", "sweep", 0.002},
	// Network-diameter sweeps run outside the run cache: every repeat
	// recomputes. They and the fault-intensity sweeps are specialised
	// figures (F5 and the fault table), asked for less often.
	{"diameter", "sweep", 0.03},
	{"fault", "sweep", 0.018},
}

const (
	classSolve = iota
	classTable1
	classHierarchy
	classSweep
	classJournaled
	classDiameter
	classFault
)

// coldCycle orders the classes of successive first-seen bodies. It is
// chosen for steadiness, not taken from traffic: sorted by cost, solve,
// diameter, the engine sweeps and table1 bodies fill the first 30% of
// first-seen requests, hierarchy bodies the next 65% and fault-intensity
// sweeps the last 5%, so cold_p50_ms and cold_p90_ms both fall inside the
// hierarchy bodies rather than on a boundary between two classes, where a
// small shift in the mix would move them far. A fault-intensity sweep
// makes 139 runs, each an fsync'd disk Put, so its latency follows the
// host's disk more than its simulation: with three cold bodies in twenty
// and cold_p90_ms among them, ten runs spread 0.44 on cold_p90_ms when
// the disk slowed for two of them.
var coldCycle = []int{
	classHierarchy, classSolve, classHierarchy, classTable1, classHierarchy,
	classHierarchy, classSweep, classHierarchy, classSolve, classDiameter,
	classHierarchy, classHierarchy, classHierarchy, classFault, classHierarchy,
	classHierarchy, classJournaled, classHierarchy, classHierarchy, classHierarchy,
}

// catalogue builds the fixed set of valid small instances, by class. It
// does not depend on the workload seed. Within a class the bodies are of
// one shape, and they vary the timing constants their runs depend on
// (every body of the constant-driven classes has its own (c2, d2) pair) so
// that a first-seen body is new simulation work rather than runs another
// body already cached. The hierarchy bodies, on which both cold
// percentiles fall, have twice the processes of the others (s = 6,
// n = 16), so that their simulation outweighs the fsync of each run's
// disk Put: fsync latency drifts with the host's disk by a factor of four
// and more within minutes, and at n = 8 the fsyncs made up to half of a
// cold hierarchy request and moved cold_p50_ms by a quarter between runs.
// Every class holds more bodies than a whole request sequence introduces
// (the self-tests check it), so the cold mix cannot run dry within a run.
func catalogue(toy bool) [][]entry {
	cat := make([][]entry, len(classes))
	add := func(class int, rq request) {
		cat[class] = append(cat[class], entry{endpoint: classes[class].endpoint, class: class, rq: rq})
	}
	base := func(s, n, seeds int) request {
		return request{S: s, N: n, B: 3, C1: 2, C2: 10, D1: 4, D2: 28, Seeds: seeds,
			Steps: 9, MaxSessions: 10, Model: "periodic", Comm: "mp", Strategy: "random", Seed: 1}
	}
	sweeps := 0
	// d2 steps by 4 and each class shifts it by its own offset (0, +1, +2,
	// +3), so no two classes share a message-passing run.
	for c2 := int64(8); c2 < 98; c2++ {
		for k, d2 := range []int64{24, 28, 32, 36, 40, 44, 48, 52} {
			c1 := 1 + (c2+int64(k))%3
			d1 := 2 + 2*(c2%3)
			// In the table1 and hierarchy bodies the smallest step time
			// follows the largest, which holds the steps of a class's
			// bodies within a factor of two (with c1 in 1..3 they span
			// four): the hierarchy bodies, among which both cold
			// percentiles fall, rest on a narrow band of cost, and the
			// table1 bodies stay clear below them.
			rq := base(6, 8, 1)
			rq.C1, rq.C2, rq.D1, rq.D2 = c2/6+int64((k+1)%2), c2, d1, d2
			add(classTable1, rq)
			// The hierarchy runs only message-passing models: shifting d2
			// keeps its runs apart from the table's. It takes most
			// first-seen bodies, so it has two per constant set, apart in
			// the smallest delay.
			for _, hd1 := range []int64{d1, d1 + 1} {
				rq = base(6, 16, 1)
				rq.C1, rq.C2, rq.D1, rq.D2 = c2/6+int64(k%2), c2, hd1, d2+2
				add(classHierarchy, rq)
			}
			rq = base(6, 8, 1)
			rq.C1, rq.C2, rq.D1, rq.D2, rq.Kind = c1, c2, d1, d2+1, "fault-intensity"
			add(classFault, rq)
			// One engine sweep per constant set, the kind in rotation;
			// every fourth names its own journal.
			rq = base(6, 4, 1)
			rq.C1, rq.C2, rq.D1, rq.D2 = c1, c2, d1, d2+3
			switch sweeps % 3 {
			case 0:
				rq.Kind, rq.Steps = "sporadic-delay", 3
			case 1:
				rq.Kind, rq.MaxSessions = "periodic-vs-semisync", 4
			default:
				rq.Kind, rq.Cmaxs = "periodic-vs-sporadic", []int64{4, 4 + c2}
			}
			class := classSweep
			if sweeps%4 == 0 {
				class = classJournaled
				rq.Journal = "j" + strconv.Itoa(sweeps)
			}
			add(class, rq)
			sweeps++
		}
	}
	for s := 2; s <= 3; s++ {
		for n := 4; n <= 8; n++ {
			for _, topos := range [][]string{{"ring", "line"}, {"complete", "star"}, {"grid", "torus"}, {"expander", "random-regular"}} {
				for _, c2 := range []int64{2, 3, 4} {
					rq := base(s, n, 2)
					rq.C2, rq.D2, rq.Kind, rq.Topos = c2, 10, "network-diameter", topos
					add(classDiameter, rq)
				}
			}
		}
	}
	for seed := uint64(1); seed <= 20; seed++ {
		for _, m := range []string{"synchronous", "periodic", "semisync", "sporadic", "async"} {
			for _, comm := range []string{"sm", "mp"} {
				if m == "sporadic" && comm == "sm" {
					continue // the sporadic SM model is the asynchronous one
				}
				for _, st := range []string{"random", "slow", "fast", "skewed", "jittered"} {
					rq := base(6, 8, 1)
					rq.Model, rq.Comm, rq.Strategy, rq.Seed = m, comm, st, seed
					add(classSolve, rq)
				}
			}
		}
	}
	if toy {
		for c := range cat {
			if len(cat[c]) > toyClassSize {
				cat[c] = cat[c][:toyClassSize]
			}
		}
	}
	return cat
}

// toyClassSize bounds each class of the toy catalogue; it still covers a
// whole toy request sequence.
const toyClassSize = 64

// Generator parameters, synthetic like the class mix.
const (
	// coldShare is the share of requests that introduce a new body. Most
	// traffic repeats questions already answered; at this share a run
	// sends about 150-270 cold bodies on a 2-core host, above the 100 that
	// cold_p90_ms needs (a host slowed further extends the run, see
	// runDrive), and stays within the catalogue on a host several times
	// faster.
	coldShare = 0.004
	// streamShare is the share of requests that ask for ?stream=1: a
	// minority of callers watch progress.
	streamShare = 0.10
	// warmSkew shapes the popularity of repeats within a class, so that
	// most repeats go to a few popular questions: a repeat picks the body
	// introduced at position floor(k·u^warmSkew) of the k introduced so
	// far, which gives the first tenth of them about a third of the
	// class's repeats.
	warmSkew = 2.0
)

// strata is how many cost strata each class is cut into for the order in
// which its bodies are introduced.
const strata = 24

// stratifiedOrder orders a class for introduction. Its bodies are ranked
// by a cost proxy, cut into strata of neighbouring cost and shuffled by
// the seed within each stratum; the order then takes one body from each
// stratum in turn, starting from the middle stratum and moving outwards.
// Every prefix of the order spans the class's range of cost alike, so the
// seed changes which bodies are sent but not the cost mix of the
// first-seen ones, as a plain shuffle would in a class whose costs span a
// factor of five. The first bodies of a class, which the skew makes the
// most popular, are of middling cost.
func stratifiedOrder(es []entry, rng *rand.Rand) []entry {
	if len(es) == 0 {
		return es
	}
	sorted := slices.Clone(es)
	slices.SortStableFunc(sorted, func(a, b entry) int { return cmp.Compare(costProxy(a.rq), costProxy(b.rq)) })
	k := min(strata, len(sorted))
	groups := make([][]entry, k)
	for i, e := range sorted {
		g := i * k / len(sorted)
		groups[g] = append(groups[g], e)
	}
	for _, g := range groups {
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	}
	visit := make([]int, 0, k) // middle first, then outwards
	for d := 0; len(visit) < k; d++ {
		if g := k/2 - d; g >= 0 {
			visit = append(visit, g)
		}
		if g := k/2 + d; d > 0 && g < k {
			visit = append(visit, g)
		}
	}
	out := make([]entry, 0, len(es))
	for i := 0; len(out) < len(es); i++ {
		for _, g := range visit {
			if i < len(groups[g]) {
				out = append(out, groups[g][i])
			}
		}
	}
	return out
}

// costProxy ranks the bodies of one class by what answering them costs:
// the steps of their runs grow with the ratio of the largest to the
// smallest step time and, more slowly, with the largest delay.
func costProxy(rq request) float64 {
	return float64(rq.C2)/float64(rq.C1) + float64(rq.D2)/4
}

// call is one position of the request sequence.
type call struct {
	body   int // index into bodies
	stream bool
	// cold marks the body's first appearance in the sequence.
	cold bool
}

// workloadStream is the seeded request sequence over a catalogue.
type workloadStream struct {
	bodies []entry
	calls  []call
	// dryAt is the first sequence position whose first-seen body came from
	// another class than coldCycle named, because that class had run out
	// of bodies, or -1. From there on the cold mix differs from the one
	// the metrics are defined on.
	dryAt    int
	dryClass string
}

// generate draws the request sequence for a seed: n calls over the
// catalogue, each body's JSON rendered once.
func generate(seed uint64, n int, toy bool) (*workloadStream, error) {
	cat := catalogue(toy)
	rng := rand.New(rand.NewPCG(seed, 0x5e5510))
	for c := range cat {
		cat[c] = stratifiedOrder(cat[c], rng)
	}
	ws := &workloadStream{dryAt: -1}
	byClass := make([][]int, len(classes)) // introduced bodies, in order
	next := make([]int, len(classes))      // next unsent body of each class
	slot := 0
	introduce := func() (int, error) {
		for tries := 0; tries < len(coldCycle); tries++ {
			c := coldCycle[slot%len(coldCycle)]
			slot++
			if next[c] >= len(cat[c]) && ws.dryAt < 0 {
				ws.dryAt, ws.dryClass = len(ws.calls), classes[c].name
			}
			if next[c] < len(cat[c]) {
				e := cat[c][next[c]]
				next[c]++
				data, err := json.Marshal(e.rq)
				if err != nil {
					return 0, err
				}
				e.data = data
				ws.bodies = append(ws.bodies, e)
				byClass[c] = append(byClass[c], len(ws.bodies)-1)
				return len(ws.bodies) - 1, nil
			}
		}
		return -1, nil
	}
	for i := 0; i < n; i++ {
		c := call{stream: rng.Float64() < streamShare}
		if len(ws.bodies) == 0 || rng.Float64() < coldShare {
			b, err := introduce()
			if err != nil {
				return nil, err
			}
			if b >= 0 {
				c.body, c.cold = b, true
				ws.calls = append(ws.calls, c)
				continue
			}
		}
		if len(ws.bodies) == 0 {
			return nil, errors.New("service: empty catalogue")
		}
		// A repeat: draw the class by its share among the classes that
		// have bodies yet, then a body of it by popularity.
		total := 0.0
		for k := range classes {
			if len(byClass[k]) > 0 {
				total += classes[k].warmShare
			}
		}
		x := rng.Float64() * total
		class := -1
		for k := range classes {
			if len(byClass[k]) == 0 {
				continue
			}
			class = k
			if x -= classes[k].warmShare; x < 0 {
				break
			}
		}
		list := byClass[class]
		j := int(float64(len(list)) * math.Pow(rng.Float64(), warmSkew))
		if j >= len(list) {
			j = len(list) - 1
		}
		c.body = list[j]
		ws.calls = append(ws.calls, c)
	}
	return ws, nil
}

// --- the daemon ---------------------------------------------------------

// daemon is one running sessiond.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// freeAddr finds a free localhost port for the daemon.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon starts sessiond and waits until /v1/stats answers; it
// returns the time that took.
func startDaemon(bin, cacheDir, journalDir string, logw io.Writer) (*daemon, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		cmd := exec.Command(bin, "-addr", addr, "-cache-dir", cacheDir, "-journal-dir", journalDir)
		cmd.Stdout, cmd.Stderr = logw, logw
		// The daemon must not outlive the benchmark, however it ends.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, 0, fmt.Errorf("starting sessiond: %w", err)
		}
		d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
		go func() { d.done <- cmd.Wait() }()
		if err := d.waitReady(10 * time.Second); err != nil {
			lastErr = err
			d.kill()
			continue // most likely the port was taken in between
		}
		return d, time.Since(t0), nil
	}
	return nil, 0, lastErr
}

var probeClient = &http.Client{Timeout: time.Second}

func (d *daemon) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.done:
			d.done <- err
			return fmt.Errorf("sessiond exited during start: %v", err)
		default:
		}
		resp, err := probeClient.Get(d.base + "/v1/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("sessiond did not answer /v1/stats within the start limit")
}

// peakRSS reads the daemon's VmHWM.
func (d *daemon) peakRSS() (float64, error) {
	return peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
}

// stop sends SIGTERM and waits for the daemon to exit, killing it if the
// graceful shutdown does not finish in time.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.done:
		return nil
	case <-time.After(15 * time.Second):
		d.kill()
		return errors.New("sessiond did not stop after SIGTERM")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// daemonStats is the part of GET /v1/stats the workload reads.
type daemonStats struct {
	V     int    `json:"v"`
	Kind  string `json:"kind"`
	Cache struct {
		Hits        int64 `json:"hits"`
		Misses      int64 `json:"misses"`
		MemHits     int64 `json:"memHits"`
		DiskHits    int64 `json:"diskHits"`
		Corrupt     int64 `json:"corrupt"`
		WriteErrors int64 `json:"writeErrors"`
		DiskEntries int64 `json:"diskEntries"`
	} `json:"cache"`
	Mem struct {
		HeapInuseBytes uint64 `json:"heapInuseBytes"`
	} `json:"mem"`
}

func (d *daemon) stats(c *http.Client) (daemonStats, error) {
	var st daemonStats
	resp, err := c.Get(d.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("/v1/stats: %w", err)
	}
	if st.V != wire.Version || st.Kind != "stats" {
		return st, fmt.Errorf("/v1/stats: envelope v=%d kind=%q", st.V, st.Kind)
	}
	return st, nil
}

// --- the clients --------------------------------------------------------

// drive is the state of one load run against the daemon: the sequence,
// the first reply to every body, and what the clients measured.
type drive struct {
	ws      *workloadStream
	client  *http.Client
	next    atomic.Int64 // next sequence position to claim
	answers []answer     // per body: the first reply
	// traced runs record one span per request.
	rec *recorder

	mu       sync.Mutex
	lat      latencies
	byClass  []latencies
	problems []string
	bytes    int64
	done     int
}

// answer is the first reply to a body; ready closes when it arrived.
type answer struct {
	ready    chan struct{}
	envelope []byte
	ok       bool
	steps    int64 // steps behind the reply, learned from a progress stream
	learned  bool
}

func newDrive(ws *workloadStream, clients int, rec *recorder) *drive {
	d := &drive{
		ws:      ws,
		rec:     rec,
		answers: make([]answer, len(ws.bodies)),
		byClass: make([]latencies, len(classes)),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	for i := range d.answers {
		d.answers[i].ready = make(chan struct{})
	}
	return d
}

func (d *drive) problem(format string, args ...any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.problems = append(d.problems, fmt.Sprintf(format, args...))
}

// sent is the number of sequence positions the clients made requests for.
func (d *drive) sent() int { return min(int(d.next.Load()), len(d.ws.calls)) }

// coldDone is the number of cold requests completed so far.
func (d *drive) coldDone() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.lat.cold)
}

// phase runs the closed loop with n clients against base until limit has
// passed, and returns the wall time until the last client finished.
func (d *drive) phase(base string, clients int, limit time.Duration) (time.Duration, error) {
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < limit {
				pos := int(d.next.Add(1)) - 1
				if pos >= len(d.ws.calls) {
					d.problem("the request sequence of %d ran out before the phase ended; the run measured less than its time", len(d.ws.calls))
					return
				}
				if err := d.send(base, pos); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}

// send makes the request at sequence position pos and checks the reply.
// A repeat waits until the first reply to its body has arrived, so it is
// warm when sent. Only transport failures are errors.
func (d *drive) send(base string, pos int) error {
	c := d.ws.calls[pos]
	e := &d.ws.bodies[c.body]
	a := &d.answers[c.body]
	if !c.cold {
		<-a.ready
	}
	url := base + "/v1/" + e.endpoint
	if c.stream {
		url += "?stream=1"
	}
	var sp int32 = -1
	if d.rec != nil {
		sp = d.rec.begin("client."+e.endpoint, -1, int64(pos))
	}
	t0 := time.Now()
	resp, err := d.client.Post(url, "application/json", bytes.NewReader(e.data))
	if err != nil {
		if c.cold {
			close(a.ready)
		}
		return fmt.Errorf("POST %s: %w", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if d.rec != nil {
		d.rec.end(sp)
	}
	if err != nil {
		if c.cold {
			close(a.ready)
		}
		return fmt.Errorf("reading %s: %w", url, err)
	}
	env, steps, problem := checkReply(e.endpoint, c.stream, resp.StatusCode, body)
	if c.cold {
		a.envelope, a.ok = env, problem == ""
		if c.stream && problem == "" {
			a.steps, a.learned = steps, true
		}
		close(a.ready)
	} else if problem == "" && a.ok && !bytes.Equal(env, a.envelope) {
		problem = "reply differs from the first reply to the same body"
	}
	if problem != "" {
		d.problem("POST %s body %d (%s): %s", url, c.body, e.data, problem)
	}
	d.mu.Lock()
	d.lat.add(!c.cold, lat)
	d.byClass[e.class].add(!c.cold, lat)
	d.bytes += int64(len(body))
	d.done++
	d.mu.Unlock()
	return nil
}

// checkReply checks one reply: HTTP 200 and a v1 envelope of the
// endpoint's kind; a streamed reply must be progress lines followed by the
// envelope. It returns the envelope bytes (with the trailing newline), the
// steps the progress lines reported, and what was wrong, if anything.
func checkReply(endpoint string, stream bool, status int, body []byte) ([]byte, int64, string) {
	if status != http.StatusOK {
		return nil, 0, fmt.Sprintf("HTTP %d: %.200s", status, body)
	}
	env := body
	var steps int64
	if stream {
		lines := bytes.SplitAfter(body, []byte("\n"))
		if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
			lines = lines[:n-1]
		}
		if len(lines) == 0 {
			return nil, 0, "empty stream"
		}
		for _, l := range lines[:len(lines)-1] {
			var ev struct {
				V     int    `json:"v"`
				Kind  string `json:"kind"`
				Steps int64  `json:"steps"`
			}
			if err := json.Unmarshal(l, &ev); err != nil || ev.V != wire.Version || ev.Kind != "progress" {
				return nil, 0, fmt.Sprintf("bad progress line %.200q", l)
			}
			steps += ev.Steps
		}
		env = lines[len(lines)-1]
	}
	if len(env) == 0 || env[len(env)-1] != '\n' {
		return nil, 0, "envelope without its trailing newline"
	}
	var err error
	switch endpoint {
	case "table1":
		_, err = wire.UnmarshalTable(env)
	case "hierarchy":
		_, err = wire.UnmarshalHierarchy(env)
	case "sweep":
		_, err = wire.UnmarshalSweep(env)
	case "solve":
		_, err = wire.UnmarshalReport(env)
	}
	if err != nil {
		return nil, 0, err.Error()
	}
	return env, steps, ""
}

// learnSteps asks for every body once more with ?stream=1, after the
// measured phases, to learn the steps behind each reply from the progress
// lines; the replies must still be byte-identical to the first ones.
func (d *drive) learnSteps(base string) error {
	for i := range d.answers {
		a := &d.answers[i]
		select {
		case <-a.ready:
		default:
			continue // never sent
		}
		if a.learned || !a.ok {
			continue
		}
		e := &d.ws.bodies[i]
		resp, err := d.client.Post(base+"/v1/"+e.endpoint+"?stream=1", "application/json", bytes.NewReader(e.data))
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		env, steps, problem := checkReply(e.endpoint, true, resp.StatusCode, body)
		if problem == "" && !bytes.Equal(env, a.envelope) {
			problem = "reply differs from the first reply to the same body"
		}
		if problem != "" {
			d.problem("POST %s body %d: %s", e.endpoint, i, problem)
			continue
		}
		a.steps, a.learned = steps, true
	}
	return nil
}

// --- the workload -------------------------------------------------------

// serviceDirs are the daemon's directories for one run, under the state
// directory; they start empty and are removed when the run ends.
type serviceDirs struct{ root, cache, journal string }

func newServiceDirs(o options, name string) (serviceDirs, error) {
	root := filepath.Join(o.stateDir, "service", fmt.Sprintf("%s-%d", name, os.Getpid()))
	d := serviceDirs{root: root, cache: filepath.Join(root, "cache"), journal: filepath.Join(root, "journal")}
	if err := os.RemoveAll(root); err != nil {
		return d, err
	}
	for _, p := range []string{d.cache, d.journal} {
		if err := os.MkdirAll(p, 0o755); err != nil {
			return d, err
		}
	}
	return d, nil
}

// setupStarts is how many daemon starts a run times for set-up: probe
// starts on the empty directories, then the measured start and restart.
const setupStarts = 31

// sequenceLen bounds how many requests a run can make: several times what
// a 30-second run sends on a 2-core host (1000-3000 req/s). A run that
// reaches the end fails rather than measuring less than its time.
// toySequenceLen is the toy runs' bound.
const (
	sequenceLen    = 400_000
	toySequenceLen = 20_000
)

// driveResult is one measured load run.
type driveResult struct {
	d          *drive
	wall       time.Duration // the two request phases, restart excluded
	extended   time.Duration // the part of wall the second phase ran on for cold samples
	restartPos int           // sequence position where the restart fell
	stats      [2][2]daemonStats
	rss        float64
	starts     []float64
	journalB   int64
	toy        bool
}

// runDrive starts the daemon, runs the two request phases around a
// restart, learns the steps behind the replies and stops the daemon.
func runDrive(o options, ws *workloadStream, dirs serviceDirs, rec *recorder, probes int) (*driveResult, error) {
	if o.sessiond == "" {
		return nil, errors.New("service: no sessiond binary (--sessiond)")
	}
	logf, err := os.Create(filepath.Join(dirs.root, "sessiond.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	res := &driveResult{toy: o.toy}
	for i := 0; i < probes; i++ {
		dm, took, err := startDaemon(o.sessiond, dirs.cache, dirs.journal, logf)
		if err != nil {
			return nil, err
		}
		res.starts = append(res.starts, took.Seconds())
		if err := dm.stop(); err != nil {
			return nil, err
		}
	}
	clients := runtime.NumCPU()
	d := newDrive(ws, clients, rec)
	res.d = d
	half := o.duration() / 2
	for ph := 0; ph < 2; ph++ {
		dm, took, err := startDaemon(o.sessiond, dirs.cache, dirs.journal, logf)
		if err != nil {
			return nil, err
		}
		res.starts = append(res.starts, took.Seconds())
		err = func() error {
			if res.stats[ph][0], err = dm.stats(d.client); err != nil {
				return err
			}
			wall, err := d.phase(dm.base, clients, half)
			if err != nil {
				return err
			}
			res.wall += wall
			// A host slowed far enough leaves a run short of the cold
			// samples cold_p90_ms needs. The second phase then goes on in
			// steps of a tenth of the run, up to the run's length again,
			// and the run fails only if it still falls short.
			for extra := time.Duration(0); ph == 1 && !o.toy && d.coldDone() < minColdSamples && extra < o.duration(); extra += wall {
				if wall, err = d.phase(dm.base, clients, o.duration()/10); err != nil {
					return err
				}
				res.wall += wall
				res.extended += wall
			}
			if res.stats[ph][1], err = dm.stats(d.client); err != nil {
				return err
			}
			if ph == 0 {
				res.restartPos = d.sent()
			} else if err := d.learnSteps(dm.base); err != nil {
				return err
			}
			rss, err := dm.peakRSS()
			if err != nil {
				return err
			}
			if rss > res.rss {
				res.rss = rss
			}
			return nil
		}()
		if stopErr := dm.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return nil, err
		}
	}
	filepath.WalkDir(dirs.journal, func(_ string, de os.DirEntry, err error) error {
		if err == nil && de.Type().IsRegular() {
			if info, err := de.Info(); err == nil {
				res.journalB += info.Size()
			}
		}
		return nil
	})
	return res, nil
}

// report stores the end-to-end metrics of a drive and its checks.
func (res *driveResult) report(out *outcome) {
	d := res.d
	out.values["setup_s"] = median(append([]float64(nil), res.starts...))
	out.samples["daemon_starts"] = len(res.starts)
	wall := res.wall.Seconds()
	var runs, steps int64
	for ph := 0; ph < 2; ph++ {
		a, b := res.stats[ph][0].Cache, res.stats[ph][1].Cache
		runs += (b.Hits - a.Hits) + (b.Misses - a.Misses)
	}
	for pos := 0; pos < d.sent(); pos++ {
		steps += d.answers[d.ws.calls[pos].body].steps
	}
	out.values["runs_per_s"] = float64(runs) / wall
	out.values["steps_per_s"] = float64(steps) / wall
	out.values["req_per_s"] = float64(d.done) / wall
	d.lat.report(out)
	for i, l := range d.byClass {
		name := classes[i].name
		out.detail[name+".warm_p50_ms"] = percentile(l.warm, 0.5)
		out.detail[name+".warm_p99_ms"] = percentile(l.warm, 0.99)
		out.detail[name+".cold_p50_ms"] = percentile(l.cold, 0.5)
		out.samples[name+".warm"] = len(l.warm)
		out.samples[name+".cold"] = len(l.cold)
	}
	out.values["peak_rss_mb"] = res.rss
	out.attempted += d.done
	for i, p := range d.problems {
		if i == 0 {
			out.fail("%s (and %d more)", p, len(d.problems)-1)
		} else {
			out.failed++
		}
	}
	out.samples["requests"] = d.done
	out.samples["bodies"] = countAnswered(d)
	out.detail["extended_s"] = res.extended.Seconds()
	res.checkSamples(out)
}

// The fewest warm and cold samples a service run's percentiles may rest
// on: p99 then has ten samples beyond it, and p90 ten.
const (
	minWarmSamples = 1000
	minColdSamples = 100
)

// checkSamples fails a run whose percentiles rest on too few samples, or
// whose cold mix changed because a catalogue class ran dry, instead of
// letting a faster or slower daemon change silently what the metrics
// measure. Toy runs are too short for the minimums.
func (res *driveResult) checkSamples(out *outcome) {
	d := res.d
	if ws := d.ws; ws.dryAt >= 0 && ws.dryAt < d.sent() {
		out.fail("the catalogue's %s bodies ran out at request %d of %d; the cold mix changed from there on", ws.dryClass, ws.dryAt, d.sent())
	}
	if res.toy {
		return
	}
	if n := len(d.lat.warm); n < minWarmSamples {
		out.fail("%d warm samples, fewer than the %d warm_p99_ms needs", n, minWarmSamples)
	}
	if n := len(d.lat.cold); n < minColdSamples {
		out.fail("%d cold samples, fewer than the %d cold_p90_ms needs", n, minColdSamples)
	}
}

func countAnswered(d *drive) int {
	n := 0
	for i := range d.answers {
		select {
		case <-d.answers[i].ready:
			n++
		default:
		}
	}
	return n
}

func runService(ctx context.Context, o options) (*outcome, error) {
	n := sequenceLen
	if o.toy {
		n = toySequenceLen
	}
	ws, err := generate(o.seed, n, o.toy)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceService(ctx, o, ws)
	}
	dirs, err := newServiceDirs(o, "run")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dirs.root)
	res, err := runDrive(o, ws, dirs, nil, setupStarts-2)
	if err != nil {
		return nil, err
	}
	out := newOutcome(o)
	res.report(out)
	return out, nil
}
