package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"sessionproblem/internal/alg/gossip"
	"sessionproblem/internal/certify"
	"sessionproblem/internal/fault"
	"sessionproblem/internal/model"
	"sessionproblem/internal/mp"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/sm"
	"sessionproblem/internal/timing"
	"sessionproblem/internal/tree"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for none
	ID     int64  `json:"id"`     // the run or request the span belongs to
}

// recorder keeps spans in memory and writes them out when the run ends.
// Safe for concurrent use.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index.
func (r *recorder) begin(name string, parent int32, id int64) int32 {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, ID: id})
	return int32(len(r.spans) - 1)
}

// end closes the span at index i.
func (r *recorder) end(i int32) {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = now
}

// layerTime is the summed duration and count of one span name, with the
// self time left after subtracting the spans it directly encloses.
type layerTime struct {
	count      int
	total, own time.Duration
}

// totals aggregates the spans by name.
func (r *recorder) totals() map[string]*layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*layerTime)
	get := func(name string) *layerTime {
		lt := out[name]
		if lt == nil {
			lt = &layerTime{}
			out[name] = lt
		}
		return lt
	}
	for _, s := range r.spans {
		d := time.Duration(s.End - s.Start)
		lt := get(s.Name)
		lt.count++
		lt.total += d
		lt.own += d
		if s.Parent >= 0 {
			get(r.spans[s.Parent].Name).own -= d
		}
	}
	return out
}

// meanUS is the mean duration of the named spans in microseconds.
func meanUS(t map[string]*layerTime, name string) float64 {
	lt := t[name]
	if lt == nil || lt.count == 0 {
		return 0
	}
	return float64(lt.total) / float64(lt.count) / float64(time.Microsecond)
}

// spanNS is the summed duration of the named spans in nanoseconds.
func spanNS(t map[string]*layerTime, name string) float64 {
	if lt := t[name]; lt != nil {
		return float64(lt.total)
	}
	return 0
}

// write stores the spans as JSON lines under dir, one file per workload
// and seed, and returns the path.
func (r *recorder) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.ndjson", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// Hot per-call wrappers (Step, Gap, Delay, ObserveStep) cannot afford a
// span per call: they count every call and time one call in sampleEvery,
// and the layer's per-call cost is the mean of the timed calls. Each run
// owns its wrappers, so the counters need no locking; runs merge them into
// a shared hotTotals when they finish.
const sampleEvery = 16

// hotStats counts the calls through one wrapper class and times a sample.
type hotStats struct {
	calls, timed int64
	ns           int64
}

func (h *hotStats) add(o hotStats) {
	h.calls += o.calls
	h.timed += o.timed
	h.ns += o.ns
}

// sample reports whether this call is one of the timed ones.
func (h *hotStats) sample() bool {
	h.calls++
	return h.calls%sampleEvery == 0
}

func (h *hotStats) record(t0 time.Time) {
	h.timed++
	h.ns += int64(time.Since(t0))
}

// nsPerCall is the mean timed cost of one call, less the cost of reading
// the clock around it.
func (h hotStats) nsPerCall() float64 {
	if h.timed == 0 {
		return 0
	}
	v := float64(h.ns)/float64(h.timed) - clockCostNS
	if v < 0 {
		return 0
	}
	return v
}

// totalNS estimates the time spent in all calls, timed or not.
func (h hotStats) totalNS() float64 { return h.nsPerCall() * float64(h.calls) }

// clockCostNS is what a timed region costs with nothing inside it,
// measured once at start-up and subtracted from every sampled call.
var clockCostNS = func() float64 {
	const n = 4096
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		xs[i] = float64(time.Since(t0))
	}
	return median(xs)
}()

// hotSet is one run's hot-wrapper counters, by class.
type hotSet struct {
	sched, relay, gossip, otherStep, observe hotStats
}

func (h *hotSet) add(o *hotSet) {
	h.sched.add(o.sched)
	h.relay.add(o.relay)
	h.gossip.add(o.gossip)
	h.otherStep.add(o.otherStep)
	h.observe.add(o.observe)
}

func (h *hotSet) steps() hotStats {
	var s hotStats
	s.add(h.relay)
	s.add(h.gossip)
	s.add(h.otherStep)
	return s
}

// stepNS is the estimated time inside algorithm Step calls.
func (h *hotSet) stepNS() float64 {
	return h.relay.totalNS() + h.gossip.totalNS() + h.otherStep.totalNS()
}

// --- scheduler wrappers ------------------------------------------------

// smScheduler wraps the timing scheduler handed to sm.RunContext.
type smScheduler struct {
	inner *timing.Scheduler
	st    *hotStats
}

func (s smScheduler) Gap(p int) sim.Duration {
	if !s.st.sample() {
		return s.inner.Gap(p)
	}
	t0 := time.Now()
	d := s.inner.Gap(p)
	s.st.record(t0)
	return d
}

// mpScheduler wraps the timing scheduler handed to mp.RunContext.
type mpScheduler struct{ smScheduler }

func (s mpScheduler) Delay(src, dst int) sim.Duration {
	if !s.st.sample() {
		return s.inner.Delay(src, dst)
	}
	t0 := time.Now()
	d := s.inner.Delay(src, dst)
	s.st.record(t0)
	return d
}

// --- process wrappers --------------------------------------------------

// wrapSM wraps every process of a shared-memory system, classing tree
// relays and gossip vertices apart from the rest.
func wrapSM(sys *sm.System, hs *hotSet) {
	for i, p := range sys.Procs {
		st := &hs.otherStep
		switch p.(type) {
		case *tree.Relay:
			st = &hs.relay
		case *gossip.Vertex:
			st = &hs.gossip
		}
		sys.Procs[i] = smProcess{inner: p, st: st}
	}
}

type smProcess struct {
	inner sm.Process
	st    *hotStats
}

func (p smProcess) Target() model.VarID { return p.inner.Target() }
func (p smProcess) Idle() bool          { return p.inner.Idle() }

func (p smProcess) Step(old sm.Value) sm.Value {
	if !p.st.sample() {
		return p.inner.Step(old)
	}
	t0 := time.Now()
	v := p.inner.Step(old)
	p.st.record(t0)
	return v
}

func wrapMP(sys *mp.System, hs *hotSet) {
	for i, p := range sys.Procs {
		sys.Procs[i] = mpProcess{inner: p, st: &hs.otherStep}
	}
}

type mpProcess struct {
	inner mp.Process
	st    *hotStats
}

func (p mpProcess) Idle() bool { return p.inner.Idle() }

func (p mpProcess) Step(received []mp.Message) any {
	if !p.st.sample() {
		return p.inner.Step(received)
	}
	t0 := time.Now()
	v := p.inner.Step(received)
	p.st.record(t0)
	return v
}

// --- streaming certifier and fault injector wrappers --------------------

// observer wraps the certify.Counter passed as sm.Options.Observer.
type observer struct {
	inner *certify.Counter
	st    *hotStats
}

func (o observer) ObserveStep(s model.Step) {
	if !o.st.sample() {
		o.inner.ObserveStep(s)
		return
	}
	t0 := time.Now()
	o.inner.ObserveStep(s)
	o.st.record(t0)
}

// injector wraps the fault.Injector of a faulted run and counts the calls.
type injector struct {
	inner fault.Injector
	calls *int64
}

func (in injector) StepEffect(proc int, at sim.Time) fault.StepEffect {
	*in.calls++
	return in.inner.StepEffect(proc, at)
}

func (in injector) DeliveryEffect(src, dst int, at sim.Time) fault.DeliveryEffect {
	*in.calls++
	return in.inner.DeliveryEffect(src, dst, at)
}

// --- engine observer ---------------------------------------------------

// taskLog collects the engine's per-task wall times with their labels.
type taskLog struct {
	mu    sync.Mutex
	walls []float64
	share []float64
	lanes []float64
}

// shareStrategies are the strategies whose seed groups the zero-draw share
// tier serves; the others run as lockstep lanes when they draw.
var shareStrategies = map[string]bool{"slow": true, "fast": true}
var laneStrategies = map[string]bool{"random": true, "skewed": true, "jittered": true}

// observe records one finished engine task. Fault-sweep tasks are left
// out of the strategy split: their faulted groups never batch.
func (tl *taskLog) observe(label string, wall time.Duration) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.walls = append(tl.walls, ms(wall))
	if len(label) >= 6 && label[:6] == "fault " {
		return
	}
	for _, f := range strings.Fields(label) {
		switch {
		case shareStrategies[f]:
			tl.share = append(tl.share, ms(wall))
			return
		case laneStrategies[f]:
			tl.lanes = append(tl.lanes, ms(wall))
			return
		}
	}
}

func (tl *taskLog) report(out *outcome) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	out.samples["engine.tasks"] = len(tl.walls)
	out.values["engine.task_p50_ms"] = percentile(append([]float64(nil), tl.walls...), 0.50)
	out.values["engine.task_p99_ms"] = percentile(append([]float64(nil), tl.walls...), 0.99)
	out.values["core.share_task_ms"] = mean(tl.share)
	out.values["core.lane_task_ms"] = mean(tl.lanes)
}
