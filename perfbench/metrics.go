package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// metricDef names one printed metric and its unit. The lists below must
// match BENCHMARK.json; the self-tests hold the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// measures every one of them; README.md gives each workload's definition.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"runs_per_s", "runs/s"},
	{"steps_per_s", "steps/s"},
	{"req_per_s", "req/s"},
	{"warm_p50_ms", "ms"},
	{"warm_p99_ms", "ms"},
	{"cold_p50_ms", "ms"},
	{"cold_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, measured from outside the
// program by a traced run. A layer the workload does not pass through
// reads zero on that workload.
var perLayer = []metricDef{
	// engine worker pool
	{"engine.tasks", "count"},
	{"engine.busy_frac", "fraction"},
	{"engine.task_p50_ms", "ms"},
	{"engine.task_p99_ms", "ms"},
	// core seed-batching tiers
	{"core.batch_lanes", "count"},
	{"core.batch_forks", "count"},
	{"core.batch_fallbacks", "count"},
	{"core.batch_vs_solo", "ratio"},
	{"core.share_task_ms", "ms"},
	{"core.lane_task_ms", "ms"},
	// alg build
	{"alg.build_us", "us"},
	// timing scheduler
	{"timing.sched_calls", "count"},
	{"timing.draws", "count"},
	{"timing.sched_ns", "ns"},
	// alg step, tree relays
	{"alg.step_calls", "count"},
	{"alg.step_ns", "ns"},
	{"tree.relay_step_ns", "ns"},
	{"alg.gossip_step_ns", "ns"},
	// sm/mp executors with the sim calendar queue
	{"sm.exec_ns_per_step", "ns"},
	{"mp.exec_ns_per_step", "ns"},
	{"core.runs", "count"},
	{"core.steps", "count"},
	{"mp.messages", "count"},
	// model certification (materialized traces)
	{"model.certify_ns_per_step", "ns"},
	// certify (streaming)
	{"certify.observe_ns_per_step", "ns"},
	// core summary
	{"core.summarize_us", "us"},
	// fault injection
	{"fault.inject_calls", "count"},
	{"fault.faults", "count"},
	{"fault.run_us", "us"},
	// topo and tree build
	{"topo.build_s", "s"},
	{"tree.build_s", "s"},
	// tree memory and the Go runtime
	{"tree.knowledge_words_peak", "words"},
	{"go.heap_peak_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_frac", "fraction"},
	// engine run cache and the disk tier
	{"engine.cache_hit_ratio", "fraction"},
	{"engine.cache_misses", "count"},
	{"diskcache.mem_hits", "count"},
	{"diskcache.disk_hits", "count"},
	{"diskcache.entries", "count"},
	{"diskcache.corrupt", "count"},
	{"diskcache.write_errors", "count"},
	{"engine.mem_get_us", "us"},
	{"diskcache.disk_get_us", "us"},
	{"diskcache.put_us", "us"},
	// core summary codec
	{"core.encode_us", "us"},
	{"core.decode_us", "us"},
	// journal
	{"journal.append_us", "us"},
	{"journal.load_us", "us"},
	{"journal.bytes", "bytes"},
	// wire, facade, sessiond
	{"wire.marshal_us", "us"},
	{"wire.response_bytes", "bytes"},
	{"sessionproblem.warm_call_us", "us"},
	{"sessiond.heap_inuse_mb", "MB"},
	// the tracing itself
	{"trace.overhead_frac", "fraction"},
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs: a
// value that was actually measured. It sorts xs in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median of xs (the mean of the two middle values for an even count). It
// sorts xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies collects request latencies split by whether the request's
// input had already been answered when it was sent (warm) or not (cold).
type latencies struct{ warm, cold []float64 }

func (l *latencies) add(warm bool, d time.Duration) {
	if warm {
		l.warm = append(l.warm, ms(d))
	} else {
		l.cold = append(l.cold, ms(d))
	}
}

// report stores the four latency metrics and their sample sizes.
func (l *latencies) report(out *outcome) {
	out.samples["warm"] = len(l.warm)
	out.samples["cold"] = len(l.cold)
	out.values["warm_p50_ms"] = percentile(l.warm, 0.50)
	out.values["warm_p99_ms"] = percentile(l.warm, 0.99)
	out.values["cold_p50_ms"] = percentile(l.cold, 0.50)
	out.values["cold_p90_ms"] = percentile(l.cold, 0.90)
}

// callLatencies collects the latencies of a batch workload, whose every
// pass makes the same calls again. A call's latency in a run is the
// median of its samples, cold and warm apart, and the percentiles run
// over the calls. A pass that the host slowed then moves each call's
// median little, where a percentile pooled over a few samples per call
// would take the slowed sample whole.
type callLatencies struct{ cold, warm [][]float64 }

func newCallLatencies(calls int) *callLatencies {
	return &callLatencies{cold: make([][]float64, calls), warm: make([][]float64, calls)}
}

func (c *callLatencies) add(call int, warm bool, d time.Duration) {
	if warm {
		c.warm[call] = append(c.warm[call], ms(d))
	} else {
		c.cold[call] = append(c.cold[call], ms(d))
	}
}

// report stores the four latency metrics, the number of calls each
// percentile runs over and the number of samples behind them.
func (c *callLatencies) report(out *outcome) {
	var l latencies
	var cold, warm int
	for i := range c.cold {
		if n := len(c.cold[i]); n > 0 {
			cold += n
			l.cold = append(l.cold, median(slices.Clone(c.cold[i])))
		}
		if n := len(c.warm[i]); n > 0 {
			warm += n
			l.warm = append(l.warm, median(slices.Clone(c.warm[i])))
		}
	}
	l.report(out)
	out.samples["cold_calls"], out.samples["warm_calls"] = len(l.cold), len(l.warm)
	out.samples["cold"], out.samples["warm"] = cold, warm
}
