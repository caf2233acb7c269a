// Command perfbench is the repository benchmark. It runs one of three
// workloads for a fixed time from a single load-generating process, checks
// every output, and prints one JSON object as the last line of standard
// output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (endToEnd in
// metrics.go); with --trace 1 a separate traced run prints the per-layer
// ones (perLayer). The lines before the last carry a record of the run:
// environment, workload seed, exact work counts and sample sizes.
//
// The workloads are described in README.md. Build and run from the
// repository root through the wrapper, which compiles this package and
// cmd/sessiond from source first:
//
//	bash perfbench/run.sh --workload artifacts --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line inputs every workload receives.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// toy shrinks every workload so that all three run in seconds; the
	// self-tests use it.
	toy bool
	// sessiond is the daemon binary the service workload starts.
	sessiond string
	// stateDir holds what a run leaves for later runs of the same
	// checkout: the exact work counts and the trace files.
	stateDir string
	stderr   io.Writer
}

func (o options) duration() time.Duration { return time.Duration(o.seconds) * time.Second }

// measured reports whether a run that started at start and has finished
// pass (counting from 0) has measured its time: whole passes only, at
// least two, and no further pass when more than half of it would fall
// past the end. (On artifacts a pass here is a pair of passes.)
func measured(start time.Time, pass int, o options) bool {
	if pass < 1 {
		return false
	}
	elapsed := time.Since(start)
	perPass := elapsed / time.Duration(pass+1)
	return elapsed+perPass/2 >= o.duration()
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: artifacts, service or scale")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 30, "how long the run measures")
	fs.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	fs.BoolVar(&o.toy, "toy", false, "toy sizes: every workload finishes in seconds")
	fs.StringVar(&o.sessiond, "sessiond", "", "sessiond binary for the service workload")
	fs.StringVar(&o.stateDir, "state-dir", ".bench_build/state", "directory for exact work counts, trace files and the daemon's directories")
	probe := fs.Bool("probe-start", false, "start the engine once and exit (the artifacts set-up probe)")
	pair := fs.Bool("pass-pair", false, "make a cold and a warm artifacts pass and print what they measured (the artifacts workload runs its passes so)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *probe {
		if err := probeStart(); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	o.trace = traceFlag == 1
	o.stderr = stderr
	if *pair {
		if err := runPassPair(context.Background(), o, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	}

	ctx := context.Background()
	var out *outcome
	var err error
	switch o.workload {
	case "artifacts":
		out, err = runArtifacts(ctx, o)
	case "service":
		out, err = runService(ctx, o)
	case "scale":
		out, err = runScale(ctx, o)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want artifacts, service or scale)\n", o.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := out.checkCounts(o); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := out.print(stdout, o); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// outcome is what a workload run hands back: the operations it attempted
// and how many failed a check, the metric values by name, and the record
// that accompanies them.
type outcome struct {
	attempted int
	failed    int
	// countsDiffer is set when the exact work counts did not repeat.
	countsDiffer bool
	values       map[string]float64
	// counts are the exact work counts of one pass; they must repeat
	// exactly for the same code, workload, seed and mode.
	counts map[string]int64
	// samples are the sample sizes behind the percentile metrics.
	samples map[string]int
	// detail are further measurements recorded with the result, such as
	// latencies by request class.
	detail map[string]float64
	// overheadFrac is the traced run's wall time over the untraced one,
	// minus one (traced runs only).
	overheadFrac *float64
	stderr       io.Writer
}

func newOutcome(o options) *outcome {
	return &outcome{
		values:  make(map[string]float64),
		counts:  make(map[string]int64),
		samples: make(map[string]int),
		detail:  make(map[string]float64),
		stderr:  o.stderr,
	}
}

// maxReasons bounds how many failure reasons a run writes to stderr.
const maxReasons = 20

// fail records one failed or wrong operation and says why on stderr.
func (out *outcome) fail(format string, args ...any) {
	out.failed++
	if out.failed <= maxReasons && out.stderr != nil {
		fmt.Fprintf(out.stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// correct reports whether every check passed and the work repeated.
func (out *outcome) correct() bool { return out.failed == 0 && !out.countsDiffer }

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the line before the result: what a reader needs to know to
// compare two results, and the exact work counts behind them. Results
// taken in different environments are not comparable.
type record struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Seconds      int                `json:"seconds"`
	Trace        bool               `json:"trace"`
	Toy          bool               `json:"toy,omitempty"`
	Env          environment        `json:"env"`
	Counts       map[string]int64   `json:"counts"`
	Samples      map[string]int     `json:"samples,omitempty"`
	Detail       map[string]float64 `json:"detail,omitempty"`
	OverheadFrac *float64           `json:"trace_overhead_frac,omitempty"`
}

func (out *outcome) result(o options) (result, error) {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.correct(),
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("%s: no operation was attempted", o.workload)
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok {
			if !o.trace {
				return res, fmt.Errorf("%s: end-to-end metric %s was not measured", o.workload, d.name)
			}
			// A layer the workload does not pass through reads zero.
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: finite(v), Unit: d.unit}
	}
	return res, nil
}

func (out *outcome) print(w io.Writer, o options) error {
	res, err := out.result(o)
	if err != nil {
		return err
	}
	rec := record{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Toy: o.toy,
		Env:     currentEnvironment(),
		Counts:  out.counts,
		Samples: out.samples,
		Detail:  out.detail,
	}
	if out.overheadFrac != nil {
		v := finite(*out.overheadFrac)
		rec.OverheadFrac = &v
	}
	recLine, err := json.Marshal(map[string]record{"record": rec})
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", recLine, resLine)
	return err
}
