// Command sessionsim runs one session-problem algorithm under one timing
// model and prints the verified execution report, optionally with the full
// timed computation.
//
// Usage:
//
//	sessionsim -alg periodic -comm mp [-s N] [-n N] [-b N] [-c1 N] [-c2 N]
//	           [-d1 N] [-d2 N] [-strategy random] [-seed N] [-cache-dir DIR]
//	           [-json] [-trace] [-timeline] [-trace-json]
//
// Algorithms: synchronous, periodic, semisync, sporadic (MP only), async.
// The timing model is implied by the algorithm: each runs under the model
// it is designed for.
//
// -json emits the report as a versioned wire envelope (package wire), byte
// for byte identical to the sessiond daemon's POST /v1/solve response for
// the same parameters. The trace flags (-trace, -timeline, -trace-json)
// print the timed computation itself and run the simulator directly on the
// Table-1 cell Solve runs (internal/alg/registry); the report paths go
// through the public API and its run cache.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"sessionproblem"
	"sessionproblem/internal/alg/registry"
	"sessionproblem/internal/bounds"
	"sessionproblem/internal/cmdflags"
	"sessionproblem/internal/core"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
	"sessionproblem/internal/trace"
	"sessionproblem/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sessionsim:", err)
		os.Exit(1)
	}
}

// cell resolves -alg and -comm to their Table-1 cell. The -alg names are
// the facade's model names.
func cell(alg, comm string) (registry.Cell, error) {
	if comm != "sm" && comm != "mp" {
		return registry.Cell{}, fmt.Errorf("unknown communication model %q (want sm or mp)", comm)
	}
	c, ok := registry.Find(alg, strings.ToUpper(comm))
	switch {
	case ok:
		return c, nil
	case alg == "sporadic":
		return c, fmt.Errorf("the sporadic SM model equals the asynchronous SM model; use -alg async")
	default:
		return c, fmt.Errorf("unknown algorithm %q (want synchronous, periodic, semisync, sporadic or async)", alg)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sessionsim", flag.ContinueOnError)
	algName := fs.String("alg", "periodic", "algorithm: synchronous, periodic, semisync, sporadic, async")
	comm := fs.String("comm", "mp", "communication model: sm or mp")
	p := cmdflags.RegisterProblem(fs)
	e := cmdflags.RegisterExec(fs)
	strategyName := fs.String("strategy", "random", "schedule strategy: random, slow, fast, skewed, jittered")
	seed := fs.Uint64("seed", 1, "schedule seed")
	showTrace := fs.Bool("trace", false, "print the timed computation")
	showTimeline := fs.Bool("timeline", false, "print an ASCII timeline of the computation")
	jsonOut := fs.Bool("json", false, "emit the report as a versioned wire envelope (identical to sessiond's /v1/solve)")
	traceJSON := fs.Bool("trace-json", false, "emit the trace as JSON (runs the simulator directly)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	c, err := cell(*algName, *comm)
	if err != nil {
		return err
	}
	if *showTrace || *showTimeline || *traceJSON {
		if *jsonOut {
			return fmt.Errorf("-json cannot combine with the trace flags; use -trace-json for the trace")
		}
		return runWithTrace(p, e, c, *strategyName, *seed, *showTrace, *showTimeline, *traceJSON)
	}

	opts := append(cmdflags.Options(p, e),
		sessionproblem.WithSchedule(*strategyName, *seed))
	rep, err := sessionproblem.Solve(context.Background(),
		sessionproblem.Model(*algName), sessionproblem.Comm(*comm), opts...)
	if err != nil {
		return err
	}

	if *jsonOut {
		data, err := wire.MarshalReport(rep)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	fmt.Printf("algorithm:  %s\n", rep.Algorithm)
	fmt.Printf("model:      %s (%s)\n", rep.Model, *comm)
	fmt.Printf("spec:       s=%d n=%d b=%d\n", p.S, p.N, p.B)
	fmt.Printf("strategy:   %s seed=%d\n", *strategyName, *seed)
	fmt.Printf("finish:     %v ticks (all ports idle)\n", rep.Finish)
	fmt.Printf("sessions:   %d (needed %d)\n", rep.Sessions, p.S)
	fmt.Printf("rounds:     %d\n", rep.Rounds)
	fmt.Printf("gamma:      %v (largest step time)\n", rep.Gamma)
	if rep.Messages > 0 {
		fmt.Printf("broadcasts: %d\n", rep.Messages)
	}
	fmt.Printf("steps:      %d\n", rep.Steps)
	return nil
}

// runWithTrace runs the simulator directly — the report paths go through
// the public API, but the API (rightly) does not expose the full timed
// computation, so the trace flags keep the direct path. It runs the cell's
// algorithm under the timing model Solve builds from the same flags.
func runWithTrace(p *cmdflags.Problem, e *cmdflags.Exec, c registry.Cell, strategyName string, seed uint64, showTrace, showTimeline, traceJSON bool) error {
	st, err := parseStrategy(strategyName)
	if err != nil {
		return err
	}
	ctx, cancel := e.Context(context.Background())
	defer cancel()
	c1, c2 := sim.Duration(p.C1), sim.Duration(p.C2)
	m := c.Timing(bounds.Params{C1: c1, C2: c2, Cmin: c1, Cmax: c2, D1: sim.Duration(p.D1), D2: sim.Duration(p.D2)}, 0)
	spec := c.Spec(p.S, p.N, p.B)
	var rep *core.Report
	if c.SM != nil {
		rep, err = core.RunSMContext(ctx, c.SM, spec, m, st, seed)
	} else {
		rep, err = core.RunMPContext(ctx, c.MP, spec, m, st, seed)
	}
	if err != nil {
		return err
	}

	if traceJSON {
		return trace.WriteJSON(os.Stdout, rep.Trace)
	}
	if showTimeline {
		if err := trace.Timeline(os.Stdout, rep.Trace, 100); err != nil {
			return err
		}
	}
	if showTrace {
		if showTimeline {
			fmt.Println()
		}
		return trace.Render(os.Stdout, rep.Trace, 200)
	}
	return nil
}

func parseStrategy(name string) (timing.Strategy, error) {
	for _, st := range timing.AllStrategies() {
		if st.String() == name {
			return st, nil
		}
	}
	return 0, fmt.Errorf("unknown strategy %q", name)
}
