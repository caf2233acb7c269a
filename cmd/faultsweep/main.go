// Command faultsweep runs the robustness sweep: every message-passing
// model's session algorithm executes under increasing fault intensity —
// crashes, step overruns, message drops, duplicates and late deliveries —
// and each run is audited rather than pass/failed. The output is a per-model
// robustness table: how many runs kept the session guarantee at each
// intensity, and the robustness margin (the largest intensity the model's
// algorithm survived across the whole run matrix).
//
// Fault schedules are deterministic: the plan seed for each run derives from
// -faultseed and the run's position in the matrix, so the table is
// byte-identical at any -parallelism.
//
// Usage:
//
//	faultsweep [-s N] [-n N] [-c1 N] [-c2 N] [-d1 N] [-d2 N] [-seeds N]
//	           [-intensities CSV] [-kinds CSV] [-faultseed N] [-maxsteps N]
//	           [-models CSV] [-perkind] [-parallelism N] [-timeout D]
//	           [-cache-dir DIR] [-journal FILE] [-resume] [-repair]
//
// Fault sweeps are the longest-running tool in the suite, so they are the
// main customer of the crash-safe journal: with -journal every completed
// run is fsynced to the journal file, a killed sweep rerun with -resume
// re-executes only the missing cells, and the merged table is
// byte-identical to an uninterrupted sweep. -repair truncates a damaged
// journal tail and exits.
//
// With -perkind, each fault kind is additionally swept in isolation and a
// per-kind margin table follows the main one, showing which fault class
// breaks each model's guarantee first. The main table is unaffected.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sessionproblem/internal/cmdflags"
	"sessionproblem/internal/fault"
	"sessionproblem/internal/harness"
	"sessionproblem/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "faultsweep:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("faultsweep", flag.ContinueOnError)
	p := cmdflags.RegisterProblem(fs)
	e := cmdflags.RegisterExec(fs)
	j := cmdflags.RegisterJournal(fs)
	intensities := fs.String("intensities", "", "comma-separated fault intensities in [0,1] (default 0,0.05,0.1,0.2,0.4,0.8)")
	kinds := fs.String("kinds", "", "comma-separated fault kinds to inject (default all): crash, step-overrun, stale-read, message-drop, message-duplicate, late-delivery")
	faultSeed := fs.Uint64("faultseed", 1, "base seed for fault plans")
	maxSteps := fs.Int("maxsteps", 0, "step cap per run (0 = default 200000); faulted runs may not terminate")
	models := fs.String("models", "", "comma-separated subset of model rows (default all): synchronous, periodic, semi-synchronous, sporadic, asynchronous")
	perKind := fs.Bool("perkind", false, "additionally sweep each fault kind alone and report per-kind robustness margins")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if done, err := j.Preflight(w); done || err != nil {
		return err
	}

	xs, err := parseIntensities(*intensities)
	if err != nil {
		return err
	}
	ks, err := parseKinds(*kinds)
	if err != nil {
		return err
	}

	ctx, cancel := e.Context(context.Background())
	defer cancel()
	eng, closeJournal, err := e.Engine(j)
	if err != nil {
		return err
	}
	defer closeJournal()
	cfg := harness.FaultSweepConfig{
		S: p.S, N: p.N,
		C1: sim.Duration(p.C1), C2: sim.Duration(p.C2),
		Cmin: sim.Duration(p.C1), Cmax: sim.Duration(p.C2),
		D1: sim.Duration(p.D1), D2: sim.Duration(p.D2),
		Seeds:       e.Seeds,
		Intensities: xs,
		Kinds:       ks,
		FaultSeed:   *faultSeed,
		MaxSteps:    *maxSteps,
		Models:      splitCSV(*models),
		PerKind:     *perKind,
		Parallelism: e.Parallelism,
		Engine:      eng,
		NoSeedBatch: !e.SeedBatching,
	}
	rows, err := harness.FaultSweep(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Robustness sweep: s=%d n=%d seeds=%d faultseed=%d\n\n", p.S, p.N, e.Seeds, *faultSeed)
	return harness.WriteFaultSweep(w, rows)
}

func splitCSV(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseIntensities(s string) ([]float64, error) {
	var out []float64
	for _, f := range splitCSV(s) {
		x, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad intensity %q: %w", f, err)
		}
		if x < 0 || x > 1 {
			return nil, fmt.Errorf("intensity %v outside [0,1]", x)
		}
		out = append(out, x)
	}
	return out, nil
}

func parseKinds(s string) ([]fault.Kind, error) {
	byName := make(map[string]fault.Kind)
	for _, k := range fault.AllKinds() {
		byName[k.String()] = k
	}
	var out []fault.Kind
	for _, f := range splitCSV(s) {
		k, ok := byName[f]
		if !ok {
			return nil, fmt.Errorf("unknown fault kind %q (want one of: crash, step-overrun, stale-read, message-drop, message-duplicate, late-delivery)", f)
		}
		out = append(out, k)
	}
	return out, nil
}
