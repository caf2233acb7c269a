// Command sessiontable regenerates the paper's Table 1: upper and lower
// bounds on the running time of the (s, n)-session problem under five
// timing models in both shared-memory and message-passing systems. For each
// cell it runs the corresponding algorithm across all scheduling strategies
// and seeds, and reports the measured worst case against the paper's bound
// formulas.
//
// The full run matrix (cell × strategy × seed) fans across a worker pool;
// -parallelism picks the width (default GOMAXPROCS) and the output is
// byte-identical at any setting. -timeout bounds the whole regeneration,
// cancelling in-flight simulations. -cache-dir persists verified run
// summaries on disk, so repeated regenerations reuse earlier work — even
// work done by other tools or the sessiond daemon sharing the directory.
//
// -json emits the table as a versioned wire envelope (package wire), byte
// for byte identical to the sessiond daemon's POST /v1/table1 response for
// the same parameters.
//
// Usage:
//
// -journal makes the regeneration crash-safe: every completed run is
// appended to the journal file, and rerunning with -resume replays the
// survivors and re-executes only the missing cells — the output is
// byte-identical to an uninterrupted run. -repair truncates a damaged
// journal tail and exits.
//
// Usage:
//
//	sessiontable [-s N] [-n N] [-b N] [-c1 N] [-c2 N] [-d1 N] [-d2 N] [-seeds N]
//	             [-parallelism N] [-timeout D] [-cache-dir DIR] [-json]
//	             [-journal FILE] [-resume] [-repair]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"sessionproblem"
	"sessionproblem/internal/cmdflags"
	"sessionproblem/internal/harness"
	"sessionproblem/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sessiontable:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sessiontable", flag.ContinueOnError)
	p := cmdflags.RegisterProblem(fs)
	e := cmdflags.RegisterExec(fs)
	j := cmdflags.RegisterJournal(fs)
	grid := fs.Bool("grid", false, "regenerate the table at several (s,n) scales")
	asCSV := fs.Bool("csv", false, "emit CSV instead of the aligned table")
	asJSON := fs.Bool("json", false, "emit the versioned wire envelope (identical to sessiond's /v1/table1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if done, err := j.Preflight(os.Stdout); done || err != nil {
		return err
	}

	ctx, cancel := e.Context(context.Background())
	defer cancel()
	if *asJSON {
		if *grid || *asCSV {
			return fmt.Errorf("-json cannot combine with -grid or -csv")
		}
		opts := append(cmdflags.Options(p, e), j.Options()...)
		res, err := sessionproblem.Table1(ctx, opts...)
		if err != nil {
			return err
		}
		data, err := wire.MarshalTable(res.Cells)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}

	eng, closeJournal, err := e.Engine(j)
	if err != nil {
		return err
	}
	defer closeJournal()
	cfg := p.HarnessConfig(e, eng)
	if *grid {
		points, err := harness.GridCtx(ctx, cfg, harness.DefaultGridScales())
		if err != nil {
			return err
		}
		if *asCSV {
			for _, gp := range points {
				fmt.Printf("# s=%d n=%d\n", gp.Config.S, gp.Config.N)
				if err := harness.WriteCSV(os.Stdout, gp.Cells); err != nil {
					return err
				}
			}
			return nil
		}
		return harness.WriteGrid(os.Stdout, points)
	}
	cells, err := harness.Table1Ctx(ctx, cfg)
	if err != nil {
		return err
	}
	if *asCSV {
		return harness.WriteCSV(os.Stdout, cells)
	}
	fmt.Printf("Table 1 reproduction: s=%d n=%d b=%d c1=%d c2=%d d1=%d d2=%d (cmin=c1, cmax=c2)\n\n",
		cfg.S, cfg.N, cfg.B, p.C1, p.C2, p.D1, p.D2)
	if err := harness.WriteTable(os.Stdout, cells); err != nil {
		return err
	}
	fmt.Println("\nnotes:")
	fmt.Println("  - asynchronous SM is measured in rounds ([2]); all other rows in ticks")
	fmt.Println("  - the sporadic SM row equals the asynchronous SM row (paper Table 1)")
	fmt.Println("  - the sporadic MP upper bound uses the per-computation gamma (Theorem 6.1)")
	return nil
}
