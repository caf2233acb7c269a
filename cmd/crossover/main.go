// Command crossover reproduces the paper's model-comparison claims from
// Section 1 as parameter sweeps:
//
//	f1     sporadic per-session time as d1 sweeps 0 -> d2 (sync/async crossover)
//	f2     periodic vs semi-synchronous running time as s grows
//	f3     periodic vs sporadic running time as cmax grows
//	f4     worst-case running time of all five models at one parameter point
//	f5     the diameter conversion: async algorithm over point-to-point topologies
//	f6     sporadic vs semi-synchronous (the paper's open question)
//	f7     clocks vs messages: causal certification ratio of A(sp) advances
//	tight  lower-bound tightness via randomized schedule search
//
// Usage:
//
//	crossover [-exp f1|...|f7|tight|all] [-seeds N] [-parallelism N]
//	          [-timeout D] [-cache-dir DIR] [-journal FILE] [-resume] [-repair]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"sessionproblem/internal/cmdflags"
	"sessionproblem/internal/harness"
	"sessionproblem/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "crossover:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("crossover", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: f1, f2, f3, f4, f5, f6, f7, tight or all")
	e := cmdflags.RegisterExec(fs)
	j := cmdflags.RegisterJournal(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if done, err := j.Preflight(os.Stdout); done || err != nil {
		return err
	}

	ctx, cancel := e.Context(context.Background())
	defer cancel()
	eng, closeJournal, err := e.Engine(j)
	if err != nil {
		return err
	}
	defer closeJournal()
	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if want("f1") {
		ran = true
		pts, err := harness.Sweep(ctx, harness.SweepSpec{
			Kind: harness.SweepKindSporadicDelay,
			S:    6, N: 4, C1: 2, D2: 40,
			Steps: 9, Seeds: e.Seeds,
			Engine: eng, NoSeedBatch: !e.SeedBatching,
		})
		if err != nil {
			return err
		}
		if err := harness.WriteSweep(os.Stdout,
			"F1: sporadic A(sp) per-session time vs d1/d2 (s=6 n=4 c1=2 d2=40)",
			"d1/d2", "measured/session", "paper L/session", "paper U/session", pts); err != nil {
			return err
		}
		fmt.Println("  claim: d1->d2 behaves synchronously (O(γ)); d1->0 asynchronously (~d2)")
		fmt.Println()
	}
	if want("f2") {
		ran = true
		pts, err := harness.Sweep(ctx, harness.SweepSpec{
			Kind: harness.SweepKindPeriodicVsSemiSync,
			N:    4, C1: 2, C2: 10, D2: 30,
			MaxS: 10, Seeds: e.Seeds,
			Engine: eng, NoSeedBatch: !e.SeedBatching,
		})
		if err != nil {
			return err
		}
		if err := harness.WriteSweep(os.Stdout,
			"F2: periodic A(p) vs semi-synchronous (n=4 c1=2 c2=cmax=10 d2=30)",
			"s", "periodic", "periodic", "semi-sync", pts); err != nil {
			return err
		}
		fmt.Println("  claim: periodic wins when cmax=c2, 2c1<c2 and n constant relative to s")
		fmt.Println()
	}
	if want("f3") {
		ran = true
		cmaxs := []sim.Duration{2, 4, 8, 16, 32, 64}
		pts, err := harness.Sweep(ctx, harness.SweepSpec{
			Kind: harness.SweepKindPeriodicVsSporadic,
			S:    5, N: 3, C1: 2, D1: 4, D2: 28,
			Cmaxs: cmaxs, Seeds: e.Seeds,
			Engine: eng, NoSeedBatch: !e.SeedBatching,
		})
		if err != nil {
			return err
		}
		if err := harness.WriteSweep(os.Stdout,
			"F3: periodic A(p) vs sporadic A(sp) baseline (s=5 n=3 c1=2 d1=4 d2=28)",
			"cmax", "periodic", "(unused)", "sporadic baseline", pts); err != nil {
			return err
		}
		fmt.Println("  claim: periodic wins while cmax < floor(u/4c1)*K")
		fmt.Println()
	}
	if want("f4") {
		ran = true
		cfg := harness.Default()
		cfg.Seeds = e.Seeds
		cfg.Engine = eng
		cfg.NoSeedBatch = !e.SeedBatching
		rows, err := harness.HierarchyCtx(ctx, cfg)
		if err != nil {
			return err
		}
		if err := harness.WriteHierarchy(os.Stdout, rows); err != nil {
			return err
		}
		fmt.Println()
	}
	if want("f5") {
		ran = true
		pts, err := harness.SweepDiameter(ctx, 3, 8, 3, 10, e.Seeds, e.Topologies()...)
		if err != nil {
			return err
		}
		fmt.Println("# F5: diameter conversion — async algorithm over point-to-point topologies")
		fmt.Println("#     (s=3 n=8 c2=3, per-hop delay in [0,10]; d2_eff = diameter*10)")
		fmt.Println("TOPOLOGY   DIAM  D2_EFF  MEASURED  PAPER U((s-1)(d2_eff+c2)+c2)")
		for _, p := range pts {
			fmt.Printf("%-10s %-5d %-7v %-9.0f %.0f\n",
				p.Topology, p.Diameter, p.EffectiveD2, p.Measured, p.PaperUpper)
		}
		fmt.Println("  claim: d2 subsumes the diameter factor (paper Section 1, conversion note 1)")
		fmt.Println()
	}
	if want("f6") {
		ran = true
		pts, err := harness.Sweep(ctx, harness.SweepSpec{
			Kind: harness.SweepKindSporadicVsSemiSync,
			S:    5, N: 3, C1: 2, C2: 10, D2: 28,
			Steps: 8, Seeds: e.Seeds,
			Engine: eng, NoSeedBatch: !e.SeedBatching,
		})
		if err != nil {
			return err
		}
		fmt.Println("# F6: sporadic vs semi-synchronous, message passing — the paper's open question")
		fmt.Println("#     (s=5 n=3 c1=2 c2=10 d2=28; sporadic gaps capped at c2 for a fair race)")
		fmt.Println("u=d2-d1  semi-sync  sporadic  winner")
		for _, p := range pts {
			winner := "semi-sync"
			if p.Measured < p.PaperUpper {
				winner = "sporadic"
			}
			fmt.Printf("%-8v %-10.0f %-9.0f %s\n", sim.Duration(p.X), p.PaperUpper, p.Measured, winner)
		}
		fmt.Println("  paper: \"rather unclear and requires further study\" — the winner flips with u")
		fmt.Println()
	}
	if want("f7") {
		ran = true
		pts, err := harness.SweepCausality(8, 3, 2, 24, 7, 1)
		if err != nil {
			return err
		}
		fmt.Println("# F7: clocks vs messages — causal certification of A(sp) advances")
		fmt.Println("#     (s=8 n=3 c1=2 d2=24, fastest admissible stepping; d1 sweeps 0 -> d2)")
		fmt.Println("u=d2-d1  causal ratio  finish")
		for _, p := range pts {
			fmt.Printf("%-8v %-13.2f %v\n", p.U, p.CausalRatio, p.Finish)
		}
		fmt.Println("  paper thesis, quantified: as u shrinks, synchronization shifts from message")
		fmt.Println("  chains (ratio 1.0) to timing inference (ratio -> 0) and the run gets faster")
		fmt.Println()
	}
	if want("tight") {
		ran = true
		rows, err := harness.Tightness(harness.Default())
		if err != nil {
			return err
		}
		fmt.Println("# tightness: how close schedules get to the lower bounds")
		fmt.Println("CELL                 PAPER L  SLOW HEURISTIC  SEARCHED  PAPER U")
		for _, r := range rows {
			fmt.Printf("%-20s %-8.0f %-15.0f %-9.0f %.0f\n",
				r.Cell, r.PaperLower, r.SlowWorst, r.Searched, r.PaperUpper)
		}
		fmt.Println("  (searched = randomized local search over gap/delay assignments)")
		fmt.Println()
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want f1..f7, tight, or all)", *exp)
	}
	return nil
}
