package harness

import (
	"context"

	"sessionproblem/internal/alg/semisync"
	"sessionproblem/internal/alg/sporadic"
	"sessionproblem/internal/bounds"
	"sessionproblem/internal/core"
	"sessionproblem/internal/search"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
)

// TightnessRow compares, for one Table-1 cell, the paper's lower bound with
// the worst schedule the heuristic (Slow) strategy and the randomized local
// search can realize — an empirical measure of how tight the bounds are for
// the implemented algorithms.
type TightnessRow struct {
	Cell       string
	PaperLower float64
	PaperUpper float64
	SlowWorst  float64
	Searched   float64
}

// Tightness runs the lower-bound tightness experiment for the
// semi-synchronous and sporadic message-passing cells (the two with
// nontrivial min/max bound expressions).
func Tightness(cfg Config) ([]TightnessRow, error) {
	cfg = cfg.withDefaults()
	if err := checkSpec(cfg.S, cfg.N, 0, false); err != nil {
		return nil, err
	}
	var rows []TightnessRow
	p := bounds.Params{
		S: cfg.S, N: cfg.N, B: cfg.B,
		C1: cfg.C1, C2: cfg.C2,
		Cmin: cfg.Cmin, Cmax: cfg.Cmax,
		D1: cfg.D1, D2: cfg.D2,
		Gamma: cfg.C2,
	}

	// Semi-synchronous MP.
	{
		spec := core.Spec{S: cfg.S, N: cfg.N}
		m := timing.NewSemiSynchronous(cfg.C1, cfg.C2, cfg.D2)
		slowRep, err := core.RunMPStream(context.TODO(), semisync.NewMP(semisync.Auto), spec, m, timing.Slow, 1, nil, core.StreamOptions{})
		if err != nil {
			return nil, err
		}
		sr, err := search.SlowestMP(semisync.NewMP(semisync.Auto), spec, m,
			[]sim.Duration{cfg.C1, (cfg.C1 + cfg.C2) / 2, cfg.C2},
			[]sim.Duration{0, cfg.D2 / 2, cfg.D2},
			search.Options{Seed: 1})
		if err != nil {
			return nil, err
		}
		rows = append(rows, TightnessRow{
			Cell:       "semi-synchronous/MP",
			PaperLower: bounds.SemiSyncMPL(p),
			PaperUpper: bounds.SemiSyncMPU(p),
			SlowWorst:  float64(slowRep.Finish),
			Searched:   float64(sr.WorstFinish),
		})
	}

	// Sporadic MP (γ bounded by the largest gap choice, C2).
	{
		spec := core.Spec{S: cfg.S, N: cfg.N}
		m := timing.NewSporadic(cfg.C1, cfg.D1, cfg.D2, cfg.C2)
		slowRep, err := core.RunMPStream(context.TODO(), sporadic.NewMP(), spec, m, timing.Slow, 1, nil, core.StreamOptions{})
		if err != nil {
			return nil, err
		}
		sr, err := search.SlowestMP(sporadic.NewMP(), spec, m,
			[]sim.Duration{cfg.C1, cfg.C2},
			[]sim.Duration{cfg.D1, cfg.D2},
			search.Options{Seed: 1})
		if err != nil {
			return nil, err
		}
		rows = append(rows, TightnessRow{
			Cell:       "sporadic/MP",
			PaperLower: bounds.SporadicMPL(p),
			PaperUpper: bounds.SporadicMPU(p),
			SlowWorst:  float64(slowRep.Finish),
			Searched:   float64(sr.WorstFinish),
		})
	}
	return rows, nil
}
