package harness

import (
	"context"

	"sessionproblem/internal/alg/registry"
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
// nontrivial min/max bound expressions). Every run, the searched schedules
// included, is trace-free and certified against the cell's model; ctx
// cancels the experiment mid-run.
func Tightness(ctx context.Context, cfg Config) ([]TightnessRow, error) {
	cfg = cfg.withDefaults()
	if err := CheckSpec(cfg.S, cfg.N, 0, false); err != nil {
		return nil, err
	}
	if err := CheckC1(cfg.C1); err != nil {
		return nil, err
	}
	// The sporadic cell's gaps are capped at C2, which also bounds γ.
	p := cfg.params()
	p.Gamma = cfg.C2
	// The search's gap and delay choices lie in each model's admissible
	// ranges: both ends, and the middle for the semi-synchronous cell.
	searches := []struct {
		name         string
		gaps, delays []sim.Duration
	}{
		{"semisync", []sim.Duration{cfg.C1, (cfg.C1 + cfg.C2) / 2, cfg.C2}, []sim.Duration{0, cfg.D2 / 2, cfg.D2}},
		{"sporadic", []sim.Duration{cfg.C1, cfg.C2}, []sim.Duration{cfg.D1, cfg.D2}},
	}
	spec := core.Spec{S: cfg.S, N: cfg.N}
	rows := make([]TightnessRow, len(searches))
	for i, sc := range searches {
		c, _ := registry.Find(sc.name, "MP")
		m := c.Timing(p, cfg.C2)
		slow, err := core.RunMPStream(ctx, c.MP, spec, m, timing.Slow, 1, nil, core.StreamOptions{})
		if err != nil {
			return nil, err
		}
		sr, err := search.SlowestMP(ctx, c.MP, spec, m, sc.gaps, sc.delays, search.Options{Seed: 1})
		if err != nil {
			return nil, err
		}
		lower, upper := c.Bounds(p)
		rows[i] = TightnessRow{
			Cell:       c.Row + "/" + c.Comm,
			PaperLower: lower,
			PaperUpper: upper,
			SlowWorst:  float64(slow.Finish),
			Searched:   float64(sr.WorstFinish),
		}
	}
	return rows, nil
}
