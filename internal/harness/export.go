package harness

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV exports Table-1 cells as CSV with one row per cell, for plotting
// or regression tracking.
func WriteCSV(w io.Writer, cells []Cell) error {
	cw := csv.NewWriter(w)
	header := []string{
		"model", "comm", "unit", "paper_lower", "paper_upper",
		"measured_min", "measured_max", "measured_mean", "measured_p95",
		"runs", "verdict", "algorithm",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	for _, c := range cells {
		row := []string{
			c.Row, c.Comm, c.Unit, f(c.Lower), f(c.Upper),
			f(c.Measured.Min), f(c.Measured.Max), f(c.Measured.Mean), f(c.Measured.P95),
			strconv.Itoa(c.Measured.Count), c.Verdict(), c.Algorithm,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// GridPoint is one configuration in a Table-1 grid sweep.
type GridPoint struct {
	Config Config
	Cells  []Cell
	// Violations counts cells whose measured max escaped the paper bounds.
	Violations int
}

// GridCtx regenerates Table 1 at several (s, n) scales, keeping the timing
// constants of the base configuration, with cancellation threaded into
// every cell's run matrix. It reports per-point bound violations
// (expected: zero everywhere).
func GridCtx(ctx context.Context, base Config, scales []struct{ S, N int }) ([]GridPoint, error) {
	var out []GridPoint
	for _, sc := range scales {
		cfg := base
		cfg.S, cfg.N = sc.S, sc.N
		cells, err := Table1Ctx(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("grid s=%d n=%d: %w", sc.S, sc.N, err)
		}
		gp := GridPoint{Config: cfg, Cells: cells}
		for _, c := range cells {
			if c.Verdict() == "VIOLATION" {
				gp.Violations++
			}
		}
		out = append(out, gp)
	}
	return out, nil
}

// DefaultGridScales returns the (s, n) points cmd/sessiontable -grid uses.
func DefaultGridScales() []struct{ S, N int } {
	return []struct{ S, N int }{
		{2, 2}, {4, 4}, {6, 8}, {8, 16}, {12, 8},
	}
}

// WriteGrid renders grid results compactly: one line per (config, cell).
func WriteGrid(w io.Writer, points []GridPoint) error {
	for _, gp := range points {
		fmt.Fprintf(w, "--- s=%d n=%d b=%d c1=%v c2=%v d1=%v d2=%v (violations: %d)\n",
			gp.Config.S, gp.Config.N, gp.Config.B,
			gp.Config.C1, gp.Config.C2, gp.Config.D1, gp.Config.D2, gp.Violations)
		if err := WriteTable(w, gp.Cells); err != nil {
			return err
		}
	}
	return nil
}
