package harness

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"sessionproblem/internal/sim"
)

func smallConfig() Config {
	return Config{
		S: 3, N: 4, B: 3,
		C1: 2, C2: 10,
		Cmin: 2, Cmax: 10,
		D1: 4, D2: 28,
		Seeds: 2,
	}
}

func TestTable1AllCellsWithinBounds(t *testing.T) {
	cells, err := Table1Ctx(context.Background(), smallConfig())
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(cells) != 9 {
		t.Fatalf("cells: got %d, want 9", len(cells))
	}
	for _, c := range cells {
		if !c.RespectsUpper {
			t.Errorf("%s/%s: measured max %.0f exceeds paper upper %.0f",
				c.Row, c.Comm, c.Measured.Max, c.Upper)
		}
		if !c.RealizesLower {
			t.Errorf("%s/%s: no schedule realized the lower bound %.0f (max %.0f)",
				c.Row, c.Comm, c.Lower, c.Measured.Max)
		}
		if c.Measured.Count == 0 {
			t.Errorf("%s/%s: no measurements", c.Row, c.Comm)
		}
	}
}

func TestTable1RowCoverage(t *testing.T) {
	cells, err := Table1Ctx(context.Background(), smallConfig())
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	seen := make(map[string]bool)
	for _, c := range cells {
		seen[c.Row+"/"+c.Comm] = true
	}
	for _, want := range []string{
		"synchronous/SM", "synchronous/MP",
		"periodic/SM", "periodic/MP",
		"semi-synchronous/SM", "semi-synchronous/MP",
		"sporadic/MP",
		"asynchronous/SM", "asynchronous/MP",
	} {
		if !seen[want] {
			t.Errorf("missing cell %s", want)
		}
	}
}

func TestTable1SynchronousExact(t *testing.T) {
	cfg := smallConfig()
	cells, err := Table1Ctx(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	for _, c := range cells {
		if c.Row != "synchronous" {
			continue
		}
		want := float64(cfg.S) * float64(cfg.C2)
		if c.Measured.Min != want || c.Measured.Max != want {
			t.Errorf("synchronous/%s: measured [%v,%v], want exactly %v",
				c.Comm, c.Measured.Min, c.Measured.Max, want)
		}
	}
}

func TestWriteTable(t *testing.T) {
	cells, err := Table1Ctx(context.Background(), smallConfig())
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, cells); err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"MODEL", "periodic", "sporadic", "ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestVerdict(t *testing.T) {
	c := Cell{RealizesLower: true, RespectsUpper: true}
	if c.Verdict() != "ok" {
		t.Error("verdict ok wrong")
	}
	c.RealizesLower = false
	if c.Verdict() != "upper-only" {
		t.Error("verdict upper-only wrong")
	}
	c.RespectsUpper = false
	if c.Verdict() != "VIOLATION" {
		t.Error("verdict violation wrong")
	}
}

func TestSweepSporadicDelayShape(t *testing.T) {
	pts, err := Sweep(context.Background(), SweepSpec{
		Kind: SweepKindSporadicDelay,
		S:    5, N: 3, C1: 2, D2: 40,
		Steps: 5, Seeds: 1,
	})
	if err != nil {
		t.Fatalf("Sweep(SweepKindSporadicDelay): %v", err)
	}
	if len(pts) != 5 {
		t.Fatalf("points: got %d", len(pts))
	}
	// The crossover claim: per-session time at u=0 (d1=d2, last point) is
	// smaller than at u=d2 (d1=0, first point).
	first, last := pts[0], pts[len(pts)-1]
	if last.Measured >= first.Measured {
		t.Errorf("per-session time should fall as d1 -> d2: first=%.1f last=%.1f",
			first.Measured, last.Measured)
	}
	// X values span [0, 1].
	if first.X != 0 || last.X != 1 {
		t.Errorf("x range: [%v, %v]", first.X, last.X)
	}
}

func TestSweepPeriodicVsSemiSync(t *testing.T) {
	// cmax = c2 = 10, c1 = 2 (2c1 < c2), n small: the periodic algorithm
	// must be at least as fast for growing s.
	pts, err := Sweep(context.Background(), SweepSpec{
		Kind: SweepKindPeriodicVsSemiSync,
		N:    3, C1: 2, C2: 10, D2: 30,
		MaxS: 6, Seeds: 1,
	})
	if err != nil {
		t.Fatalf("Sweep(SweepKindPeriodicVsSemiSync): %v", err)
	}
	if len(pts) != 5 {
		t.Fatalf("points: got %d", len(pts))
	}
	wins := 0
	for _, p := range pts {
		if p.PaperLower <= p.PaperUpper { // periodic <= semisync
			wins++
		}
	}
	if wins < len(pts)-1 {
		t.Errorf("periodic won only %d/%d points; paper predicts dominance here", wins, len(pts))
	}
}

func TestSweepPeriodicVsSporadic(t *testing.T) {
	cmaxs := []sim.Duration{2, 6, 12, 24, 48}
	pts, err := Sweep(context.Background(), SweepSpec{
		Kind: SweepKindPeriodicVsSporadic,
		S:    4, N: 3, C1: 2, D1: 4, D2: 28,
		Cmaxs: cmaxs, Seeds: 1,
	})
	if err != nil {
		t.Fatalf("Sweep(SweepKindPeriodicVsSporadic): %v", err)
	}
	if len(pts) != len(cmaxs) {
		t.Fatalf("points: got %d", len(pts))
	}
	// The periodic running time grows with cmax and eventually crosses the
	// sporadic baseline.
	if pts[0].Measured >= pts[len(pts)-1].Measured {
		t.Error("periodic running time should grow with cmax")
	}
	if pts[0].Measured >= pts[0].PaperUpper {
		t.Errorf("at small cmax periodic (%.0f) should beat sporadic (%.0f)",
			pts[0].Measured, pts[0].PaperUpper)
	}
	if pts[len(pts)-1].Measured <= pts[len(pts)-1].PaperUpper {
		t.Errorf("at large cmax sporadic (%.0f) should beat periodic (%.0f)",
			pts[len(pts)-1].PaperUpper, pts[len(pts)-1].Measured)
	}
}

func TestHierarchyOrdering(t *testing.T) {
	rows, err := HierarchyCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatalf("Hierarchy: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows: got %d", len(rows))
	}
	byName := make(map[string]float64)
	for _, r := range rows {
		byName[r.Model] = r.Measured
	}
	// The headline hierarchy: synchronous <= periodic <= asynchronous.
	if !(byName["synchronous"] <= byName["periodic"] && byName["periodic"] <= byName["asynchronous"]) {
		t.Errorf("hierarchy violated: sync=%.0f periodic=%.0f async=%.0f",
			byName["synchronous"], byName["periodic"], byName["asynchronous"])
	}
}

func TestWriteSweepAndHierarchy(t *testing.T) {
	pts := []SweepPoint{{X: 1, Label: "a", Measured: 2, PaperLower: 1, PaperUpper: 3}}
	var buf bytes.Buffer
	if err := WriteSweep(&buf, "t", "x", "m", "lo", "hi", pts); err != nil {
		t.Fatalf("WriteSweep: %v", err)
	}
	if !strings.Contains(buf.String(), "# t") {
		t.Error("sweep title missing")
	}
	rows := []HierarchyRow{{Model: "m", Unit: "time", Measured: 5, Algorithm: "a"}}
	buf.Reset()
	if err := WriteHierarchy(&buf, rows); err != nil {
		t.Fatalf("WriteHierarchy: %v", err)
	}
	if !strings.Contains(buf.String(), "MODEL") {
		t.Error("hierarchy header missing")
	}
}

func TestSweepDiameter(t *testing.T) {
	pts, err := SweepDiameter(context.Background(), 3, 6, 3, 10, 1)
	if err != nil {
		t.Fatalf("SweepDiameter: %v", err)
	}
	if len(pts) != 4 {
		t.Fatalf("points: got %d", len(pts))
	}
	for _, p := range pts {
		if p.Measured > p.PaperUpper {
			t.Errorf("%s: measured %.0f exceeds converted bound %.0f",
				p.Topology, p.Measured, p.PaperUpper)
		}
	}
	// Diameter ordering must show through: line slower than complete.
	byName := make(map[string]DiameterPoint)
	for _, p := range pts {
		byName[p.Topology] = p
	}
	if byName["line"].Measured <= byName["complete"].Measured {
		t.Errorf("line (%.0f) should be slower than complete (%.0f)",
			byName["line"].Measured, byName["complete"].Measured)
	}
	if byName["complete"].Diameter != 1 || byName["line"].Diameter != 5 {
		t.Errorf("diameters wrong: %+v", byName)
	}
}

// TestSweepDiameterHonoursCancellation: a cancelled context stops the F5
// sweep with context.Canceled instead of running every topology.
func TestSweepDiameterHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SweepDiameter(ctx, 3, 6, 3, 10, 2, "ring", "grid"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled F5 sweep returned %v, want context.Canceled", err)
	}
}

func TestSweepSporadicVsSemiSync(t *testing.T) {
	pts, err := SweepSporadicVsSemiSync(4, 3, 2, 10, 28, 4, 1)
	if err != nil {
		t.Fatalf("SweepSporadicVsSemiSync: %v", err)
	}
	// The points F6 gave when it ran its baseline at every point.
	want := []FutureWorkPoint{
		{U: 0, SemiSync: 100, Sporadic: 80, SporadicWins: true},
		{U: 9, SemiSync: 100, Sporadic: 100},
		{U: 18, SemiSync: 100, Sporadic: 100},
		{U: 28, SemiSync: 100, Sporadic: 100},
	}
	if !reflect.DeepEqual(pts, want) {
		t.Fatalf("points:\n got %+v\nwant %+v", pts, want)
	}
	// u sweeps upward from 0 to d2.
	if pts[0].U != 0 || pts[len(pts)-1].U != 28 {
		t.Errorf("u range: [%v, %v]", pts[0].U, pts[len(pts)-1].U)
	}
	// At u=0 the sporadic algorithm can certify sessions with B=1 step
	// counting and should win the worst case.
	if !pts[0].SporadicWins {
		t.Errorf("at u=0 sporadic (%.0f) should beat semi-sync (%.0f)",
			pts[0].Sporadic, pts[0].SemiSync)
	}
}

func TestWriteCSV(t *testing.T) {
	cells, err := Table1Ctx(context.Background(), smallConfig())
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, cells); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(cells)+1 {
		t.Errorf("csv lines: got %d, want %d", len(lines), len(cells)+1)
	}
	if !strings.HasPrefix(lines[0], "model,comm,unit") {
		t.Errorf("header wrong: %q", lines[0])
	}
	for _, line := range lines[1:] {
		if fields := strings.Split(line, ","); len(fields) != 12 {
			t.Errorf("row has %d fields: %q", len(fields), line)
		}
	}
}

func TestGrid(t *testing.T) {
	base := smallConfig()
	points, err := GridCtx(context.Background(), base, []struct{ S, N int }{{2, 2}, {3, 4}})
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	if len(points) != 2 {
		t.Fatalf("points: got %d", len(points))
	}
	for _, gp := range points {
		if gp.Violations != 0 {
			t.Errorf("s=%d n=%d: %d violations", gp.Config.S, gp.Config.N, gp.Violations)
		}
		if len(gp.Cells) != 9 {
			t.Errorf("s=%d n=%d: %d cells", gp.Config.S, gp.Config.N, len(gp.Cells))
		}
	}
	var buf bytes.Buffer
	if err := WriteGrid(&buf, points); err != nil {
		t.Fatalf("WriteGrid: %v", err)
	}
	if got := strings.Count(buf.String(), "--- s="); got != 2 {
		t.Errorf("grid headers: got %d", got)
	}
}

func TestSweepCausality(t *testing.T) {
	pts, err := SweepCausality(6, 3, 2, 24, 5, 1)
	if err != nil {
		t.Fatalf("SweepCausality: %v", err)
	}
	if len(pts) != 5 {
		t.Fatalf("points: got %d", len(pts))
	}
	// First point: d1 = 0, u = d2 — fully causal.
	if pts[0].U != 24 || pts[0].CausalRatio != 1 {
		t.Errorf("u=d2 point: %+v, want ratio 1", pts[0])
	}
	// Last point: u = 0 — dominated by timing inference.
	last := pts[len(pts)-1]
	if last.U != 0 || last.CausalRatio > 0.5 {
		t.Errorf("u=0 point: %+v, want ratio <= 0.5", last)
	}
}

func TestTightness(t *testing.T) {
	cfg := smallConfig()
	rows, err := Tightness(cfg)
	if err != nil {
		t.Fatalf("Tightness: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: got %d", len(rows))
	}
	for _, r := range rows {
		if r.Searched > r.PaperUpper {
			t.Errorf("%s: searched %.0f exceeds paper upper %.0f", r.Cell, r.Searched, r.PaperUpper)
		}
		if r.Searched < r.SlowWorst*0.8 {
			t.Errorf("%s: search (%.0f) far below the Slow heuristic (%.0f)",
				r.Cell, r.Searched, r.SlowWorst)
		}
		if r.PaperLower > r.PaperUpper {
			t.Errorf("%s: L %.0f > U %.0f", r.Cell, r.PaperLower, r.PaperUpper)
		}
	}
}

func TestDefaultGridScales(t *testing.T) {
	scales := DefaultGridScales()
	if len(scales) < 3 {
		t.Error("too few grid scales")
	}
	for _, sc := range scales {
		if sc.S < 2 || sc.N < 2 {
			t.Errorf("degenerate scale %+v", sc)
		}
	}
}

func TestDefaultConfigValid(t *testing.T) {
	cfg := Default()
	if cfg.S < 2 || cfg.N < 2 || cfg.B < 2 {
		t.Error("default config degenerate")
	}
	if cfg.C1*2 >= cfg.C2 {
		t.Error("default config should have 2c1 < c2 to exercise the min expressions")
	}
	if (cfg.D1+cfg.D2)%4 != 0 {
		t.Error("default config should satisfy the retiming exactness condition")
	}
}

// TestInvalidSpecsRejected: every entry point that computes bounds returns
// an error for s or n below 1, and Table 1 and the grid for an access bound
// below 2, instead of panicking in the bound formulas.
func TestInvalidSpecsRejected(t *testing.T) {
	ctx := context.Background()
	with := func(f func(*Config)) Config {
		cfg := smallConfig()
		f(&cfg)
		return cfg
	}
	calls := map[string]struct {
		call func() error
		want string
	}{
		"Table1 b=1": {func() error { _, err := Table1Ctx(ctx, with(func(c *Config) { c.B = 1 })); return err }, "b must be >= 2, got 1"},
		"Table1 b=0": {func() error { _, err := Table1Ctx(ctx, with(func(c *Config) { c.B = 0 })); return err }, "b must be >= 2, got 0"},
		"Table1 n=0": {func() error { _, err := Table1Ctx(ctx, with(func(c *Config) { c.N = 0 })); return err }, "n must be >= 1, got 0"},
		"Table1 s=0": {func() error { _, err := Table1Ctx(ctx, with(func(c *Config) { c.S = 0 })); return err }, "s must be >= 1, got 0"},
		"Grid n=0": {func() error {
			_, err := GridCtx(ctx, smallConfig(), []struct{ S, N int }{{2, 0}})
			return err
		}, "n must be >= 1, got 0"},
		"Tightness n=0": {func() error { _, err := Tightness(with(func(c *Config) { c.N = 0 })); return err }, "n must be >= 1, got 0"},
		"Sweep s=0": {func() error {
			_, err := Sweep(ctx, SweepSpec{Kind: SweepKindSporadicDelay, S: 0, N: 3, C1: 2, D2: 40, Steps: 3})
			return err
		}, "s must be >= 1, got 0"},
		"SweepDiameter n=0": {func() error { _, err := SweepDiameter(ctx, 3, 0, 3, 10, 1); return err }, "n must be >= 1, got 0"},
	}
	for name, c := range calls {
		if err := c.call(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, c.want)
		}
	}
}

// TestNegativeSeedsRejected: every run-matrix entry point returns an error
// for a negative seed count instead of panicking (or, for F5, looping over
// 2^64 seeds), and runs nothing.
func TestNegativeSeedsRejected(t *testing.T) {
	ctx := context.Background()
	cfg := smallConfig()
	cfg.Seeds = -1
	calls := map[string]func() error{
		"Table1": func() error { _, err := Table1Ctx(ctx, cfg); return err },
		"Grid": func() error {
			_, err := GridCtx(ctx, cfg, []struct{ S, N int }{{2, 2}})
			return err
		},
		"Hierarchy": func() error { _, err := HierarchyCtx(ctx, cfg); return err },
		"Sweep": func() error {
			_, err := Sweep(ctx, SweepSpec{Kind: SweepKindSporadicDelay, S: 3, N: 3, C1: 2, D2: 40, Steps: 3, Seeds: -1})
			return err
		},
		"FaultSweep": func() error {
			_, err := FaultSweep(ctx, FaultSweepConfig{S: 2, N: 2, Seeds: -1, MaxSteps: 20000})
			return err
		},
		"SweepDiameter":           func() error { _, err := SweepDiameter(ctx, 3, 6, 3, 10, -1); return err },
		"SweepSporadicVsSemiSync": func() error { _, err := SweepSporadicVsSemiSync(4, 3, 2, 10, 28, 4, -1); return err },
	}
	for name, call := range calls {
		err := call()
		if err == nil || !strings.Contains(err.Error(), "seed count must be non-negative, got -1") {
			t.Errorf("%s with seeds -1: error %v", name, err)
		}
	}
}
