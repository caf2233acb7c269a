package sessionproblem_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"sessionproblem"
)

// small keeps facade tests fast: a (2,2)-instance with two seeds per
// strategy still exercises all nine Table-1 cells.
func small() []sessionproblem.Option {
	return []sessionproblem.Option{
		sessionproblem.WithSpec(2, 2),
		sessionproblem.WithSeeds(2),
	}
}

func TestTable1Facade(t *testing.T) {
	var observed atomic.Int64
	opts := append(small(),
		sessionproblem.WithParallelism(4),
		sessionproblem.WithObserver(func(o sessionproblem.Observation) {
			observed.Add(1)
			if o.Err != nil {
				t.Errorf("run %q failed: %v", o.Label, o.Err)
			}
		}))
	res, err := sessionproblem.Table1(context.Background(), opts...)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(res.Cells) != 9 {
		t.Fatalf("got %d cells, want 9", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Verdict == "VIOLATION" {
			t.Errorf("cell %s/%s violates the paper bounds: max %v vs upper %v",
				c.Model, c.Comm, c.MeasuredMax, c.PaperUpper)
		}
		if c.Runs == 0 {
			t.Errorf("cell %s/%s has zero runs", c.Model, c.Comm)
		}
	}
	if res.Stats.Runs == 0 || res.Stats.Succeeded != res.Stats.Runs {
		t.Errorf("stats = %+v, want all runs succeeded", res.Stats)
	}
	if observed.Load() != int64(res.Stats.Runs) {
		t.Errorf("observer fired %d times for %d runs", observed.Load(), res.Stats.Runs)
	}
	if res.Stats.Parallelism != 4 {
		t.Errorf("parallelism = %d, want 4", res.Stats.Parallelism)
	}
}

func TestTable1FacadeDeterminism(t *testing.T) {
	render := func(par int) string {
		opts := append(small(), sessionproblem.WithParallelism(par))
		res, err := sessionproblem.Table1(context.Background(), opts...)
		if err != nil {
			t.Fatalf("Table1 at parallelism %d: %v", par, err)
		}
		var buf bytes.Buffer
		if err := sessionproblem.WriteTable(&buf, res.Cells); err != nil {
			t.Fatalf("WriteTable: %v", err)
		}
		return buf.String()
	}
	if serial, parallel := render(1), render(8); serial != parallel {
		t.Fatalf("facade Table 1 output differs by parallelism:\n%s\nvs\n%s", serial, parallel)
	}
}

func TestSolveFacade(t *testing.T) {
	rep, err := sessionproblem.Solve(context.Background(),
		sessionproblem.Periodic, sessionproblem.MessagePassing,
		sessionproblem.WithSpec(4, 3),
		sessionproblem.WithPeriodRange(2, 10),
		sessionproblem.WithDelayBounds(0, 25),
		sessionproblem.WithSchedule("slow", 1))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if rep.Sessions < 4 {
		t.Errorf("achieved %d sessions, want >= 4", rep.Sessions)
	}
	// Theorem 4.1/4.2 envelope at s=4, cmax=10, d2=25.
	lower, upper := sessionproblem.Ticks(40), sessionproblem.Ticks(65)
	if rep.Finish < lower || rep.Finish > upper {
		t.Errorf("finish %d outside paper envelope [%d, %d]", rep.Finish, lower, upper)
	}
	if rep.Messages == 0 {
		t.Errorf("periodic MP run used no broadcasts")
	}
}

func TestHierarchyFacade(t *testing.T) {
	res, err := sessionproblem.Hierarchy(context.Background(), small()...)
	if err != nil {
		t.Fatalf("Hierarchy: %v", err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("got %d hierarchy rows, want 5", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.WorstTime <= 0 {
			t.Errorf("row %s/%s has non-positive worst time %v", r.Model, r.Comm, r.WorstTime)
		}
	}
}

func TestSweepFacade(t *testing.T) {
	res, err := sessionproblem.Sweep(context.Background(), sessionproblem.SweepSporadicDelay,
		sessionproblem.WithSpec(4, 3),
		sessionproblem.WithSeeds(2),
		sessionproblem.WithSweepSteps(5))
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("got %d sweep points, want 5", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Measured <= 0 {
			t.Errorf("point x=%v measured %v, want positive finish time", p.X, p.Measured)
		}
		if p.Measured > p.PaperUpper {
			t.Errorf("point x=%v measured %v above upper bound %v", p.X, p.Measured, p.PaperUpper)
		}
	}
}

func TestSweepFacadeRequiresPeriodMaxima(t *testing.T) {
	_, err := sessionproblem.Sweep(context.Background(), sessionproblem.SweepPeriodicVsSporadic,
		sessionproblem.WithSpec(4, 3))
	if err == nil {
		t.Fatal("Sweep(SweepPeriodicVsSporadic) without WithPeriodMaxima: want error")
	}
}

// TestTableAndHierarchyRejectZeroC1: Table1 and Hierarchy answer c1 = 0
// with the error PaperEnvelope gives for the cells whose bounds divide by
// c1, instead of running those cells at the default c1.
func TestTableAndHierarchyRejectZeroC1(t *testing.T) {
	opts := append(small(), sessionproblem.WithStepBounds(0, 10))
	if _, err := sessionproblem.Table1(context.Background(), opts...); err == nil || !strings.Contains(err.Error(), "c1 must be >= 1, got 0") {
		t.Errorf("Table1 at c1 = 0: err = %v, want the c1 error", err)
	}
	if _, err := sessionproblem.Hierarchy(context.Background(), opts...); err == nil || !strings.Contains(err.Error(), "c1 must be >= 1, got 0") {
		t.Errorf("Hierarchy at c1 = 0: err = %v, want the c1 error", err)
	}
}

func TestFacadeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sessionproblem.Table1(ctx, small()...); !errors.Is(err, context.Canceled) {
		t.Fatalf("Table1 with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := sessionproblem.Solve(ctx, sessionproblem.Periodic, sessionproblem.SharedMemory,
		sessionproblem.WithSpec(2, 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Solve with cancelled ctx: err = %v, want context.Canceled", err)
	}
}
