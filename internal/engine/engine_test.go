package engine_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sessionproblem/internal/engine"
	"sessionproblem/internal/harness"
)

// TestExecuteIndexAddressing checks the core guarantee: results[i] holds the
// outcome of tasks[i] no matter which worker ran it or when it finished.
func TestExecuteIndexAddressing(t *testing.T) {
	e := engine.New(engine.WithParallelism(4))
	n := 64
	tasks := make([]engine.Task, n)
	for i := range tasks {
		i := i
		tasks[i] = engine.Task{
			Label: fmt.Sprintf("task %d", i),
			Run:   func(ctx context.Context) (any, error) { return i * i, nil },
		}
	}
	results, err := e.Execute(context.Background(), tasks)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("results[%d].Index = %d", i, r.Index)
		}
		if r.Value != i*i {
			t.Errorf("results[%d].Value = %v, want %d", i, r.Value, i*i)
		}
		if r.Err != nil {
			t.Errorf("results[%d].Err = %v", i, r.Err)
		}
	}
}

// TestMapDeterminism runs the same computation at parallelism 1 and 8 and
// requires identical output slices.
func TestMapDeterminism(t *testing.T) {
	run := func(par int) []int {
		e := engine.New(engine.WithParallelism(par))
		out, err := engine.Map(context.Background(), e, 100, nil,
			func(ctx context.Context, i int) (int, error) { return 3*i + 1, nil })
		if err != nil {
			t.Fatalf("Map at parallelism %d: %v", par, err)
		}
		return out
	}
	serial, parallel := run(1), run(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("out[%d]: serial %d != parallel %d", i, serial[i], parallel[i])
		}
	}
}

// TestFailFastSkipsRemaining checks that an early error aborts the run:
// later tasks keep their ErrSkipped slots and Execute returns the failure.
func TestFailFastSkipsRemaining(t *testing.T) {
	boom := errors.New("boom")
	e := engine.New(engine.WithParallelism(1))
	var ran atomic.Int64
	tasks := make([]engine.Task, 8)
	for i := range tasks {
		i := i
		tasks[i] = engine.Task{Run: func(ctx context.Context) (any, error) {
			ran.Add(1)
			if i == 1 {
				return nil, boom
			}
			return i, nil
		}}
	}
	results, err := e.Execute(context.Background(), tasks)
	if !errors.Is(err, boom) {
		t.Fatalf("Execute error = %v, want boom", err)
	}
	if got := ran.Load(); got != 2 {
		t.Fatalf("ran %d tasks at parallelism 1, want 2 (ok then boom)", got)
	}
	if !errors.Is(results[1].Err, boom) {
		t.Errorf("results[1].Err = %v, want boom", results[1].Err)
	}
	for i := 2; i < len(results); i++ {
		if !errors.Is(results[i].Err, engine.ErrSkipped) {
			t.Errorf("results[%d].Err = %v, want ErrSkipped", i, results[i].Err)
		}
	}
}

// TestFailFastReturnsLowestIndexError checks that when several tasks fail
// before the abort lands, Execute returns the lowest-index failure, not the
// first to finish: task 1 fails first, task 0 after it.
func TestFailFastReturnsLowestIndexError(t *testing.T) {
	e := engine.New(engine.WithParallelism(2))
	errs := []error{errors.New("task 0 failed"), errors.New("task 1 failed")}
	var started sync.WaitGroup
	started.Add(2)
	failed1 := make(chan struct{})
	tasks := make([]engine.Task, 2)
	for i := range tasks {
		i := i
		tasks[i] = engine.Task{Run: func(ctx context.Context) (any, error) {
			started.Done()
			started.Wait()
			if i == 1 {
				close(failed1)
			} else {
				<-failed1
			}
			return nil, errs[i]
		}}
	}
	if _, err := e.Execute(context.Background(), tasks); !errors.Is(err, errs[0]) {
		t.Fatalf("Execute error = %v, want the lowest-index failure (task 0)", err)
	}
}

type counted struct{ steps, sessions, msgs int }

func (c counted) Account() engine.Counts {
	return engine.Counts{Steps: c.steps, Sessions: c.sessions, Messages: c.msgs}
}

// TestStatsAccounting checks task/worker/counts aggregation in Stats.
func TestStatsAccounting(t *testing.T) {
	e := engine.New(engine.WithParallelism(3))
	tasks := make([]engine.Task, 12)
	for i := range tasks {
		tasks[i] = engine.Task{Run: func(ctx context.Context) (any, error) {
			return counted{steps: 10, sessions: 2, msgs: 1}, nil
		}}
	}
	if _, err := e.Execute(context.Background(), tasks); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	st := e.Stats()
	if st.Tasks != 12 || st.Succeeded != 12 || st.Failed != 0 || st.Skipped != 0 {
		t.Errorf("stats = %+v, want 12 tasks all succeeded", st)
	}
	if st.Parallelism != 3 || len(st.PerWorker) != 3 {
		t.Errorf("parallelism = %d, per-worker = %v, want width 3", st.Parallelism, st.PerWorker)
	}
	total := 0
	for _, c := range st.PerWorker {
		total += c
	}
	if total != 12 {
		t.Errorf("per-worker counts sum to %d, want 12", total)
	}
	want := engine.Counts{Steps: 120, Sessions: 24, Messages: 12}
	if st.Counts != want {
		t.Errorf("counts = %+v, want %+v", st.Counts, want)
	}
}

// TestObserverSeesEveryRun checks the observer fires once per executed task
// with the task's own label and index.
func TestObserverSeesEveryRun(t *testing.T) {
	var calls atomic.Int64
	var bad atomic.Int64
	e := engine.New(engine.WithParallelism(4), engine.WithObserver(func(r engine.Result) {
		calls.Add(1)
		if r.Label != fmt.Sprintf("run %d", r.Index) {
			bad.Add(1)
		}
	}))
	_, err := engine.Map(context.Background(), e, 20,
		func(i int) string { return fmt.Sprintf("run %d", i) },
		func(ctx context.Context, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if calls.Load() != 20 {
		t.Errorf("observer fired %d times, want 20", calls.Load())
	}
	if bad.Load() != 0 {
		t.Errorf("%d observations had mismatched label/index", bad.Load())
	}
}

// TestTimeoutCancelsTasks checks that a deadline on the caller's ctx
// reaches the tasks: slow tasks observe the cancellation promptly and
// Execute reports the deadline.
func TestTimeoutCancelsTasks(t *testing.T) {
	e := engine.New(engine.WithParallelism(2))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	tasks := make([]engine.Task, 4)
	for i := range tasks {
		tasks[i] = engine.Task{Run: func(ctx context.Context) (any, error) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			//lint:allow nodeterm timeout test needs a real clock; never reached on the passing path
			case <-time.After(5 * time.Second):
				return nil, nil
			}
		}}
	}
	//lint:allow nodeterm measuring real cancellation latency is this test's purpose
	start := time.Now()
	_, err := e.Execute(ctx, tasks)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Execute error = %v, want deadline exceeded", err)
	}
	//lint:allow nodeterm measuring real cancellation latency is this test's purpose
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Execute took %v, tasks did not honor cancellation", elapsed)
	}
}

// TestTable1Determinism is the acceptance check for the harness rebuild: the
// rendered Table-1 output must be byte-identical at parallelism 1 and 8.
func TestTable1Determinism(t *testing.T) {
	render := func(par int) string {
		cfg := harness.Default()
		cfg.S, cfg.N, cfg.Seeds = 2, 2, 2
		cfg.Engine = engine.New(engine.WithParallelism(par))
		cells, err := harness.Table1Ctx(context.Background(), cfg)
		if err != nil {
			t.Fatalf("Table1 at parallelism %d: %v", par, err)
		}
		var buf bytes.Buffer
		if err := harness.WriteTable(&buf, cells); err != nil {
			t.Fatalf("WriteTable: %v", err)
		}
		return buf.String()
	}
	serial, parallel := render(1), render(8)
	if serial != parallel {
		t.Fatalf("Table 1 output differs between parallelism 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if serial == "" {
		t.Fatal("rendered table is empty")
	}
}

// TestCancellationMidTable checks that cancelling the caller's context while
// the run matrix is in flight aborts Table1 with the context error.
func TestCancellationMidTable(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel as soon as the first run completes; the matrix has hundreds of
	// runs, so the rest must be cut short.
	var once atomic.Bool
	eng := engine.New(engine.WithParallelism(2), engine.WithObserver(func(engine.Result) {
		if once.CompareAndSwap(false, true) {
			cancel()
		}
	}))
	cfg := harness.Default()
	cfg.Engine = eng
	_, err := harness.Table1Ctx(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Table1 after mid-flight cancel: err = %v, want context.Canceled", err)
	}
	st := eng.Stats()
	if st.Skipped == 0 {
		t.Errorf("no tasks were skipped after cancellation (stats %+v)", st)
	}
}

// TestCancellationMidSweep mirrors the table test for the sweep path.
func TestCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once atomic.Bool
	eng := engine.New(engine.WithParallelism(2), engine.WithObserver(func(engine.Result) {
		if once.CompareAndSwap(false, true) {
			cancel()
		}
	}))
	_, err := harness.Sweep(ctx, harness.SweepSpec{
		Kind: harness.SweepKindSporadicDelay,
		S:    4, N: 3, C1: 2, C2: 4, D2: 40, Steps: 9,
		Engine: eng,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweep after mid-flight cancel: err = %v, want context.Canceled", err)
	}
}

// TestEngineReuseAcrossCalls checks Stats accumulate across Execute calls on
// one engine, as the facade relies on when it runs Hierarchy then Table1.
func TestEngineReuseAcrossCalls(t *testing.T) {
	e := engine.New(engine.WithParallelism(2))
	for round := 0; round < 3; round++ {
		if _, err := engine.Map(context.Background(), e, 5, nil,
			func(ctx context.Context, i int) (int, error) { return i, nil }); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if st := e.Stats(); st.Tasks != 15 || st.Succeeded != 15 {
		t.Fatalf("stats after 3 rounds = %+v, want 15 tasks", st)
	}
}

// TestWorkerStateIsPerWorker checks the WithWorkerState contract: every task
// on a given worker sees the same state value, distinct workers see distinct
// values, and the factory runs once per worker per Execute call.
func TestWorkerStateIsPerWorker(t *testing.T) {
	type scratch struct{ worker int }
	var made atomic.Int64
	e := engine.New(
		engine.WithParallelism(3),
		engine.WithWorkerState(func() any {
			made.Add(1)
			return &scratch{worker: -1}
		}),
	)
	const tasks = 60
	states, err := engine.Map(context.Background(), e, tasks, nil,
		func(ctx context.Context, i int) (*scratch, error) {
			sc, ok := engine.WorkerState(ctx).(*scratch)
			if !ok {
				return nil, fmt.Errorf("task %d: WorkerState = %v, want *scratch", i, engine.WorkerState(ctx))
			}
			return sc, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	distinct := make(map[*scratch]bool)
	for _, sc := range states {
		distinct[sc] = true
	}
	if n := int(made.Load()); n != 3 {
		t.Errorf("factory ran %d times, want once per worker (3)", n)
	}
	if len(distinct) > 3 {
		t.Errorf("%d distinct states across 3 workers", len(distinct))
	}

	// A second Execute must get fresh state: concurrent Execute calls on one
	// engine share worker ids, so reusing state across calls would race.
	again, err := engine.Map(context.Background(), e, tasks, nil,
		func(ctx context.Context, i int) (*scratch, error) {
			return engine.WorkerState(ctx).(*scratch), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range again {
		if distinct[sc] {
			t.Fatal("second Execute reused a first-Execute worker state")
		}
	}
}

// TestWorkerStateAbsent checks WorkerState degrades to nil without a factory.
func TestWorkerStateAbsent(t *testing.T) {
	e := engine.New(engine.WithParallelism(2))
	vals, err := engine.Map(context.Background(), e, 4, nil,
		func(ctx context.Context, i int) (any, error) {
			if st := engine.WorkerState(ctx); st != nil {
				return nil, fmt.Errorf("task %d: WorkerState = %v, want nil", i, st)
			}
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 4 {
		t.Fatalf("got %d results", len(vals))
	}
}
