// Package engine is the parallel execution engine behind the harness: it
// fans an arbitrary list of independent tasks (the run matrix of cells,
// strategies, seeds and sweep points) across a pool of workers while keeping
// every result in the slot of the task that produced it, so aggregation is
// byte-for-byte identical at any parallelism level.
//
// The engine owns the concerns the serial harness never had: cancellation
// (the caller's context, threaded through core.RunSM/RunMP into the
// executors, plus a fail-fast abort on the first task error) and per-run
// observability (wall time, worker id, and the simulator's own step, session
// and message counts) aggregated into an engine-level Stats snapshot.
// Deadlines are the caller's: bound the context passed to Execute.
package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Task is one unit of work: an independent run of the simulator (or any
// other pure function of its inputs). Tasks must not depend on execution
// order — the engine guarantees only that the result of tasks[i] lands in
// results[i].
type Task struct {
	// Label identifies the run in observations ("periodic/MP slow seed 2").
	Label string
	// Run does the work. It must honor ctx cancellation promptly.
	Run func(ctx context.Context) (any, error)
}

// Counts is the simulator-level accounting a task's value may expose via
// the Accountable interface.
type Counts struct {
	// Steps is the number of process steps the run executed.
	Steps int
	// Sessions is the number of disjoint sessions the run achieved.
	Sessions int
	// Messages is the number of broadcasts (message-passing runs).
	Messages int
	// Faults is the number of injected faults applied during the run.
	Faults int
	// BatchForks and BatchFallbacks account the seed-batching layer: seeds
	// served from a zero-draw probe run's summary, and seeds that ran solo
	// after a probe that drew (or in a fault sweep's faulted group of more
	// than one seed).
	BatchForks     int
	BatchFallbacks int
	// BatchLanes always reads zero: seed groups no longer run through
	// lockstep lanes.
	//
	// Deprecated: kept so existing readers compile; nothing sets it.
	BatchLanes int
}

// Accountable lets task return values feed simulator counts into the
// engine's Stats without the engine depending on the simulator packages.
type Accountable interface {
	Account() Counts
}

// Result is one filled result slot.
type Result struct {
	// Index is the task's position in the submitted slice; results are
	// addressed by it, never by completion order.
	Index int
	// Label echoes the task's label.
	Label string
	// Value is what Run returned (nil when Err != nil or the task was
	// skipped by fail-fast cancellation).
	Value any
	// Err is the task's error, ctx.Err() for tasks cancelled mid-flight, or
	// ErrSkipped for tasks never started after a fail-fast abort.
	Err error
	// Worker is the id (0..parallelism-1) of the worker that ran the task.
	Worker int
	// Wall is the task's wall-clock duration.
	Wall time.Duration
	// Counts carries the run's simulator accounting when the value is
	// Accountable.
	Counts Counts
}

// ErrSkipped marks result slots of tasks that were never started because an
// earlier failure aborted a fail-fast execution.
var ErrSkipped = errors.New("engine: task skipped after fail-fast abort")

// Observer receives every completed run, in completion order (which is
// nondeterministic under parallelism — aggregate by Result.Index for
// deterministic views).
type Observer func(Result)

// Stats is a snapshot of the engine's accounting across every Execute call.
type Stats struct {
	// Tasks, Succeeded, Failed and Skipped count result slots.
	Tasks     int
	Succeeded int
	Failed    int
	Skipped   int
	// Wall is the summed wall-clock time of Execute calls; Busy is the
	// summed per-task wall time across workers. Busy/Wall measures the
	// achieved parallelism.
	Wall time.Duration
	Busy time.Duration
	// PerWorker counts tasks executed by each worker id.
	PerWorker []int
	// Counts aggregates the simulator accounting of Accountable results.
	Counts Counts
	// Parallelism is the worker-pool width.
	Parallelism int
	// CacheHits and CacheMisses count run-cache lookups made by this
	// engine's Execute calls (zero when no cache is attached; see
	// WithRunCache).
	CacheHits   int64
	CacheMisses int64
}

// Option configures an Engine.
type Option func(*Engine)

// WithParallelism sets the worker-pool width. Values < 1 mean GOMAXPROCS.
func WithParallelism(n int) Option {
	return func(e *Engine) { e.parallelism = n }
}

// WithObserver registers a per-run observer.
func WithObserver(obs Observer) Option {
	return func(e *Engine) { e.observer = obs }
}

// WithWorkerState installs a per-worker state factory. Each worker goroutine
// of each Execute call invokes it once and exposes the value to its tasks
// via WorkerState(ctx). Tasks on the same worker see the same value and run
// sequentially, so the state needs no locking — this is how the harness
// hands each worker a reusable core.RunScratch without any cross-run
// synchronization. State is created per Execute call (never shared between
// concurrent Executes on one engine) and abandoned when the call returns.
func WithWorkerState(factory func() any) Option {
	return func(e *Engine) { e.workerState = factory }
}

// workerStateKey carries the per-worker state through task contexts.
type workerStateKey struct{}

// WorkerState returns the value the engine's WithWorkerState factory
// produced for the worker running the current task, or nil when no factory
// is installed (or ctx did not come from an engine worker).
func WorkerState(ctx context.Context) any {
	return ctx.Value(workerStateKey{})
}

// Engine is a reusable worker-pool executor. The zero value is not ready;
// use New. An Engine is safe for concurrent use; Stats accumulate across
// Execute calls.
type Engine struct {
	parallelism int
	observer    Observer
	workerState func() any
	cache       RunCacher

	mu    sync.Mutex
	stats Stats
}

// New builds an engine. Without options it runs GOMAXPROCS workers.
func New(opts ...Option) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	if e.parallelism < 1 {
		e.parallelism = runtime.GOMAXPROCS(0)
	}
	e.stats.Parallelism = e.parallelism
	e.stats.PerWorker = make([]int, e.parallelism)
	return e
}

// Parallelism reports the worker-pool width.
func (e *Engine) Parallelism() int { return e.parallelism }

// Stats returns a snapshot of the accumulated accounting.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.PerWorker = append([]int(nil), e.stats.PerWorker...)
	return s
}

// Execute runs every task and returns the index-addressed results. The
// first task error cancels the tasks not yet started (fail-fast) and is
// returned; so is the caller's ctx error when ctx ends first. The results
// slice always has len(tasks) entries.
func (e *Engine) Execute(ctx context.Context, tasks []Task) ([]Result, error) {
	start := time.Now() //lint:allow nodeterm wall-clock accounting, never in results
	// A fail-fast abort must not cancel the caller's ctx, so wrap it.
	runCtx, abort := context.WithCancel(ctx)
	defer abort()
	// The cache counters are global to the (possibly shared) cache; the
	// stats attribute only this call's delta to this engine.
	var hits0, misses0 int64
	if e.cache != nil {
		runCtx = context.WithValue(runCtx, runCacheKey{}, e.cache)
		hits0, misses0 = e.cache.Hits(), e.cache.Misses()
	}

	results := make([]Result, len(tasks))
	for i := range results {
		results[i] = Result{Index: i, Label: tasks[i].Label, Err: ErrSkipped}
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	workers := e.parallelism
	if workers > len(tasks) {
		workers = len(tasks)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			taskCtx := runCtx
			if e.workerState != nil {
				taskCtx = context.WithValue(runCtx, workerStateKey{}, e.workerState())
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				if runCtx.Err() != nil {
					// Leave the slot marked skipped; the abort cause is
					// reported by Execute's return value.
					continue
				}
				t0 := time.Now() //lint:allow nodeterm wall-clock accounting, never in results
				v, err := tasks[i].Run(taskCtx)
				r := Result{
					Index:  i,
					Label:  tasks[i].Label,
					Value:  v,
					Err:    err,
					Worker: worker,
					Wall:   time.Since(t0), //lint:allow nodeterm wall-clock accounting, never in results
				}
				if acc, ok := v.(Accountable); ok && acc != nil {
					r.Counts = acc.Account()
				}
				results[i] = r
				e.record(r)
				if e.observer != nil {
					e.observer(r)
				}
				if err != nil {
					abort()
				}
			}
		}(w)
	}
	wg.Wait()

	e.mu.Lock()
	e.stats.Wall += time.Since(start) //lint:allow nodeterm wall-clock accounting, never in results
	if e.cache != nil {
		e.stats.CacheHits += e.cache.Hits() - hits0
		e.stats.CacheMisses += e.cache.Misses() - misses0
	}
	for _, r := range results {
		if errors.Is(r.Err, ErrSkipped) {
			e.stats.Tasks++
			e.stats.Skipped++
		}
	}
	e.mu.Unlock()

	// Deterministic error selection: the lowest-index failure, preferring
	// real task errors over cancellation noise.
	var firstErr error
	for _, r := range results {
		if r.Err != nil && !errors.Is(r.Err, ErrSkipped) && !errors.Is(r.Err, context.Canceled) {
			firstErr = r.Err
			break
		}
	}
	if firstErr == nil {
		if err := ctx.Err(); err != nil {
			return results, err
		}
		for _, r := range results {
			if r.Err != nil {
				return results, r.Err
			}
		}
	}
	return results, firstErr
}

func (e *Engine) record(r Result) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.Tasks++
	if r.Err != nil {
		e.stats.Failed++
	} else {
		e.stats.Succeeded++
	}
	e.stats.Busy += r.Wall
	if r.Worker >= 0 && r.Worker < len(e.stats.PerWorker) {
		e.stats.PerWorker[r.Worker]++
	}
	e.stats.Counts.Steps += r.Counts.Steps
	e.stats.Counts.Sessions += r.Counts.Sessions
	e.stats.Counts.Messages += r.Counts.Messages
	e.stats.Counts.Faults += r.Counts.Faults
	e.stats.Counts.BatchForks += r.Counts.BatchForks
	e.stats.Counts.BatchFallbacks += r.Counts.BatchFallbacks
}

// Map runs f over indices 0..n-1 on the engine and returns the typed,
// index-addressed results: out[i] is f(ctx, i). It is the harness's
// workhorse — a deterministic parallel for-loop.
func Map[T any](ctx context.Context, e *Engine, n int, label func(i int) string, f func(ctx context.Context, i int) (T, error)) ([]T, error) {
	tasks := make([]Task, n)
	for i := range tasks {
		i := i
		var lbl string
		if label != nil {
			lbl = label(i)
		}
		tasks[i] = Task{
			Label: lbl,
			Run:   func(ctx context.Context) (any, error) { return f(ctx, i) },
		}
	}
	results, err := e.Execute(ctx, tasks)
	if err != nil {
		return nil, err
	}
	out := make([]T, n)
	for i, r := range results {
		if r.Value != nil {
			out[i] = r.Value.(T)
		}
	}
	return out, nil
}
