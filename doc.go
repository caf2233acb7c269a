// Package sessionproblem is a full reproduction of Rhee & Welch, "The
// Impact of Time on the Session Problem" (PODC 1992): a deterministic
// timed-computation simulator for shared-memory and message-passing
// systems, the five timing models (synchronous, periodic, semi-synchronous,
// sporadic, asynchronous), every upper-bound algorithm from the paper —
// including A(p) and A(sp) — and executable versions of the three
// lower-bound adversary constructions.
//
// The root package is the public API: Table1, Hierarchy, Sweep and Solve
// regenerate the paper's evaluation artifacts on a parallel execution
// engine, configured with functional options (WithSpec, WithSeeds,
// WithParallelism, WithObserver, ...). The run matrix fans across
// GOMAXPROCS workers with index-addressed results, so output is
// byte-identical at any parallelism level, and the ctx's cancellation or
// deadline reaches into every in-flight simulation.
//
//	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
//	defer cancel()
//	res, err := sessionproblem.Table1(ctx,
//	    sessionproblem.WithSpec(6, 8),
//	    sessionproblem.WithParallelism(8))
//
// The implementation lives under internal/; see the README for the package
// map, the cmd/ tools for the Table-1 and sweep reproductions, and
// bench_test.go for the benchmark harness that regenerates every evaluation
// artifact.
package sessionproblem
