package sessionproblem_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"sessionproblem"
)

func TestSolvePlainReportFaultFields(t *testing.T) {
	rep, err := sessionproblem.Solve(context.Background(),
		sessionproblem.Synchronous, sessionproblem.MessagePassing,
		sessionproblem.WithSpec(2, 2),
		sessionproblem.WithSchedule("slow", 1))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !rep.Admissible || rep.Verdict != "admissible" {
		t.Errorf("plain run: Admissible=%v Verdict=%q", rep.Admissible, rep.Verdict)
	}
	if rep.Attempts != 1 || rep.RobustnessMargin != -1 || rep.Violations != nil || rep.FaultsInjected != 0 {
		t.Errorf("plain run fault fields: %+v", rep)
	}
}

// The zero-cost claim, end to end: a zero-intensity fault plan must produce
// a report byte-identical to the plain fault-free path, for both
// communication models.
func TestSolveIntensityZeroGolden(t *testing.T) {
	for _, comm := range []sessionproblem.Comm{sessionproblem.SharedMemory, sessionproblem.MessagePassing} {
		opts := []sessionproblem.Option{
			sessionproblem.WithSpec(2, 2),
			sessionproblem.WithSchedule("random", 7),
		}
		plain, err := sessionproblem.Solve(context.Background(),
			sessionproblem.Synchronous, comm, opts...)
		if err != nil {
			t.Fatalf("%s plain Solve: %v", comm, err)
		}
		zero, err := sessionproblem.Solve(context.Background(),
			sessionproblem.Synchronous, comm,
			append(opts, sessionproblem.WithFaultPlan(sessionproblem.NewFaultPlan(3, 0)))...)
		if err != nil {
			t.Fatalf("%s zero-intensity Solve: %v", comm, err)
		}
		if !reflect.DeepEqual(plain, zero) {
			t.Errorf("%s: zero-intensity report differs from plain:\nplain: %+v\nzero:  %+v", comm, plain, zero)
		}
	}
}

// A guarantee broken by faults comes back as a degraded report with a nil
// error, never as a silent wrong answer.
func TestSolveBrokenDegradesGracefully(t *testing.T) {
	rep, err := sessionproblem.Solve(context.Background(),
		sessionproblem.Synchronous, sessionproblem.MessagePassing,
		sessionproblem.WithSpec(2, 2),
		sessionproblem.WithSchedule("slow", 1),
		sessionproblem.WithFaultPlan(sessionproblem.NewFaultPlan(1, 1, sessionproblem.FaultCrash)))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if rep.Admissible || rep.Verdict != "broken" {
		t.Fatalf("crash-everything run: Admissible=%v Verdict=%q", rep.Admissible, rep.Verdict)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("broken run with no recorded violations (silent wrong answer)")
	}
	if rep.FaultsInjected == 0 {
		t.Error("broken run reports zero injected faults")
	}
}

func TestSolveRetriesCountAttempts(t *testing.T) {
	rep, err := sessionproblem.Solve(context.Background(),
		sessionproblem.Synchronous, sessionproblem.MessagePassing,
		sessionproblem.WithSpec(2, 2),
		sessionproblem.WithSchedule("slow", 1),
		sessionproblem.WithFaultPlan(sessionproblem.NewFaultPlan(1, 1, sessionproblem.FaultCrash)),
		sessionproblem.WithRetries(2))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Intensity 1 crashes break every attempt: all retries are consumed.
	if rep.Attempts != 3 {
		t.Errorf("Attempts: got %d, want 3", rep.Attempts)
	}
	if rep.Admissible {
		t.Error("crash-everything run reported admissible")
	}
}

// Cancellation mid-retry must surface as ctx.Err(), not be masked by the
// retry loop. The observer cancels after the first attempt, and the cache
// already holds every attempt: a cache hit runs no executor that would
// notice the cancellation, so only the loop's own check can report it.
func TestSolveRetryCancellationNotMasked(t *testing.T) {
	opts := []sessionproblem.Option{
		sessionproblem.WithSpec(2, 2),
		sessionproblem.WithSchedule("slow", 1),
		sessionproblem.WithFaultPlan(sessionproblem.NewFaultPlan(1, 1, sessionproblem.FaultCrash)),
		sessionproblem.WithRetries(5),
		sessionproblem.WithRunCache(sessionproblem.NewRunCache()),
	}
	if _, err := sessionproblem.Solve(context.Background(),
		sessionproblem.Synchronous, sessionproblem.MessagePassing, opts...); err != nil {
		t.Fatalf("warming Solve: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	attempts := 0
	_, err := sessionproblem.Solve(ctx,
		sessionproblem.Synchronous, sessionproblem.MessagePassing,
		append(opts, sessionproblem.WithObserver(func(sessionproblem.Observation) {
			attempts++
			cancel()
		}))...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if attempts != 1 {
		t.Errorf("%d attempts ran, want 1: the loop went on after the cancellation", attempts)
	}
}

// TestSolveObservesEachRunOnce: every run a Solve call makes is observed
// exactly once, carrying its counts and faults, and a failed run carries
// its error — as the engine-backed calls observe theirs.
func TestSolveObservesEachRunOnce(t *testing.T) {
	var mu sync.Mutex
	var obs []sessionproblem.Observation
	record := sessionproblem.WithObserver(func(o sessionproblem.Observation) {
		mu.Lock()
		defer mu.Unlock()
		obs = append(obs, o)
	})
	solve := func(ctx context.Context, opts ...sessionproblem.Option) (*sessionproblem.Report, error) {
		obs = nil
		return sessionproblem.Solve(ctx, sessionproblem.Periodic, sessionproblem.MessagePassing,
			append(opts, record)...)
	}

	// The attempt plus one robustness run per intensity.
	if _, err := solve(context.Background(), sessionproblem.WithSpec(2, 3),
		sessionproblem.WithRobustnessMargin(), sessionproblem.WithFaultIntensities(0, 0.3)); err != nil {
		t.Fatalf("robustness Solve: %v", err)
	}
	if len(obs) != 3 {
		t.Fatalf("robustness Solve: %d observations of 3 runs: %+v", len(obs), obs)
	}
	for _, o := range obs {
		if o.Steps == 0 || o.Sessions == 0 || o.Err != nil {
			t.Errorf("robustness Solve observation %+v", o)
		}
	}

	rep, err := solve(context.Background(), sessionproblem.WithSpec(3, 4), sessionproblem.WithSchedule("random", 3),
		sessionproblem.WithFaultPlan(sessionproblem.NewFaultPlan(2, 0.5)))
	if err != nil {
		t.Fatalf("faulted Solve: %v", err)
	}
	if rep.FaultsInjected == 0 {
		t.Fatal("faulted Solve injected no faults")
	}
	if len(obs) != 1 || obs[0].Faults != rep.FaultsInjected || obs[0].Steps != rep.Steps ||
		obs[0].Sessions != rep.Sessions || obs[0].Messages != rep.Messages {
		t.Errorf("faulted Solve observations %+v, report %+v", obs, rep)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := solve(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Solve: %v", err)
	}
	if len(obs) != 1 || !errors.Is(obs[0].Err, context.Canceled) {
		t.Errorf("cancelled Solve observations %+v, want one carrying the error", obs)
	}
}

func TestSolveRobustnessMargin(t *testing.T) {
	rep, err := sessionproblem.Solve(context.Background(),
		sessionproblem.Synchronous, sessionproblem.MessagePassing,
		sessionproblem.WithSpec(2, 2),
		sessionproblem.WithSchedule("slow", 1),
		sessionproblem.WithFaultPlan(sessionproblem.NewFaultPlan(1, 1, sessionproblem.FaultCrash)),
		sessionproblem.WithFaultIntensities(1, 0), // deliberately unsorted
		sessionproblem.WithRobustnessMargin())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Held at intensity 0, broken at 1: the margin is exactly the clean
	// control point.
	if rep.RobustnessMargin != 0 {
		t.Errorf("RobustnessMargin: got %v, want 0", rep.RobustnessMargin)
	}
}

func TestSweepFaultIntensityFacade(t *testing.T) {
	res, err := sessionproblem.Sweep(context.Background(), sessionproblem.SweepFaultIntensity,
		sessionproblem.WithSpec(2, 2),
		sessionproblem.WithSeeds(1),
		sessionproblem.WithFaultIntensities(0.4, 0)) // sorted by the facade
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	// Five model rows x two intensities.
	if len(res.Points) != 10 {
		t.Fatalf("points: got %d, want 10", len(res.Points))
	}
	for _, p := range res.Points {
		if p.X == 0 && p.Measured != 1 {
			t.Errorf("%s: fault-free control held fraction %v, want 1", p.Label, p.Measured)
		}
		if p.Measured < 0 || p.Measured > 1 {
			t.Errorf("%s: held fraction %v outside [0,1]", p.Label, p.Measured)
		}
	}
}
