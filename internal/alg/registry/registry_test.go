package registry

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"sessionproblem/internal/alg/async"
	"sessionproblem/internal/alg/periodic"
	"sessionproblem/internal/alg/semisync"
	"sessionproblem/internal/alg/sporadic"
	"sessionproblem/internal/alg/synchronous"
	"sessionproblem/internal/bounds"
	"sessionproblem/internal/core"
	"sessionproblem/internal/timing"
)

// TestForSMCoversEveryKind pins the algorithm ForSM and ForMP designate for
// every timing kind, the fallbacks included.
func TestForSMCoversEveryKind(t *testing.T) {
	cases := []struct {
		kind timing.Kind
		sm   core.SMAlgorithm
		mp   core.MPAlgorithm
	}{
		{timing.Synchronous, synchronous.NewSM(), synchronous.NewMP()},
		{timing.Periodic, periodic.NewSM(), periodic.NewMP()},
		{timing.SemiSynchronous, semisync.NewSM(semisync.Auto), semisync.NewMP(semisync.Auto)},
		{timing.Sporadic, async.NewSM(), sporadic.NewMP()},
		{timing.AsynchronousSM, async.NewSM(), async.NewMP()},
		{timing.AsynchronousMP, async.NewSM(), async.NewMP()},
	}
	for _, tc := range cases {
		if alg, err := ForSM(tc.kind); err != nil || !reflect.DeepEqual(alg, tc.sm) {
			t.Errorf("ForSM(%v) = %#v, %v; want %#v", tc.kind, alg, err, tc.sm)
		}
		if alg, err := ForMP(tc.kind); err != nil || !reflect.DeepEqual(alg, tc.mp) {
			t.Errorf("ForMP(%v) = %#v, %v; want %#v", tc.kind, alg, err, tc.mp)
		}
	}
	if _, err := ForSM(timing.Kind(99)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := ForMP(timing.Kind(99)); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestCellsAreTable1 checks the table's shape: nine cells in table order,
// each with one algorithm for its comm, a timing model of its kind, and
// bounds with L <= U at the default point.
func TestCellsAreTable1(t *testing.T) {
	p := bounds.Params{S: 6, N: 8, B: 3, C1: 2, C2: 10, Cmin: 2, Cmax: 10, D1: 4, D2: 28, Gamma: 10}
	var got []string
	for _, c := range Cells() {
		got = append(got, c.Row+"/"+c.Comm)
		if (c.SM != nil) != (c.Comm == "SM") || (c.MP != nil) != (c.Comm == "MP") {
			t.Errorf("%s/%s: algorithm does not match the comm", c.Row, c.Comm)
		}
		if m := c.Timing(p, 0); m.Kind != c.Kind {
			t.Errorf("%s/%s: timing model kind %v, cell kind %v", c.Row, c.Comm, m.Kind, c.Kind)
		}
		if l, u := c.Bounds(p); l > u {
			t.Errorf("%s/%s: L = %v > U = %v", c.Row, c.Comm, l, u)
		}
		if f, ok := Find(c.Name, c.Comm); !ok || f.Row != c.Row {
			t.Errorf("Find(%q, %q) = %v, %v", c.Name, c.Comm, f.Row, ok)
		}
	}
	want := "synchronous/SM synchronous/MP periodic/SM periodic/MP semi-synchronous/SM " +
		"semi-synchronous/MP sporadic/MP asynchronous/SM asynchronous/MP"
	if strings.Join(got, " ") != want {
		t.Errorf("cells %v, want %s", got, want)
	}
	if _, ok := Find("sporadic", "SM"); ok {
		t.Error("a sporadic SM cell exists; the paper equates it with asynchronous SM")
	}
	if n := len(MPCells()); n != 5 {
		t.Errorf("%d message-passing cells, want 5", n)
	}
}

// solve runs the model's designated algorithm trace-free, over shared
// memory ("sm") or message passing ("mp").
func solve(spec core.Spec, m timing.Model, comm string, st timing.Strategy, seed uint64) (*core.Report, error) {
	if comm == "sm" {
		alg, err := ForSM(m.Kind)
		if err != nil {
			return nil, err
		}
		return core.RunSMStream(context.Background(), alg, spec, m, st, seed, nil, core.StreamOptions{})
	}
	alg, err := ForMP(m.Kind)
	if err != nil {
		return nil, err
	}
	return core.RunMPStream(context.Background(), alg, spec, m, st, seed, nil, core.StreamOptions{})
}

func TestSolveEndToEnd(t *testing.T) {
	spec := core.Spec{S: 3, N: 3, B: 2}
	cases := []struct {
		comm string
		m    timing.Model
	}{
		{"sm", timing.NewSynchronous(3, 0)},
		{"sm", timing.NewPeriodic(2, 8, 0)},
		{"sm", timing.NewSemiSynchronous(2, 8, 0)},
		{"sm", timing.NewAsynchronousSM(4)},
		{"mp", timing.NewSynchronous(3, 9)},
		{"mp", timing.NewPeriodic(2, 8, 20)},
		{"mp", timing.NewSemiSynchronous(2, 8, 20)},
		{"mp", timing.NewSporadic(2, 4, 28, 0)},
		{"mp", timing.NewAsynchronousMP(4, 20)},
	}
	for _, tc := range cases {
		rep, err := solve(spec, tc.m, tc.comm, timing.Random, 7)
		if err != nil {
			t.Errorf("solve(%v, %s): %v", tc.m.Kind, tc.comm, err)
			continue
		}
		if rep.Sessions < spec.S {
			t.Errorf("solve(%v, %s): %d sessions", tc.m.Kind, tc.comm, rep.Sessions)
		}
	}
}

// TestSporadicSMFallsBackToAsync documents the paper's "See Async. SM" cell.
func TestSporadicSMFallsBackToAsync(t *testing.T) {
	alg, err := ForSM(timing.Sporadic)
	if err != nil {
		t.Fatalf("ForSM: %v", err)
	}
	if alg.Name() != "asynchronous" {
		t.Errorf("sporadic SM algorithm: got %q, want the asynchronous one", alg.Name())
	}
}
