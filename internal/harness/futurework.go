package harness

import (
	"context"
	"fmt"

	"sessionproblem/internal/alg/semisync"
	"sessionproblem/internal/alg/sporadic"
	"sessionproblem/internal/core"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
)

// FutureWorkPoint is one observation of the F6 exploration.
type FutureWorkPoint struct {
	U            sim.Duration // delay uncertainty d2 - d1
	SemiSync     float64      // worst finish, semi-sync algorithm under semi-sync model
	Sporadic     float64      // worst finish, A(sp) under sporadic model (gap cap = c2)
	SporadicWins bool
}

// SweepSporadicVsSemiSync is experiment F6, the paper's closing open
// question: "the relationship between the sporadic and the semi-synchronous
// systems for message passing is rather unclear and understanding it
// requires further study" (Section 1). It runs Sweep's
// SweepKindSporadicVsSemiSync on a fresh engine and returns its points in
// structured form.
func SweepSporadicVsSemiSync(s, n int, c1, c2, d2 sim.Duration, steps, seeds int) ([]FutureWorkPoint, error) {
	pts, err := Sweep(context.TODO(), SweepSpec{
		Kind: SweepKindSporadicVsSemiSync,
		S:    s, N: n, C1: c1, C2: c2, D2: d2,
		Steps: steps, Seeds: seeds,
	})
	if err != nil {
		return nil, err
	}
	out := make([]FutureWorkPoint, len(pts))
	for i, p := range pts {
		out[i] = FutureWorkPoint{
			U:            sim.Duration(p.X),
			SemiSync:     p.PaperUpper,
			Sporadic:     p.Measured,
			SporadicWins: p.Measured < p.PaperUpper,
		}
	}
	return out, nil
}

// sweepSporadicVsSemiSync is experiment F6. To compare like with like, the
// sporadic schedules are capped at gap c2, so both models see step gaps in
// [c1, c2]; what differs is the knowledge available to the algorithms (c2
// known vs unknown, d1 known vs unknown) and therefore which certification
// rule they may use. Sweeping d1 from d2 down to 0 varies the delay
// uncertainty u that A(sp)'s condition 2 feeds on. Points carry X = u,
// Measured = A(sp)'s worst finish and PaperUpper = the semi-synchronous
// baseline's, which does not depend on d1 and so runs once.
func sweepSporadicVsSemiSync(ctx context.Context, sp SweepSpec) ([]SweepPoint, error) {
	steps := sp.Steps
	if steps < 2 {
		steps = 2
	}
	spec := core.Spec{S: sp.S, N: sp.N}
	// Group 0 is the semi-sync baseline; groups 1.. are the sporadic points.
	groups := []mpGroup{{"F6 semisync", semisync.NewMP(semisync.Auto), spec, timing.NewSemiSynchronous(sp.C1, sp.C2, sp.D2)}}
	d1s := make([]sim.Duration, steps)
	for i := range d1s {
		d1s[i] = sp.D2 - sp.D2*sim.Duration(i)/sim.Duration(steps-1) // d2 -> 0
		groups = append(groups, mpGroup{fmt.Sprintf("F6 sporadic d1=%v", d1s[i]), sporadic.NewMP(), spec,
			timing.NewSporadic(sp.C1, d1s[i], sp.D2, sp.C2)})
	}
	max, err := maxFinishByGroup(ctx, engineOr(sp.Engine), groups, sp.Seeds, sp.NoSeedBatch)
	if err != nil {
		return nil, fmt.Errorf("F6: %w", err)
	}
	out := make([]SweepPoint, steps)
	for i, d1 := range d1s {
		u := sp.D2 - d1
		out[i] = SweepPoint{
			X:          float64(u),
			Label:      fmt.Sprintf("u=%v", u),
			Measured:   max[i+1],
			PaperUpper: max[0],
		}
	}
	return out, nil
}
