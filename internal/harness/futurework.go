package harness

import (
	"context"
	"fmt"

	"sessionproblem/internal/alg/semisync"
	"sessionproblem/internal/alg/sporadic"
	"sessionproblem/internal/core"
	"sessionproblem/internal/engine"
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
// requires further study" (Section 1). To compare like with like, the
// sporadic schedules are capped at gap c2, so both models see step gaps in
// [c1, c2]; what differs is the knowledge available to the algorithms
// (c2 known vs unknown, d1 known vs unknown) and therefore which
// certification rule they may use. Sweeping d1 from d2 down to 0 varies the
// delay uncertainty u that A(sp)'s condition 2 feeds on.
func SweepSporadicVsSemiSync(s, n int, c1, c2, d2 sim.Duration, steps, seeds int) ([]FutureWorkPoint, error) {
	if steps < 2 {
		steps = 2
	}
	spec := core.Spec{S: s, N: n}
	// Groups 2i / 2i+1 hold point i's semi-sync and sporadic matrices.
	var groups []mpGroup
	d1s := make([]sim.Duration, steps)
	for i := 0; i < steps; i++ {
		d1s[i] = d2 - d2*sim.Duration(i)/sim.Duration(steps-1) // d2 -> 0
		groups = append(groups,
			mpGroup{"F6 semisync", semisync.NewMP(semisync.Auto), spec, timing.NewSemiSynchronous(c1, c2, d2)},
			mpGroup{fmt.Sprintf("F6 sporadic d1=%v", d1s[i]), sporadic.NewMP(), spec, timing.NewSporadic(c1, d1s[i], d2, c2)})
	}
	max, err := maxFinishByGroup(context.Background(), engine.New(), groups, seeds, false)
	if err != nil {
		return nil, fmt.Errorf("F6: %w", err)
	}
	out := make([]FutureWorkPoint, steps)
	for i, d1 := range d1s {
		ss, sp := max[2*i], max[2*i+1]
		out[i] = FutureWorkPoint{
			U:            d2 - d1,
			SemiSync:     ss,
			Sporadic:     sp,
			SporadicWins: sp < ss,
		}
	}
	return out, nil
}
