package harness

import (
	"context"
	"fmt"

	"sessionproblem/internal/alg/async"
	"sessionproblem/internal/bounds"
	"sessionproblem/internal/certify"
	"sessionproblem/internal/core"
	"sessionproblem/internal/mp"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
	"sessionproblem/internal/topo"
)

// DiameterPoint is one topology's entry in the F5 experiment.
type DiameterPoint struct {
	Topology    string
	Diameter    int
	EffectiveD2 sim.Duration
	Measured    float64 // worst finish over seeds
	PaperUpper  float64 // (s-1)(d2_eff + c2) + c2
}

// diameterTopoSeed fixes the seed the sweep's generated families are
// built from: the F5 experiment varies the topology, not the graph draw,
// and a constant keeps every point a pure function of (family, n).
const diameterTopoSeed = 1

// SweepDiameter is experiment F5: the paper converts [4]'s point-to-point
// results to the broadcast model by letting d2 subsume the network
// diameter. Here the asynchronous algorithm runs over concrete topologies
// with per-hop delays in [0, hopDelay]; the measured worst case must track
// diameter*hopDelay through the abstract bound. Every run is trace-free and
// certified online against the abstract model the conversion claims it
// realizes (step gaps up to c2, delays up to diameter*hopDelay), failing as
// the core runners do on an inadmissible schedule or too few sessions; ctx
// cancels the sweep mid-run. The optional families argument selects which
// topo.Families entries to sweep (generated families included); empty
// means the paper's four fixed extremes.
func SweepDiameter(ctx context.Context, s, n int, c2, hopDelay sim.Duration, seeds int, families ...string) ([]DiameterPoint, error) {
	if err := checkSeeds(seeds); err != nil {
		return nil, err
	}
	if err := checkSpec(s, n, 0, false); err != nil {
		return nil, err
	}
	if len(families) == 0 {
		families = []string{"complete", "star", "ring", "line"}
	}
	topos := make([]struct {
		name string
		g    *topo.Graph
	}, len(families))
	for i, name := range families {
		g, err := topo.Build(name, n, diameterTopoSeed)
		if err != nil {
			return nil, fmt.Errorf("F5 topology %s: %w", name, err)
		}
		topos[i].name, topos[i].g = name, g
	}
	spec := core.Spec{S: s, N: n}
	var out []DiameterPoint
	for _, tt := range topos {
		diam := tt.g.Diameter()
		if diam == 0 {
			diam = 1
		}
		d2eff := sim.Duration(diam) * hopDelay
		abstract := timing.NewAsynchronousMP(c2, d2eff)
		var worst float64
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			sys, err := async.NewMP().BuildMP(spec, timing.NewAsynchronousMP(c2, 0))
			if err != nil {
				return nil, err
			}
			inner := timing.NewAsynchronousMP(c2, 0).NewScheduler(timing.Slow, seed)
			hs, err := topo.NewHopScheduler(tt.g, inner, 0, hopDelay, seed)
			if err != nil {
				return nil, err
			}
			ctr := certify.New(len(sys.Procs), len(sys.PortProcs)).CheckAdmissibility(abstract)
			res, err := mp.RunContext(ctx, sys, hs, mp.Options{Observer: ctr, DelayObserver: ctr, DiscardSteps: true})
			if err != nil {
				return nil, fmt.Errorf("F5 %s seed %d: %w", tt.name, seed, err)
			}
			if err := ctr.Err(); err != nil {
				return nil, fmt.Errorf("F5 %s seed %d: inadmissible computation: %w", tt.name, seed, err)
			}
			if got := ctr.Sessions(); got < s {
				return nil, fmt.Errorf("F5 %s seed %d: only %d sessions", tt.name, seed, got)
			}
			if f := float64(res.Finish); f > worst {
				worst = f
			}
		}
		p := bounds.Params{S: s, N: n, C2: c2, D2: d2eff}
		out = append(out, DiameterPoint{
			Topology:    tt.name,
			Diameter:    diam,
			EffectiveD2: d2eff,
			Measured:    worst,
			PaperUpper:  bounds.AsyncMPU(p),
		})
	}
	return out, nil
}
