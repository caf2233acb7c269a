package harness

import (
	"context"
	"fmt"

	"sessionproblem/internal/alg/async"
	"sessionproblem/internal/bounds"
	"sessionproblem/internal/core"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
	"sessionproblem/internal/topo"
)

// diameterTopoSeed fixes the seed the sweep's generated families are
// built from: the F5 experiment varies the topology, not the graph draw,
// and a constant keeps every point a pure function of (family, n).
const diameterTopoSeed = 1

// sweepNetworkDiameter is experiment F5: the paper converts [4]'s
// point-to-point results to the broadcast model by letting d2 subsume the
// network diameter. The asynchronous algorithm runs over concrete
// topologies with per-hop delays in [0, D2]; the measured worst case must
// track diameter·D2 through the abstract bound. Each run is audited against
// the abstract model the conversion claims it realizes (step gaps up to C2,
// delays up to diameter·D2), and one that model does not admit, or that
// completes fewer than S sessions, fails the sweep. Topologies selects
// topo.Families entries (generated families included); empty means the
// paper's four fixed extremes. Points carry X = diameter, Label = family,
// Measured = the worst finish and PaperUpper = the abstract bound.
func sweepNetworkDiameter(ctx context.Context, sp SweepSpec) ([]SweepPoint, error) {
	if err := CheckSpec(sp.S, sp.N, 0, false); err != nil {
		return nil, err
	}
	families := sp.Topologies
	if len(families) == 0 {
		families = []string{"complete", "star", "ring", "line"}
	}
	type network struct {
		g     *topo.Graph
		diam  int
		model timing.Model // the abstract model: delays up to diam·D2
	}
	nets := make([]network, len(families))
	for i, name := range families {
		g, err := topo.Build(name, sp.N, diameterTopoSeed)
		if err != nil {
			return nil, fmt.Errorf("F5 topology %s: %w", name, err)
		}
		diam := max(g.Diameter(), 1)
		nets[i] = network{g, diam, timing.NewAsynchronousMP(sp.C2, sim.Duration(diam)*sp.D2)}
	}
	spec := core.Spec{S: sp.S, N: sp.N}
	alg := async.NewMP()
	outs, err := runGroups(ctx, engineOr(sp.Engine), len(nets), sp.Seeds, sp.NoSeedBatch,
		func(g int) string { return "F5 " + families[g] },
		func(ctx context.Context, g int, seeds []uint64) (groupOutcome, error) {
			net := nets[g]
			// The hop schedule is not the abstract model's, so the key also
			// names what determines it beyond RunKey's inputs: the family
			// (two families of one diameter differ) and the per-hop bound.
			comm := fmt.Sprintf("MP %s hop<=%d", families[g], sp.D2)
			key := func(seed uint64) string {
				return core.RunKey(comm, alg.Name(), spec, net.model, timing.Slow, seed, 0, nil)
			}
			return cachedGroup(ctx, seeds, key, func(miss []uint64, _ bool) ([]runOutcome, []*core.RunSummary, core.BatchStats, error) {
				sums := make([]*core.RunSummary, len(miss))
				for j, seed := range miss {
					rep, err := hopRun(ctx, alg, spec, net.model, net.g, sp.D2, seed)
					if err != nil {
						return nil, nil, core.BatchStats{}, &core.BatchError{Seed: seed, Err: err}
					}
					sums[j] = core.Summarize(rep)
				}
				return summarized(sums, core.BatchStats{}, nil)
			}, func(seed uint64, err error) error {
				return fmt.Errorf("F5 %s seed %d: %w", families[g], seed, err)
			})
		})
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(nets))
	for i, net := range nets {
		var worst float64
		for _, o := range outs[i*sp.Seeds : (i+1)*sp.Seeds] {
			worst = max(worst, o.finish)
		}
		out[i] = SweepPoint{
			X:          float64(net.diam),
			Label:      families[i],
			Measured:   worst,
			PaperUpper: bounds.AsyncMPU(bounds.Params{S: sp.S, N: sp.N, C2: sp.C2, D2: net.model.D2}),
		}
	}
	return out, nil
}

// hopRun audits one F5 run of seed: Slow step gaps under m, each broadcast
// delivered along shortest paths of g with per-hop delays drawn from
// [0, hop]. A run m does not admit, or one with too few sessions, is an
// error, so no such summary can reach the run cache.
func hopRun(ctx context.Context, alg core.MPAlgorithm, spec core.Spec, m timing.Model, g *topo.Graph, hop sim.Duration, seed uint64) (*core.Report, error) {
	hs, err := topo.NewHopScheduler(g, m.NewScheduler(timing.Slow, seed), 0, hop, seed)
	if err != nil {
		return nil, err
	}
	rep, err := core.AuditMP(ctx, alg, spec, m, hs, core.FaultRun{Scratch: scratchFrom(ctx)})
	switch {
	case err != nil:
		return nil, err
	case rep.Audit.Violations.Len() > 0:
		return nil, fmt.Errorf("inadmissible computation: %s", rep.Audit.Violations.Strings()[0])
	case !rep.Audit.Admissible():
		return nil, fmt.Errorf("only %d sessions", rep.Sessions)
	}
	return rep, nil
}
