package harness

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"sessionproblem/internal/alg/periodic"
	"sessionproblem/internal/alg/registry"
	"sessionproblem/internal/alg/semisync"
	"sessionproblem/internal/alg/sporadic"
	"sessionproblem/internal/bounds"
	"sessionproblem/internal/core"
	"sessionproblem/internal/engine"
	"sessionproblem/internal/fault"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/timing"
)

// SweepPoint is one x/y observation of a sweep experiment, together with the
// paper-predicted envelope at that x.
type SweepPoint struct {
	X          float64
	Label      string
	Measured   float64
	PaperLower float64
	PaperUpper float64
}

// mpGroup is one aggregation group of a sweep's run matrix (a sweep point,
// a comparison contender, a hierarchy row): an MP algorithm under one
// model, run under every strategy over the sweep's seeds.
type mpGroup struct {
	label string
	alg   core.MPAlgorithm
	spec  core.Spec
	model timing.Model
}

// maxFinishByGroup runs every group under every strategy over seeds 1..k,
// one seed-group task per (group, strategy) or, with noBatch, one task per
// seed, and returns each group's worst (maximum) finish time. Aggregation
// visits outcomes in matrix order, so the result is independent of layout
// and parallelism.
func maxFinishByGroup(ctx context.Context, eng *engine.Engine, groups []mpGroup, k int, noBatch bool) ([]float64, error) {
	sts := timing.AllStrategies()
	outs, err := runGroups(ctx, eng, len(groups)*len(sts), k, noBatch,
		func(g int) string {
			return fmt.Sprintf("%s %v", groups[g/len(sts)].label, sts[g%len(sts)])
		},
		func(ctx context.Context, g int, seeds []uint64) (groupOutcome, error) {
			r := groups[g/len(sts)]
			// Same key space as the Table-1 cells: a hierarchy or sweep run
			// that coincides with a table run is the same computation and
			// shares its cache slot.
			return batchSeedGroup(ctx, nil, r.alg, "MP", r.spec, r.model, sts[g%len(sts)], seeds,
				func(_ uint64, err error) error {
					return fmt.Errorf("%s: %w", r.label, err)
				})
		})
	if err != nil {
		return nil, err
	}
	max := make([]float64, len(groups))
	for i, o := range outs {
		if g := i / (len(sts) * k); o.finish > max[g] {
			max[g] = o.finish
		}
	}
	return max, nil
}

// maxFinishMP runs an MP algorithm across strategies/seeds and returns the
// worst running time and worst per-session time.
func maxFinishMP(ctx context.Context, eng *engine.Engine, alg core.MPAlgorithm, spec core.Spec, m timing.Model, seeds int) (finish, perSession float64, err error) {
	max, err := maxFinishByGroup(ctx, eng, []mpGroup{{alg.Name(), alg, spec, m}}, seeds, false)
	if err != nil {
		return 0, 0, err
	}
	finish = max[0]
	if spec.S > 0 {
		perSession = finish / float64(spec.S)
	}
	return finish, perSession, nil
}

// SweepKind selects which experiment a SweepSpec runs.
type SweepKind int

const (
	// SweepKindSporadicDelay is experiment F1: per-session time of A(sp)
	// as d1 sweeps from 0 to d2.
	SweepKindSporadicDelay SweepKind = iota + 1
	// SweepKindPeriodicVsSemiSync is experiment F2: A(p) under the periodic
	// model versus the semi-synchronous algorithm as s grows.
	SweepKindPeriodicVsSemiSync
	// SweepKindPeriodicVsSporadic is experiment F3: A(p) versus A(sp) as
	// cmax grows.
	SweepKindPeriodicVsSporadic
	// SweepKindFaultIntensity is the robustness sweep: every MP model's
	// algorithm under increasing fault intensity, measured as the fraction
	// of runs whose session guarantee survived (see FaultSweep for the
	// structured per-model form).
	SweepKindFaultIntensity
	// SweepKindSporadicVsSemiSync is experiment F6: A(sp) under the
	// sporadic model, gaps capped at c2, versus the semi-synchronous
	// algorithm as d1 sweeps from d2 down to 0 (see SweepSporadicVsSemiSync
	// for the structured form).
	SweepKindSporadicVsSemiSync
	// SweepKindNetworkDiameter is experiment F5: the asynchronous algorithm
	// over point-to-point topologies with per-hop delays in [0, D2], against
	// the abstract bound at d2 = diameter·D2.
	SweepKindNetworkDiameter
)

// SweepSpec declares a sweep experiment as data: the kind, the problem
// size, the timing constants, the swept range, and the execution knobs.
// It replaces the positional-argument Sweep* signatures, which remain as
// thin wrappers.
type SweepSpec struct {
	Kind SweepKind

	S int // sessions (F1, F3, F5, F6)
	N int // ports

	C1 sim.Duration // step-time lower bound
	C2 sim.Duration // step-time upper bound / period max (F2) / sporadic gap cap (F6)
	D1 sim.Duration // message-delay lower bound (F3 sporadic baseline)
	D2 sim.Duration // message-delay upper bound / per-hop delay bound (F5)

	Steps int            // number of sweep points (F1, F6)
	MaxS  int            // largest session count (F2; sweeps s = 2..MaxS)
	Cmaxs []sim.Duration // swept period maxima (F3)

	Intensities []float64    // swept fault intensities (fault-intensity sweep)
	FaultSeed   uint64       // base fault-plan seed (fault-intensity sweep)
	FaultKinds  []fault.Kind // injected fault classes; empty = all

	Topologies []string // topology families (F5); empty = complete, star, ring, line

	Seeds int // seeds per strategy (default 3)

	// Engine optionally supplies a shared execution engine; nil means a
	// fresh one per call (see Config.Engine).
	Engine *engine.Engine

	// NoSeedBatch runs every (strategy, seed) run as its own engine task, a
	// seed group of one; see Config.NoSeedBatch.
	NoSeedBatch bool
}

func (sp SweepSpec) withDefaults() SweepSpec {
	if sp.Seeds == 0 {
		sp.Seeds = 3
	}
	return sp
}

// Sweep runs the experiment a SweepSpec declares, fanning the full
// (point × strategy × seed) run matrix across the spec's engine.
func Sweep(ctx context.Context, sp SweepSpec) ([]SweepPoint, error) {
	sp = sp.withDefaults()
	switch sp.Kind {
	case SweepKindSporadicDelay:
		return sweepSporadicDelay(ctx, sp)
	case SweepKindPeriodicVsSemiSync:
		return sweepPeriodicVsSemiSync(ctx, sp)
	case SweepKindPeriodicVsSporadic:
		return sweepPeriodicVsSporadic(ctx, sp)
	case SweepKindFaultIntensity:
		return sweepFaultIntensity(ctx, sp)
	case SweepKindSporadicVsSemiSync:
		return sweepSporadicVsSemiSync(ctx, sp)
	case SweepKindNetworkDiameter:
		return sweepNetworkDiameter(ctx, sp)
	default:
		return nil, fmt.Errorf("harness: unknown sweep kind %d", sp.Kind)
	}
}

// sweepSporadicDelay is experiment F1: per-session time of A(sp) as d1
// sweeps from 0 to d2 (u from d2 down to 0). The paper's claim: as d1 -> d2
// the model behaves synchronously (per-session ~ c1..O(γ)); as d1 -> 0 it
// behaves asynchronously (per-session ~ d2).
func sweepSporadicDelay(ctx context.Context, sp SweepSpec) ([]SweepPoint, error) {
	if err := CheckSpec(sp.S, sp.N, 0, false); err != nil {
		return nil, err
	}
	steps := sp.Steps
	if steps < 2 {
		steps = 2
	}
	spec := core.Spec{S: sp.S, N: sp.N}
	d1s := make([]sim.Duration, steps)
	groups := make([]mpGroup, steps)
	for i := range groups {
		d1s[i] = sp.D2 * sim.Duration(i) / sim.Duration(steps-1)
		groups[i] = mpGroup{fmt.Sprintf("F1 d1=%v", d1s[i]), sporadic.NewMP(), spec,
			timing.NewSporadic(sp.C1, d1s[i], sp.D2, 2*sp.C1)}
	}
	max, err := maxFinishByGroup(ctx, engineOr(sp.Engine), groups, sp.Seeds, sp.NoSeedBatch)
	if err != nil {
		return nil, fmt.Errorf("F1: %w", err)
	}
	out := make([]SweepPoint, steps)
	for i, d1 := range d1s {
		p := bounds.Params{S: sp.S, N: sp.N, C1: sp.C1, D1: d1, D2: sp.D2, Gamma: 2 * sp.C1}
		per := 0.0
		if sp.S > 0 {
			per = max[i] / float64(sp.S)
		}
		out[i] = SweepPoint{
			X:          float64(d1) / float64(sp.D2),
			Label:      fmt.Sprintf("d1=%v", d1),
			Measured:   per,
			PaperLower: bounds.SporadicMPL(p) / float64(sp.S),
			PaperUpper: bounds.SporadicMPU(p) / float64(sp.S),
		}
	}
	return out, nil
}

// sweepPeriodicVsSemiSync is experiment F2: running time of A(p) under the
// periodic model versus the semi-synchronous algorithm under the
// semi-synchronous model, as s grows, with cmax = c2 and 2c1 < c2. The
// paper: the periodic model is more efficient when n is constant relative
// to s.
func sweepPeriodicVsSemiSync(ctx context.Context, sp SweepSpec) ([]SweepPoint, error) {
	numS := sp.MaxS - 1 // s = 2..MaxS
	if numS < 1 {
		return nil, fmt.Errorf("F2: MaxS must be >= 2, got %d", sp.MaxS)
	}
	// Groups 2i / 2i+1 hold point i's periodic and semi-sync matrices.
	var groups []mpGroup
	for i := 0; i < numS; i++ {
		s := i + 2
		spec := core.Spec{S: s, N: sp.N}
		groups = append(groups,
			mpGroup{fmt.Sprintf("F2 periodic s=%d", s), periodic.NewMP(), spec,
				timing.NewPeriodic(sp.C1, sp.C2, sp.D2)},
			mpGroup{fmt.Sprintf("F2 semisync s=%d", s), semisync.NewMP(semisync.Auto), spec,
				timing.NewSemiSynchronous(sp.C1, sp.C2, sp.D2)})
	}
	max, err := maxFinishByGroup(ctx, engineOr(sp.Engine), groups, sp.Seeds, sp.NoSeedBatch)
	if err != nil {
		return nil, fmt.Errorf("F2: %w", err)
	}
	out := make([]SweepPoint, numS)
	for i := 0; i < numS; i++ {
		s := i + 2
		perFinish, ssFinish := max[2*i], max[2*i+1]
		// For comparison sweeps the "envelope" fields carry the two
		// contenders: PaperLower holds the periodic measurement (same as
		// Measured) and PaperUpper the semi-synchronous comparator, so
		// WriteSweep's columns line up as periodic vs semi-sync.
		out[i] = SweepPoint{
			X:          float64(s),
			Label:      fmt.Sprintf("s=%d", s),
			Measured:   perFinish,
			PaperLower: perFinish,
			PaperUpper: ssFinish,
		}
	}
	return out, nil
}

// sweepPeriodicVsSporadic is experiment F3: A(p) under the periodic model
// versus A(sp) under the sporadic model as cmax grows. The paper: periodic
// wins while cmax < floor(u/4c1)*K.
func sweepPeriodicVsSporadic(ctx context.Context, sp SweepSpec) ([]SweepPoint, error) {
	spec := core.Spec{S: sp.S, N: sp.N}
	// Group 0 is the sporadic baseline; groups 1.. are the periodic points.
	groups := []mpGroup{{"F3 sporadic", sporadic.NewMP(), spec, timing.NewSporadic(sp.C1, sp.D1, sp.D2, 0)}}
	for _, cmax := range sp.Cmaxs {
		groups = append(groups, mpGroup{fmt.Sprintf("F3 periodic cmax=%v", cmax), periodic.NewMP(), spec,
			timing.NewPeriodic(sp.C1, cmax, sp.D2)})
	}
	max, err := maxFinishByGroup(ctx, engineOr(sp.Engine), groups, sp.Seeds, sp.NoSeedBatch)
	if err != nil {
		return nil, fmt.Errorf("F3: %w", err)
	}
	spFinish := max[0]
	out := make([]SweepPoint, len(sp.Cmaxs))
	for i, cmax := range sp.Cmaxs {
		out[i] = SweepPoint{
			X:          float64(cmax),
			Label:      fmt.Sprintf("cmax=%v", cmax),
			Measured:   max[i+1],
			PaperUpper: spFinish,
		}
	}
	return out, nil
}

// sweepFaultIntensity flattens the robustness sweep into SweepPoints: one
// point per (model, intensity) with Measured the fraction of runs whose
// session guarantee held and PaperUpper the fault-free ideal of 1.
func sweepFaultIntensity(ctx context.Context, sp SweepSpec) ([]SweepPoint, error) {
	rows, err := FaultSweep(ctx, FaultSweepConfig{
		S: sp.S, N: sp.N,
		C1: sp.C1, C2: sp.C2, D1: sp.D1, D2: sp.D2,
		Seeds:       sp.Seeds,
		Intensities: sp.Intensities,
		Kinds:       sp.FaultKinds,
		FaultSeed:   sp.FaultSeed,
		Engine:      sp.Engine,
		NoSeedBatch: sp.NoSeedBatch,
	})
	if err != nil {
		return nil, fmt.Errorf("fault sweep: %w", err)
	}
	var out []SweepPoint
	for _, r := range rows {
		for _, c := range r.Cells {
			held := 0.0
			if c.Runs > 0 {
				held = float64(c.Admissible+c.Recovered) / float64(c.Runs)
			}
			out = append(out, SweepPoint{
				X:          c.Intensity,
				Label:      fmt.Sprintf("%s i=%.2f", r.Model, c.Intensity),
				Measured:   held,
				PaperUpper: 1,
			})
		}
	}
	return out, nil
}

// HierarchyRow is one model's entry in the F4 summary.
type HierarchyRow struct {
	Model     string
	Comm      string
	Unit      string
	Measured  float64
	Algorithm string
}

// HierarchyCtx is experiment F4: the worst-case running time of every
// message-passing cell's algorithm at one parameter point, exhibiting the
// ordering synchronous <= periodic <= semi-synchronous/sporadic <=
// asynchronous the paper's Table 1 implies. The five cells' run matrices
// fan across the configured engine together.
func HierarchyCtx(ctx context.Context, cfg Config) ([]HierarchyRow, error) {
	cfg = cfg.withDefaults()
	if err := CheckC1(cfg.C1); err != nil {
		return nil, err
	}
	spec := core.Spec{S: cfg.S, N: cfg.N}
	p := cfg.params()

	cells := registry.MPCells()
	groups := make([]mpGroup, len(cells))
	for i, c := range cells {
		groups[i] = mpGroup{"F4 " + c.Row, c.MP, spec, c.Timing(p, 0)}
	}
	max, err := maxFinishByGroup(ctx, engineOr(cfg.Engine), groups, cfg.Seeds, cfg.NoSeedBatch)
	if err != nil {
		return nil, fmt.Errorf("F4: %w", err)
	}
	rows := make([]HierarchyRow, len(cells))
	for i, c := range cells {
		rows[i] = HierarchyRow{
			Model: c.Row, Comm: c.Comm, Unit: c.Unit,
			Measured: max[i], Algorithm: c.Algorithm(),
		}
	}
	return rows, nil
}

// WriteSweep renders sweep points as an aligned table.
func WriteSweep(w io.Writer, title, xName, measuredName, loName, hiName string, pts []SweepPoint) error {
	fmt.Fprintf(w, "# %s\n", title)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", xName, measuredName, loName, hiName)
	for _, p := range pts {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\n", p.Label, p.Measured, p.PaperLower, p.PaperUpper)
	}
	return tw.Flush()
}

// WriteHierarchy renders the F4 rows.
func WriteHierarchy(w io.Writer, rows []HierarchyRow) error {
	fmt.Fprintln(w, "# F4: model hierarchy (worst measured running time, message passing)")
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "MODEL\tUNIT\tWORST TIME\tALGORITHM")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%s\n", r.Model, r.Unit, r.Measured, r.Algorithm)
	}
	return tw.Flush()
}
