package harness

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"sessionproblem/internal/engine"
	"sessionproblem/internal/fault"
)

// The acceptance property of the robustness sweep: the guarantee holds at
// intensity 0 (the fault-free control is byte-identical to the plain path),
// degrades somewhere past a threshold, and every broken run carries an
// explanation — the silent quadrant stays empty.
func TestFaultSweepMonotoneAcceptance(t *testing.T) {
	rows, err := FaultSweep(context.Background(), FaultSweepConfig{
		S: 2, N: 3, Seeds: 2,
		Intensities: []float64{0, 0.9},
		MaxSteps:    20_000,
		Models:      []string{"semi-synchronous", "sporadic"},
	})
	if err != nil {
		t.Fatalf("FaultSweep: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: got %d, want 2", len(rows))
	}
	for _, row := range rows {
		ctrl := row.Cells[0]
		if ctrl.Intensity != 0 || ctrl.Admissible != ctrl.Runs {
			t.Errorf("%s: fault-free control not fully admissible: %+v", row.Model, ctrl)
		}
		hot := row.Cells[len(row.Cells)-1]
		if hot.Broken == 0 {
			t.Errorf("%s: guarantee survived intensity %.2f across all %d runs", row.Model, hot.Intensity, hot.Runs)
		}
		if row.Margin < 0 {
			t.Errorf("%s: margin %v despite a clean control cell", row.Model, row.Margin)
		}
		for _, c := range row.Cells {
			if c.Silent != 0 {
				t.Errorf("%s i=%.2f: %d silent wrong answers", row.Model, c.Intensity, c.Silent)
			}
			if c.Admissible+c.Recovered+c.Broken != c.Runs {
				t.Errorf("%s i=%.2f: verdicts don't partition the runs: %+v", row.Model, c.Intensity, c)
			}
		}
	}
}

// The sweep must be byte-identical at any parallelism: fault seeds are keyed
// by run-matrix index, never by scheduling order.
func TestFaultSweepDeterministicAcrossParallelism(t *testing.T) {
	render := func(parallelism int) string {
		rows, err := FaultSweep(context.Background(), FaultSweepConfig{
			S: 2, N: 2, Seeds: 2,
			Intensities: []float64{0, 0.3},
			MaxSteps:    20_000,
			Engine:      engine.New(engine.WithParallelism(parallelism)),
		})
		if err != nil {
			t.Fatalf("FaultSweep(parallelism=%d): %v", parallelism, err)
		}
		var buf bytes.Buffer
		if err := WriteFaultSweep(&buf, rows); err != nil {
			t.Fatalf("WriteFaultSweep: %v", err)
		}
		return buf.String()
	}
	p1, pn := render(1), render(8)
	if p1 != pn {
		t.Fatalf("fault sweep differs across parallelism:\n--- p=1\n%s\n--- p=8\n%s", p1, pn)
	}
	if !strings.Contains(p1, "MARGIN") {
		t.Fatalf("rendered table missing header:\n%s", p1)
	}
}

func TestFaultSweepUnknownModel(t *testing.T) {
	_, err := FaultSweep(context.Background(), FaultSweepConfig{Models: []string{"quantum"}})
	if err == nil || !strings.Contains(err.Error(), "quantum") {
		t.Fatalf("unknown model not rejected: %v", err)
	}
}

// The facade-level sweep kind flattens the robustness rows into SweepPoints
// with the held fraction as the measurement.
func TestSweepFaultIntensityKind(t *testing.T) {
	pts, err := Sweep(context.Background(), SweepSpec{
		Kind:        SweepKindFaultIntensity,
		S:           2,
		N:           2,
		Seeds:       1,
		Intensities: []float64{0, 0.5},
		Engine:      engine.New(engine.WithParallelism(2)),
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	// Five model rows x two intensities.
	if len(pts) != 10 {
		t.Fatalf("points: got %d, want 10", len(pts))
	}
	for _, p := range pts {
		if p.Measured < 0 || p.Measured > 1 {
			t.Errorf("%s: held fraction %v outside [0,1]", p.Label, p.Measured)
		}
		if p.X == 0 && p.Measured != 1 {
			t.Errorf("%s: fault-free control held fraction %v, want 1", p.Label, p.Measured)
		}
	}
}

// PerKind must extend the sweep without perturbing it: the base cells and
// margins are bit-identical to a PerKind-free run, and every swept kind gets
// a margin bounded by the intensity axis.
func TestFaultSweepPerKind(t *testing.T) {
	base := FaultSweepConfig{
		S: 2, N: 2, Seeds: 1,
		Intensities: []float64{0, 0.3, 0.9},
		MaxSteps:    20_000,
		Models:      []string{"synchronous", "sporadic"},
	}
	plain, err := FaultSweep(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.PerKind = true
	rows, err := FaultSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	kinds := fault.AllKinds()
	for i, row := range rows {
		if !reflect.DeepEqual(row.Cells, plain[i].Cells) || row.Margin != plain[i].Margin {
			t.Errorf("%s: PerKind perturbed the base matrix:\n%+v\nvs\n%+v",
				row.Model, row.Cells, plain[i].Cells)
		}
		if len(row.KindMargins) != len(kinds) {
			t.Fatalf("%s: %d kind margins, want %d", row.Model, len(row.KindMargins), len(kinds))
		}
		for _, k := range kinds {
			m, ok := row.KindMargins[k]
			if !ok {
				t.Errorf("%s: kind %v missing", row.Model, k)
				continue
			}
			if m != -1 && m != 0 && m != 0.3 && m != 0.9 {
				t.Errorf("%s/%v: margin %v not on the intensity axis", row.Model, k, m)
			}
			// A single kind injects a subset of the combined plan's faults,
			// so its margin can only meet or exceed the combined margin...
			// except that plan seeds differ, so we only check the control:
			// intensity 0 holds for every kind, hence margin >= 0.
			if m < 0 {
				t.Errorf("%s/%v: margin %v, want >= 0 (fault-free control must hold)", row.Model, k, m)
			}
		}
	}
	if plain[0].KindMargins != nil {
		t.Error("PerKind-off rows carry kind margins")
	}

	// Rendering: the per-kind table appears, and only with PerKind on.
	var with, without bytes.Buffer
	if err := WriteFaultSweep(&with, rows); err != nil {
		t.Fatal(err)
	}
	if err := WriteFaultSweep(&without, plain); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(with.String(), "Per-kind robustness margins") {
		t.Errorf("per-kind table missing:\n%s", with.String())
	}
	if strings.Contains(without.String(), "Per-kind") {
		t.Errorf("per-kind table leaked into default output:\n%s", without.String())
	}
	if !strings.HasPrefix(with.String(), without.String()) {
		t.Errorf("PerKind changed the main table:\n%s\nvs\n%s", with.String(), without.String())
	}
}
