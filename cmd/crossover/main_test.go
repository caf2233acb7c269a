package main

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"sessionproblem/internal/journal"
)

// TestRunF4 runs F4 at one seed and checks that -seeds reaches it: the
// journal holds one frame per (model, strategy) pair, 5 rows × 5
// strategies, not the default three seeds' 75.
func TestRunF4(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f4.journal")
	if err := run([]string{"-exp", "f4", "-seeds", "1", "-journal", path}); err != nil {
		t.Fatalf("run f4: %v", err)
	}
	st, err := journal.Scan(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != 25 {
		t.Errorf("-seeds 1 journaled %d frames, want 25", st.Frames)
	}
}

func TestRunF5(t *testing.T) {
	if err := run([]string{"-exp", "f5", "-seeds", "1"}); err != nil {
		t.Fatalf("run f5: %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "nope"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunF6 runs F6 at one seed on the tool's engine: the journal holds one
// frame per (group, strategy) pair, the semi-synchronous baseline once plus
// eight sporadic points, times 5 strategies. An expired -timeout fails it.
func TestRunF6(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f6.journal")
	if err := run([]string{"-exp", "f6", "-seeds", "1", "-journal", path}); err != nil {
		t.Fatalf("run f6: %v", err)
	}
	st, err := journal.Scan(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != 45 {
		t.Errorf("f6 at one seed journaled %d frames, want 45", st.Frames)
	}
	if err := run([]string{"-exp", "f6", "-seeds", "1", "-timeout", "1ns"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("f6 with an expired -timeout: err = %v, want the deadline", err)
	}
}

func TestRunF7(t *testing.T) {
	if err := run([]string{"-exp", "f7"}); err != nil {
		t.Fatalf("run f7: %v", err)
	}
}

func TestRunTight(t *testing.T) {
	if err := run([]string{"-exp", "tight"}); err != nil {
		t.Fatalf("run tight: %v", err)
	}
}
