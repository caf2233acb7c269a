package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sessionproblem/internal/journal"
)

// runOut runs the tool with stdout redirected to a file and returns what it
// printed.
func runOut(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	runErr := run(args)
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

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

// TestRunF5 runs F5 on the tool's engine: the journal holds one frame per
// (topology, seed), four default topologies at two seeds, a resumed run
// reprints the same table, and an expired -timeout fails it.
func TestRunF5(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f5.journal")
	fresh, err := runOut(t, "-exp", "f5", "-seeds", "2", "-journal", path)
	if err != nil {
		t.Fatalf("run f5: %v", err)
	}
	st, err := journal.Scan(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != 8 {
		t.Errorf("f5 at two seeds journaled %d frames, want 8", st.Frames)
	}
	resumed, err := runOut(t, "-exp", "f5", "-seeds", "2", "-journal", path, "-resume")
	if err != nil {
		t.Fatalf("resume f5: %v", err)
	}
	if resumed != fresh {
		t.Errorf("resumed f5 printed\n%s\nwant\n%s", resumed, fresh)
	}
	if err := run([]string{"-exp", "f5", "-seeds", "2", "-timeout", "1ns"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("f5 with an expired -timeout: err = %v, want the deadline", err)
	}
}

// TestF5WarmCacheIdentical: a warm run cache answers F5 byte-identically to
// a cold one. Ring and grid both have diameter 4 at n = 8 but measure
// differently, so a cache key without the topology family would serve
// ring's runs for grid.
func TestF5WarmCacheIdentical(t *testing.T) {
	args := []string{"-exp", "f5", "-seeds", "2", "-topo", "ring,grid", "-cache-dir", t.TempDir()}
	cold, err := runOut(t, args...)
	if err != nil {
		t.Fatalf("cold f5: %v", err)
	}
	warm, err := runOut(t, args...)
	if err != nil {
		t.Fatalf("warm f5: %v", err)
	}
	uncached, err := runOut(t, "-exp", "f5", "-seeds", "2", "-topo", "ring,grid")
	if err != nil {
		t.Fatalf("uncached f5: %v", err)
	}
	if cold != uncached || warm != uncached {
		t.Errorf("f5 output depends on the cache:\nuncached\n%s\ncold\n%s\nwarm\n%s", uncached, cold, warm)
	}
	for _, row := range []string{"ring       4     40      51", "grid       4     40      48"} {
		if !strings.Contains(uncached, row) {
			t.Errorf("f5 output lacks %q:\n%s", row, uncached)
		}
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

// TestRunTight runs the tightness search, and an expired -timeout fails
// it.
func TestRunTight(t *testing.T) {
	if err := run([]string{"-exp", "tight"}); err != nil {
		t.Fatalf("run tight: %v", err)
	}
	if err := run([]string{"-exp", "tight", "-timeout", "1ns"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("tight with an expired -timeout: err = %v, want the deadline", err)
	}
}
