package cmdflags

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sessionproblem/internal/harness"
)

// TestEngineReplaysJournalIntoMemoryTier: with -cache-dir and -journal, a
// resumed tool replays the journal into the run cache's memory tier. The
// replay rewrites no disk object (each frame's summary went to disk when
// it was journaled), and the resumed run serves every run from the replay
// with the journaled results.
func TestEngineReplaysJournalIntoMemoryTier(t *testing.T) {
	e := &Exec{Parallelism: 2, CacheDir: t.TempDir()}
	j := &Journal{Path: filepath.Join(t.TempDir(), "t1.journal"), Resume: true}
	table := func() []harness.Cell {
		t.Helper()
		eng, closer, err := e.Engine(j)
		if err != nil {
			t.Fatal(err)
		}
		defer closer()
		cfg := harness.Config{S: 2, N: 3, B: 3, C1: 2, Seeds: 1, Engine: eng}
		cells, err := harness.Table1Ctx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	objects := func() map[string]os.FileInfo {
		out := make(map[string]os.FileInfo)
		err := filepath.Walk(filepath.Join(e.CacheDir, "objects"), func(path string, fi os.FileInfo, err error) error {
			if err == nil && fi.Mode().IsRegular() {
				out[path] = fi
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := table()
	before := objects()
	if len(before) == 0 {
		t.Fatal("the journaled run stored no disk object")
	}
	if resumed := table(); !reflect.DeepEqual(first, resumed) {
		t.Error("resumed cells differ from the journaled run's")
	}
	after := objects()
	if len(after) != len(before) {
		t.Errorf("%d disk objects after the resumed run, %d before", len(after), len(before))
	}
	for path, fi := range before {
		if now, ok := after[path]; !ok || !os.SameFile(fi, now) || !now.ModTime().Equal(fi.ModTime()) {
			t.Errorf("disk object %s was rewritten by the resumed run", filepath.Base(path))
		}
	}
}
