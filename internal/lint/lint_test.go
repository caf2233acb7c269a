package lint_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sessionproblem/internal/lint"
	"sessionproblem/internal/lint/linttest"
)

func TestNodetermFixtures(t *testing.T) {
	linttest.Run(t, lint.Nodeterm, "testdata/nodeterm/det", "sessionproblem/internal/alg/detfixture")
}

func TestNodetermIgnoresNondeterministicPackages(t *testing.T) {
	linttest.RunClean(t, lint.Nodeterm, "testdata/nodeterm/free", "sessionproblem/cmd/freefixture")
}

// The fault-injection layer must itself be deterministic: a fault plan is a
// pure function of its seed. This fixture pins internal/fault inside the
// nodeterm set so a wall clock or math/rand can never leak into plans.
func TestNodetermCoversFaultPackage(t *testing.T) {
	linttest.Run(t, lint.Nodeterm, "testdata/nodeterm/fault", "sessionproblem/internal/fault")
}

// The arenas back recorded traces and message buffers, so internal/arena
// sits in the nodeterm set too: nondeterministic capacity or recycling
// decisions would silently leak into results via reused backing arrays.
func TestNodetermCoversArenaPackage(t *testing.T) {
	linttest.Run(t, lint.Nodeterm, "testdata/nodeterm/arena", "sessionproblem/internal/arena")
}

func TestMaprangeFixtures(t *testing.T) {
	linttest.Run(t, lint.Maprange, "testdata/maprange", "sessionproblem/internal/maprangefixture")
}

func TestCtxpollFixtures(t *testing.T) {
	linttest.Run(t, lint.Ctxpoll, "testdata/ctxpoll", "sessionproblem/internal/ctxpollfixture")
}

func TestFacadeonlyFlagsExamples(t *testing.T) {
	linttest.Run(t, lint.Facadeonly, "testdata/facadeonly/example", "sessionproblem/examples/demofixture")
}

func TestFacadeonlyIgnoresCommands(t *testing.T) {
	linttest.RunClean(t, lint.Facadeonly, "testdata/facadeonly/cmd", "sessionproblem/cmd/demofixture")
}

func TestPanicmsgFixtures(t *testing.T) {
	linttest.Run(t, lint.Panicmsg, "testdata/panicmsg/internal", "sessionproblem/internal/pm")
}

func TestPanicmsgIgnoresExternalPackages(t *testing.T) {
	linttest.RunClean(t, lint.Panicmsg, "testdata/panicmsg/external", "sessionproblem/extfixture")
}

// TestSuiteRunsCleanOverRepo is the acceptance gate: the shipped tree —
// test files included, the surface cmd/sessionlint checks by default — has
// no outstanding diagnostics (violations are either fixed or carry an
// explicit //lint:allow directive).
func TestSuiteRunsCleanOverRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := lint.LoadTests("../..", true, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	sawLint := false
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Path, "internal/lint") {
			sawLint = true
		}
		diags, err := lint.Check(pkg.Fset, pkg.Files, pkg.Types, pkg.Info, lint.Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
	if !sawLint {
		t.Error("module walk did not include internal/lint itself")
	}
}

// TestMaprangeAuditedPackagesStayClean is the regression gate for the
// map-iteration audit of the result-producing packages: aggregation in
// internal/model, internal/harness and internal/check must never let map
// iteration order escape into results (the only map ranges there today are
// order-insensitive comparisons or map-to-map builds, and it must stay
// that way).
func TestMaprangeAuditedPackagesStayClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks packages")
	}
	pkgs, err := lint.Load("../..", "./internal/model", "./internal/harness", "./internal/check")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 3 {
		t.Fatalf("expected 3 audited packages, loaded %d", len(pkgs))
	}
	for _, pkg := range pkgs {
		diags, err := lint.Check(pkg.Fset, pkg.Files, pkg.Types, pkg.Info, []*lint.Analyzer{lint.Maprange})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}

func TestDeterministicSetCoversSimulatorPackages(t *testing.T) {
	for _, path := range []string{
		"sessionproblem/internal/sim",
		"sessionproblem/internal/sm",
		"sessionproblem/internal/mp",
		"sessionproblem/internal/timing",
		"sessionproblem/internal/core",
		"sessionproblem/internal/adversary",
		"sessionproblem/internal/model",
		"sessionproblem/internal/explore",
		"sessionproblem/internal/engine",
		"sessionproblem/internal/fault",
		"sessionproblem/internal/alg/periodic",
	} {
		if !lint.IsDeterministicPkg(path) {
			t.Errorf("%s should be in the deterministic set", path)
		}
	}
	for _, path := range []string{
		"sessionproblem",
		"sessionproblem/internal/harness",
		"sessionproblem/internal/lint",
		"sessionproblem/cmd/sessiontable",
	} {
		if lint.IsDeterministicPkg(path) {
			t.Errorf("%s should not be in the deterministic set", path)
		}
	}
}

func TestErrcacheFixtures(t *testing.T) {
	linttest.Run(t, lint.Errcache, "testdata/errcache", "sessionproblem/internal/errcachefixture")
}

func TestWiretagDriftFixture(t *testing.T) {
	linttest.Run(t, lint.Wiretag, "testdata/wiretag/drift", "sessionproblem/wire")
}

// TestWiretagCleanFixture checks the silent path and owns the fixture
// goldens: UPDATE_LINT_FIXTURES=1 go test ./internal/lint regenerates
// testdata/wiretag/*/schema_v1.json from the clean fixture's declarations
// (the drift fixture deliberately diverges from that same golden).
func TestWiretagCleanFixture(t *testing.T) {
	pkg, err := lint.LoadFiles("", "sessionproblem/wire", "testdata/wiretag/clean/clean.go")
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_LINT_FIXTURES") != "" {
		data, err := lint.WireSchemaJSON(pkg)
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range []string{"testdata/wiretag/clean", "testdata/wiretag/drift"} {
			if err := os.WriteFile(filepath.Join(dir, lint.WireSchemaFile), data, 0o666); err != nil {
				t.Fatal(err)
			}
		}
	}
	diags, err := lint.Check(pkg.Fset, pkg.Files, pkg.Types, pkg.Info, []*lint.Analyzer{lint.Wiretag})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestWireSchemaGoldenIsCurrent recomputes the real wire package's schema
// and compares it byte-for-byte against the committed golden: a wire type
// change without `sessionlint -update-schema` fails here before it fails
// in CI.
func TestWireSchemaGoldenIsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the wire package")
	}
	pkgs, err := lint.Load("../..", "./wire")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("expected 1 package, loaded %d", len(pkgs))
	}
	computed, err := lint.WireSchemaJSON(pkgs[0])
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile("../../wire/" + lint.WireSchemaFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(computed, committed) {
		t.Errorf("wire/%s is stale; run sessionlint -update-schema and review the diff together with a wire.Version bump", lint.WireSchemaFile)
	}
}

// TestWiretagCatchesTagRename simulates the exact accident wiretag exists
// for: a json tag rename on a committed envelope field. The committed
// golden with one tag renamed must diff against itself unmodified.
func TestWiretagCatchesTagRename(t *testing.T) {
	data, err := os.ReadFile("../../wire/" + lint.WireSchemaFile)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := lint.ParseWireSchema(data)
	if err != nil {
		t.Fatal(err)
	}
	renamed, err := lint.ParseWireSchema(data)
	if err != nil {
		t.Fatal(err)
	}
	fields := renamed.TypeFields("Table")
	if len(fields) == 0 {
		t.Fatal("committed schema has no Table type")
	}
	fields[0].JSON = "renamed"
	diffs := lint.DiffWireSchemas(golden, renamed)
	if len(diffs) != 1 {
		t.Fatalf("expected exactly 1 diff for a single tag rename, got %d: %v", len(diffs), diffs)
	}
	if diffs[0].Type != "Table" || !strings.Contains(diffs[0].Detail, "json tag changed") {
		t.Errorf("diff did not pin the rename: %+v", diffs[0])
	}
}

func TestNodetermCoversDiskcachePackage(t *testing.T) {
	linttest.Run(t, lint.Nodeterm, "testdata/nodeterm/diskcache", "sessionproblem/internal/diskcache")
}

func TestNodetermCoversCmdflagsPackage(t *testing.T) {
	linttest.Run(t, lint.Nodeterm, "testdata/nodeterm/cmdflags", "sessionproblem/internal/cmdflags")
}

func TestNodetermCoversWirePackage(t *testing.T) {
	linttest.Run(t, lint.Nodeterm, "testdata/nodeterm/wire", "sessionproblem/wire")
}

// The streaming certifier replaces the materialized trace, so its counts
// must be a pure function of the observed steps: nodeterm pins it.
func TestNodetermCoversCertifyPackage(t *testing.T) {
	linttest.Run(t, lint.Nodeterm, "testdata/nodeterm/certify", "sessionproblem/internal/certify")
}

// Generated topology families are part of every diameter-sweep result, so
// graph construction must be a pure function of (family, n, seed).
func TestNodetermCoversTopoPackage(t *testing.T) {
	linttest.Run(t, lint.Nodeterm, "testdata/nodeterm/topo", "sessionproblem/internal/topo")
}

func TestNodetermCoversJournalPackage(t *testing.T) {
	linttest.Run(t, lint.Nodeterm, "testdata/nodeterm/journal", "sessionproblem/internal/journal")
}

// Test variants inherit their base package's membership in the
// deterministic set: the invariants hold in test helpers too.
func TestDeterministicSetCoversTestVariants(t *testing.T) {
	for _, path := range []string{
		"sessionproblem/internal/sim [sessionproblem/internal/sim.test]",
		"sessionproblem/internal/engine_test",
		"sessionproblem/wire",
		"sessionproblem/internal/diskcache",
		"sessionproblem/internal/cmdflags",
		"sessionproblem/internal/journal",
		"sessionproblem/internal/journal_test",
	} {
		if !lint.IsDeterministicPkg(path) {
			t.Errorf("%s should be in the deterministic set", path)
		}
	}
}

func TestFacadeonlyExemptions(t *testing.T) {
	linttest.RunClean(t, lint.Facadeonly, "testdata/facadeonly/exempt", "sessionproblem/examples/exemptfixture")
	for _, path := range []string{
		"sessionproblem/wire",
		"sessionproblem/internal/diskcache",
		"sessionproblem/internal/cmdflags",
	} {
		if !lint.IsFacadeExempt(path) {
			t.Errorf("%s should be facade-exempt", path)
		}
	}
	if lint.IsFacadeExempt("sessionproblem/internal/core") {
		t.Error("internal/core must not be facade-exempt")
	}
}

// TestLoadTestsIncludesTestFiles pins the -tests loading path: the test
// variant's _test.go sources are parsed and type-checked together with the
// package proper, under the base import path.
func TestLoadTestsIncludesTestFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks packages")
	}
	pkgs, err := lint.LoadTests("../..", true, "./internal/arena")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("expected the merged test variant only, loaded %d packages", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.Path != "sessionproblem/internal/arena" {
		t.Errorf("test variant checked under %q, want the base path", pkg.Path)
	}
	sawTestFile := false
	for _, f := range pkg.Files {
		if strings.HasSuffix(pkg.Fset.Position(f.Package).Filename, "_test.go") {
			sawTestFile = true
		}
	}
	if !sawTestFile {
		t.Error("test variant did not include any _test.go file")
	}

	noTests, err := lint.LoadTests("../..", false, "./internal/arena")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range noTests {
		for _, f := range p.Files {
			if strings.HasSuffix(p.Fset.Position(f.Package).Filename, "_test.go") {
				t.Errorf("tests=false loaded %s", p.Fset.Position(f.Package).Filename)
			}
		}
	}
}

// TestCollectAllows pins the waiver inventory: the engine's wall-clock
// waivers (code and tests) are found with their analyzer and a non-empty
// justification.
func TestCollectAllows(t *testing.T) {
	allows, err := lint.CollectAllows("../..", "./internal/engine")
	if err != nil {
		t.Fatal(err)
	}
	if len(allows) < 5 {
		t.Fatalf("expected the engine's nodeterm waivers, got %d", len(allows))
	}
	sawTestFile := false
	for _, a := range allows {
		if len(a.Analyzers) != 1 || a.Analyzers[0] != "nodeterm" {
			t.Errorf("%s:%d: unexpected analyzers %v", a.File, a.Line, a.Analyzers)
		}
		if a.Reason == "" {
			t.Errorf("%s:%d: waiver without justification", a.File, a.Line)
		}
		if strings.HasSuffix(a.File, "_test.go") {
			sawTestFile = true
		}
	}
	if !sawTestFile {
		t.Error("inventory missed the test-file waivers")
	}
}
