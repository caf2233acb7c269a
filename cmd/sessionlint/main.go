// Sessionlint machine-enforces this repository's determinism and
// admissibility conventions: no wall-clock or global randomness in the
// simulator packages (nodeterm), no map-iteration order escaping into
// results (maprange), context polling in every potentially unbounded loop
// of a context-aware function (ctxpoll), facade-only imports in examples
// (facadeonly), "pkg: message" panic strings in internal packages
// (panicmsg), no caching of failed runs (errcache), and a frozen wire v1
// JSON schema (wiretag). See internal/lint for the analyzers.
//
// It runs in two modes:
//
//	sessionlint ./...                      # standalone, loads packages itself
//	go vet -vettool=$(which sessionlint) ./...  # as a vet backend
//
// The vettool mode implements go vet's compilation-unit protocol (-V=full,
// -flags, unit.cfg), so the go command handles loading, caching and
// per-package fan-out. Standalone mode loads test files too by default
// (-tests=false opts out); -json switches diagnostics from file:line:col
// text on stderr to a JSON array on stdout; -allows prints the complete
// //lint:allow waiver inventory instead of linting; -update-schema
// regenerates wire/schema_v1.json from the current wire package.
//
// Exit status: 0 when clean, 1 when any diagnostic fired, 2 when loading
// or analysis itself failed.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"sessionproblem/internal/lint"
)

// Exit codes: the distinction between "the code is dirty" and "the tool
// could not tell" matters to CI, which wants to fail a PR for the former
// and page somebody for the latter.
const (
	exitClean    = 0
	exitFindings = 1
	exitError    = 2
)

func main() {
	versionFlag := flag.String("V", "", "print version information (go vet protocol)")
	flagsFlag := flag.Bool("flags", false, "describe flags in JSON (go vet protocol)")
	jsonFlag := flag.Bool("json", false, "emit diagnostics (or the -allows inventory) as JSON on stdout")
	testsFlag := flag.Bool("tests", true, "include _test.go files and external test packages (standalone mode)")
	allowsFlag := flag.Bool("allows", false, "list every //lint:allow waiver (file, line, analyzers, reason) instead of linting")
	updateSchemaFlag := flag.Bool("update-schema", false, "regenerate wire/schema_v1.json from the current wire package and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sessionlint [-json] [-tests=false] [-allows] [-update-schema] [packages]  |  go vet -vettool=$(which sessionlint) [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()

	switch {
	case *versionFlag != "":
		printVersion()
	case *flagsFlag:
		// No analyzer flags are exposed to go vet; the empty list tells it so.
		fmt.Println("[]")
	case *updateSchemaFlag:
		os.Exit(runUpdateSchema(args))
	case *allowsFlag:
		os.Exit(runAllows(args, *jsonFlag))
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(runVetUnit(args[0]))
	default:
		if len(args) == 0 {
			flag.Usage()
			os.Exit(exitError)
		}
		os.Exit(runStandalone(args, *testsFlag, *jsonFlag))
	}
}

// printVersion emits the build-cache identity line go vet's -V=full probe
// expects: "name version <id>". Hashing the executable makes the id change
// with the tool, invalidating stale vet caches after a rebuild.
func printVersion() {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				id = fmt.Sprintf("%x", h.Sum(nil))[:16]
			}
			f.Close()
		}
	}
	fmt.Printf("sessionlint version sha256-%s\n", id)
}

// jsonDiagnostic is the -json wire form of one finding.
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// runStandalone loads the pattern-matched packages with the go command and
// analyzes them all in-process.
func runStandalone(patterns []string, tests, asJSON bool) int {
	pkgs, err := lint.LoadTests("", tests, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitError
	}
	var all []lint.Diagnostic
	for _, pkg := range pkgs {
		diags, err := lint.Check(pkg.Fset, pkg.Files, pkg.Types, pkg.Info, lint.Analyzers())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return exitError
		}
		all = append(all, diags...)
	}
	if asJSON {
		out := make([]jsonDiagnostic, 0, len(all))
		for _, d := range all {
			out = append(out, jsonDiagnostic{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
			})
		}
		if err := printJSON(out); err != nil {
			fmt.Fprintln(os.Stderr, "sessionlint:", err)
			return exitError
		}
	} else {
		for _, d := range all {
			fmt.Fprintf(os.Stderr, "%s\n", d)
		}
		if len(all) > 0 {
			fmt.Fprintf(os.Stderr, "sessionlint: %d violation(s)\n", len(all))
		}
	}
	if len(all) > 0 {
		return exitFindings
	}
	return exitClean
}

// runAllows prints the waiver inventory for the pattern-matched packages
// (default ./...). An empty inventory is success; the command only fails
// when the scan itself does.
func runAllows(patterns []string, asJSON bool) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	allows, err := lint.CollectAllows("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitError
	}
	if asJSON {
		if err := printJSON(allows); err != nil {
			fmt.Fprintln(os.Stderr, "sessionlint:", err)
			return exitError
		}
		return exitClean
	}
	for _, a := range allows {
		fmt.Printf("%s:%d: %s: %s\n", a.File, a.Line, strings.Join(a.Analyzers, ","), a.Reason)
	}
	fmt.Fprintf(os.Stderr, "sessionlint: %d waiver(s)\n", len(allows))
	return exitClean
}

// runUpdateSchema recomputes the wire package's JSON-tag schema and rewrites
// the committed golden next to its sources. The sanctioned workflow for an
// intentional wire change is this command plus a wire.Version bump, reviewed
// together.
func runUpdateSchema(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"sessionproblem/wire"}
	}
	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitError
	}
	for _, pkg := range pkgs {
		if !lint.IsWirePkg(pkg.Path) {
			continue
		}
		data, err := lint.WireSchemaJSON(pkg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return exitError
		}
		dir := filepath.Dir(pkg.Fset.Position(pkg.Files[0].Package).Filename)
		goldenPath := filepath.Join(dir, lint.WireSchemaFile)
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "sessionlint:", err)
			return exitError
		}
		fmt.Fprintf(os.Stderr, "sessionlint: wrote %s\n", goldenPath)
		return exitClean
	}
	fmt.Fprintln(os.Stderr, "sessionlint: no wire package matched; run from the module root or pass sessionproblem/wire")
	return exitError
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// vetConfig is the JSON compilation-unit description go vet hands a
// vettool (the unitchecker protocol).
type vetConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoVersion    string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string
	ImportMap    map[string]string
	PackageFile  map[string]string
	Standard     map[string]bool
	PackageVetx  map[string]string
	VetxOnly     bool
	VetxOutput   string

	SucceedOnTypecheckFailure bool
}

// runVetUnit analyzes the single compilation unit described by cfgFile and
// returns the process exit code.
func runVetUnit(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sessionlint:", err)
		return exitError
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "sessionlint: cannot decode vet config %s: %v\n", cfgFile, err)
		return exitError
	}

	// The go command requires the facts output file to exist afterwards,
	// even though sessionlint's analyzers exchange no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "sessionlint:", err)
			return exitError
		}
	}
	if cfg.VetxOnly {
		return exitClean
	}

	diags, err := checkVetUnit(&cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return exitClean
		}
		fmt.Fprintln(os.Stderr, "sessionlint:", err)
		return exitError
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", d.Pos, d.Message)
	}
	if len(diags) > 0 {
		return exitFindings
	}
	return exitClean
}

// checkVetUnit parses and type-checks the unit against the export data the
// go command supplies, then runs the analyzer suite over it.
func checkVetUnit(cfg *vetConfig) ([]lint.Diagnostic, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})

	conf := types.Config{
		Importer:  imp,
		GoVersion: cfg.GoVersion,
		Sizes:     types.SizesFor(cfg.Compiler, goarch()),
	}
	info := lint.NewInfo()
	// go vet hands test compilations over as "pkg [pkg.test]" and "pkg_test"
	// units; type-check under the base path so the analyzers' path
	// predicates see the package whose invariants the tests exercise.
	tpkg, err := conf.Check(lint.BasePkgPath(cfg.ImportPath), fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", cfg.ImportPath, err)
	}
	return lint.Check(fset, files, tpkg, info, lint.Analyzers())
}

func goarch() string {
	if v := os.Getenv("GOARCH"); v != "" {
		return v
	}
	return runtime.GOARCH
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
