// Package lint is a self-contained static-analysis framework plus the seven
// project-specific analyzers that machine-enforce this repository's
// determinism and admissibility conventions:
//
//   - nodeterm: no wall-clock, global randomness or environment reads inside
//     the deterministic simulator packages;
//   - maprange: map iteration order must not escape into output;
//   - ctxpoll: potentially unbounded loops in context-aware functions must
//     poll their context (the executors' 1024-step contract);
//   - facadeonly: examples import the public sessionproblem facade, never
//     sessionproblem/internal/... (a short exemption list excepted);
//   - panicmsg: panics in internal packages carry a "pkg: message"-prefixed
//     constant string;
//   - errcache: RunCacher.Put must be guarded by an error check — errors
//     are never cached;
//   - wiretag: the wire v1 envelope JSON schema must match the committed
//     wire/schema_v1.json golden.
//
// Errcache is a dataflow analyzer: it runs on per-function def/use chains
// (dataflow.go) instead of single-expression syntax, so it can follow a
// value from the call that produced it to the store that caches it.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis but is
// built entirely on the standard library (go/ast, go/types, go/importer and
// the go command), because this module takes no external dependencies.
// cmd/sessionlint drives the analyzers either standalone or as a
// `go vet -vettool` backend.
//
// A diagnostic can be waived with a directive comment:
//
//	//lint:allow nodeterm reason...
//
// placed either at the end of the offending line or alone on the line
// directly above it. Several analyzer names may be listed, separated by
// commas.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one checked rule.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// directives.
	Name string
	// Doc is a one-paragraph description of the rule.
	Doc string
	// Run applies the rule to a single type-checked package, reporting
	// violations through the pass.
	Run func(*Pass) error
}

// Analyzers returns the full suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Nodeterm, Maprange, Ctxpoll, Facadeonly, Panicmsg, Errcache, Wiretag}
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	// Analyzer is the name of the rule that fired.
	Analyzer string
	// Pos locates the violation.
	Pos token.Position
	// Message describes it.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	// Fset maps positions; Files are the package's parsed sources (with
	// comments); Pkg and TypesInfo are the type-checker's output.
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	directives directiveIndex
	report     func(Diagnostic)
}

// Reportf records a violation at pos unless a //lint:allow directive for
// this analyzer covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.directives.allows(position.Filename, position.Line, p.Analyzer.Name) {
		return
	}
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// directiveIndex records, per file and line, which analyzers are waived.
type directiveIndex map[string]map[int]map[string]bool

func (ix directiveIndex) allows(file string, line int, analyzer string) bool {
	return ix[file][line][analyzer]
}

const directivePrefix = "//lint:allow "

// buildDirectives scans every comment for //lint:allow directives. A
// directive covers its own line and the next one, so it works both trailing
// the offending statement and standing alone directly above it.
func buildDirectives(fset *token.FileSet, files []*ast.File) directiveIndex {
	ix := make(directiveIndex)
	add := func(file string, line int, name string) {
		if ix[file] == nil {
			ix[file] = make(map[int]map[string]bool)
		}
		if ix[file][line] == nil {
			ix[file][line] = make(map[string]bool)
		}
		ix[file][line][name] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				names, _, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				for _, name := range strings.Split(names, ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					add(pos.Filename, pos.Line, name)
					add(pos.Filename, pos.Line+1, name)
				}
			}
		}
	}
	return ix
}

// Check runs the analyzers over one type-checked package and returns the
// surviving diagnostics sorted by position.
func Check(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	directives := buildDirectives(fset, files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			TypesInfo:  info,
			directives: directives,
			report:     func(d Diagnostic) { out = append(out, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: analyzer %s on %s: %w", a.Name, pkg.Path(), err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// pkgFunc resolves a qualified identifier pkg.Sel to the imported package
// path and selector name, or returns "" when expr is not one.
func pkgFunc(info *types.Info, expr ast.Expr) (pkgPath, name string) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// BasePkgPath strips a test-variant suffix ("pkg [pkg.test]" and the xtest
// "_test" package suffix) so path predicates treat test code as part of the
// package whose invariants it exercises. cmd/sessionlint applies it to the
// unit import paths go vet hands over for test compilations.
func BasePkgPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	return strings.TrimSuffix(path, "_test")
}
