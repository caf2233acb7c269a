package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Scratchalias machine-checks the PR 4 scratch ownership contract, which
// until now only byte-identity tests enforced at runtime: a Report produced
// by a scratch-backed run (core.RunSMScratch / RunMPScratch, or a faulted
// run whose FaultRun carries a Scratch) aliases reusable per-worker memory
// — Trace.Steps, arena-backed Accesses slices, delay logs — and is valid
// only until the next run on the same worker. Any flow that parks such a
// value somewhere that outlives the Execute call is a latent
// silent-wrong-answer: a struct-field or global store, a channel send, a
// RunCacher.Put, or a return from a declared function outside the
// documented boundary (internal/sm, internal/mp and internal/arena are the
// scratch implementation; internal/core's runners are the boundary API).
//
// The sanctioned ways out are exactly the ones the analyzer leaves alone:
// core.Summarize (deep copy into an immutable RunSummary), reading scalars,
// or running scratch-free. Returns from function literals are not policed —
// closures handing a fresh report to an aggregating caller inside the same
// package are the engine's task idiom — so the contract is enforced at
// declared-function boundaries, where ownership actually transfers.
var Scratchalias = &Analyzer{
	Name: "scratchalias",
	Doc:  "scratch-backed run data must not escape its Execute call (field/global stores, sends, caches, returns past the boundary)",
	Run:  runScratchalias,
}

// scratchImplPkgs implement the scratch machinery; inside them, aliasing
// scratch memory is the whole point.
var scratchImplPkgs = map[string]bool{
	"sessionproblem/internal/sm":    true,
	"sessionproblem/internal/mp":    true,
	"sessionproblem/internal/arena": true,
	// tree.Pool recycles published knowledge snapshots through a freelist;
	// handing out aliased buffers is its job.
	"sessionproblem/internal/tree": true,
}

// scratchReturnExempt may return scratch-aliasing values: these packages'
// exported runners are the documented ownership boundary callers opt into.
var scratchReturnExempt = map[string]bool{
	"sessionproblem/internal/core": true,
}

// scratchTypes are the named types whose data hands out aliases into
// reusable buffers.
var scratchTypes = map[string]bool{
	"sessionproblem/internal/sm.Scratch":      true,
	"sessionproblem/internal/mp.Scratch":      true,
	"sessionproblem/internal/core.RunScratch": true,
	"sessionproblem/internal/arena.Arena":     true,
	"sessionproblem/internal/arena.Freelist":  true,
}

// scratchRunFuncs are the package-level functions whose results always
// alias the scratch they were handed.
var scratchRunFuncs = map[string]bool{
	"sessionproblem/internal/core.RunSMScratch": true,
	"sessionproblem/internal/core.RunMPScratch": true,
}

// scratchFaultFuncs alias scratch only when their FaultRun argument
// carries one.
var scratchFaultFuncs = map[string]bool{
	"sessionproblem/internal/core.RunSMFaulted": true,
	"sessionproblem/internal/core.RunMPFaulted": true,
}

const faultRunType = "sessionproblem/internal/core.FaultRun"

func runScratchalias(pass *Pass) error {
	if scratchImplPkgs[BasePkgPath(pass.Pkg.Path())] {
		return nil
	}
	rules := taintRules{
		sourceExpr: func(e ast.Expr) bool { return scratchSource(pass.TypesInfo, e) },
		taintedCall: func(c *ast.CallExpr, argTainted func(ast.Expr) bool) bool {
			return scratchCall(pass.TypesInfo, c, argTainted)
		},
	}
	for _, fn := range collectFuncs(pass.Files) {
		fl := analyzeFlow(pass.TypesInfo, fn.decl.Body, rules)
		checkScratchSinks(pass, fn.decl, fl)
	}
	return nil
}

// scratchSource: a composite literal building a FaultRun with an explicit
// non-nil Scratch is the one way taint is born without a call — the
// literal itself smuggles the scratch into the faulted runner.
func scratchSource(info *types.Info, e ast.Expr) bool {
	cl, ok := e.(*ast.CompositeLit)
	if !ok || namedType(info, e) != faultRunType {
		return false
	}
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Scratch" {
			if id, ok := kv.Value.(*ast.Ident); ok && id.Name == "nil" {
				return false
			}
			return true
		}
	}
	return false
}

// scratchCall taints the results of the scratch-backed runners and of any
// method reaching into a scratch-typed receiver.
func scratchCall(info *types.Info, call *ast.CallExpr, argTainted func(ast.Expr) bool) bool {
	if pkgPath, name := pkgFunc(info, call.Fun); pkgPath != "" {
		qual := pkgPath + "." + name
		if scratchRunFuncs[qual] {
			return true
		}
		if scratchFaultFuncs[qual] {
			for _, a := range call.Args {
				if namedType(info, a) == faultRunType && argTainted(a) {
					return true
				}
			}
			return false
		}
	}
	// sc.Alloc(...), rs.SM.<anything>(...): methods on scratch-typed
	// values hand out views into reusable buffers.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && info.Selections[sel] != nil {
		if scratchTypes[namedType(info, sel.X)] {
			tv, ok := info.Types[call]
			return !ok || tv.Type == nil || refCarrying(tv.Type)
		}
	}
	return false
}

// checkScratchSinks walks one declared function after taint fixed point and
// reports every escape.
func checkScratchSinks(pass *Pass, decl *ast.FuncDecl, fl *flow) {
	escaping := escapingBases(pass, decl)
	returnExempt := scratchReturnExempt[BasePkgPath(pass.Pkg.Path())]

	// litDepth tracks whether a return statement belongs to the declared
	// function or to a nested literal (literal returns are not policed).
	var walk func(n ast.Node, litDepth int)
	walk = func(n ast.Node, litDepth int) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				walk(m.Body, litDepth+1)
				return false
			case *ast.ReturnStmt:
				if litDepth > 0 || returnExempt {
					return true
				}
				for _, r := range m.Results {
					if fl.taintedExpr(r) {
						pass.Reportf(r.Pos(), "scratch-backed value returned from %s past the ownership boundary; summarize it (core.Summarize) or run scratch-free", decl.Name.Name)
					}
				}
			case *ast.SendStmt:
				if fl.taintedExpr(m.Value) {
					pass.Reportf(m.Pos(), "scratch-backed value sent on a channel outlives its Execute call; copy it first")
				}
			case *ast.AssignStmt:
				checkScratchStores(pass, fl, escaping, m)
			case *ast.CallExpr:
				if isRunCacherPut(pass.TypesInfo, m) && fl.taintedExpr(m.Args[1]) {
					pass.Reportf(m.Pos(), "cached value aliases scratch memory; cache hits must be immutable (store a core.Summarize copy)")
				}
			}
			return true
		})
	}
	walk(decl.Body, 0)
}

// checkScratchStores flags assignments parking tainted data in memory the
// function does not own: package-level variables, or fields/elements of
// parameters and receivers. Stores into locally built aggregates are
// propagation, handled by the flow itself.
func checkScratchStores(pass *Pass, fl *flow, escaping map[types.Object]bool, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		var rhs ast.Expr
		switch {
		case len(as.Lhs) > 1 && len(as.Rhs) == 1:
			rhs = as.Rhs[0]
		case i < len(as.Rhs):
			rhs = as.Rhs[i]
		}
		if rhs == nil || !fl.taintedExpr(rhs) {
			continue
		}
		switch target := lhs.(type) {
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[target]; obj != nil && isPkgLevel(pass, obj) {
				pass.Reportf(as.Pos(), "scratch-backed value stored in package-level %s outlives every run; copy it first", obj.Name())
			}
		default:
			base := rootObject(pass.TypesInfo, lhs)
			if base == nil || scratchTypes[qualifiedName(base.Type())] {
				continue // writing into the scratch itself is bookkeeping
			}
			if isPkgLevel(pass, base) || escaping[base] {
				pass.Reportf(as.Pos(), "scratch-backed value stored into %s escapes its Execute call; copy it first (core.Summarize for reports)", base.Name())
			}
		}
	}
}

// escapingBases collects the objects whose fields are caller-visible
// memory: the receiver and every parameter of the declared function and of
// each nested literal.
func escapingBases(pass *Pass, decl *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	addFields(decl.Recv)
	addFields(decl.Type.Params)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			addFields(lit.Type.Params)
		}
		return true
	})
	return out
}

// isPkgLevel reports whether obj is a package-scope variable.
func isPkgLevel(pass *Pass, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Parent() == pass.Pkg.Scope()
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
