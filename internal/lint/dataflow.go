// Intra-procedural dataflow. Some of this repository's invariants are about
// where values *flow*, not what a single expression looks like: a cached
// value must never be one produced alongside an unchecked error. A
// syntactic analyzer cannot see that `sum` three statements after a run
// call is (or is not) derived from that call's result, so this file adds
// the minimal dataflow layer the errcache analyzer needs: per-function
// def/use chains with assignment, range, field-store and return tracking,
// run to a fixed point. It stays on go/ast + go/types only — same
// stdlib-only constraint as the loader — and deliberately stops at
// function boundaries: calls are modeled by explicit analyzer-supplied
// rules, never by inlining, so analysis cost stays linear in the function
// body.
package lint

import (
	"go/ast"
	"go/types"
)

// A funcDef is one analyzable function: a declared function or method. The
// body includes any nested function literals — they share the enclosing
// scope, so one flow analysis covers them, and def/use chains through
// captured variables just work.
type funcDef struct {
	decl *ast.FuncDecl
}

// collectFuncs returns every declared function with a body in the package.
func collectFuncs(files []*ast.File) []funcDef {
	var out []funcDef
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, funcDef{decl: fd})
			}
		}
	}
	return out
}

// taintRules parameterizes one taint pass over a function body.
type taintRules struct {
	// sourceExpr reports whether expr is a taint source by itself,
	// independent of its operands (e.g. an identifier bound to a tracked
	// call's result).
	sourceExpr func(expr ast.Expr) bool
	// taintedCall decides whether a call expression produces tainted data.
	// argTainted reports the taint of any expression (typically consulted
	// for the call's arguments or receiver); the default rules below are
	// applied first, so this only needs analyzer-specific call knowledge.
	taintedCall func(call *ast.CallExpr, argTainted func(ast.Expr) bool) bool
}

// A flow is the fixed-point result of one taint pass: the set of tainted
// local objects plus the expression query taintedExpr.
type flow struct {
	info  *types.Info
	rules taintRules
	objs  map[types.Object]bool
}

// analyzeFlow runs the taint analysis over body to a fixed point.
//
// Propagation is value-flow through the def/use chains: an assignment whose
// right-hand side is tainted taints its left-hand object; ranging over a
// tainted collection taints the iteration variables; storing a tainted
// value into a field or element of a *locally declared* aggregate taints
// the aggregate (the store is plumbing, not an escape — the escape is
// judged where the aggregate itself flows). Only reference-carrying types
// propagate: an int or string read out of a tainted struct copies the
// value, aliasing nothing.
func analyzeFlow(info *types.Info, body ast.Node, rules taintRules) *flow {
	fl := &flow{info: info, rules: rules, objs: make(map[types.Object]bool)}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				changed = fl.applyAssign(n) || changed
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) && fl.taintedExpr(n.Values[i]) {
						changed = fl.taintObj(info.Defs[name]) || changed
					}
				}
			case *ast.RangeStmt:
				if fl.taintedExpr(n.X) {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if id, ok := e.(*ast.Ident); ok {
							obj := info.Defs[id]
							if obj == nil {
								obj = info.Uses[id]
							}
							changed = fl.taintObj(obj) || changed
						}
					}
				}
			}
			return true
		})
	}
	return fl
}

// applyAssign propagates taint across one assignment statement and reports
// whether anything new became tainted.
func (fl *flow) applyAssign(as *ast.AssignStmt) bool {
	changed := false
	// x, y := call() — one rhs fanning out to several lhs: the tuple's
	// taint taints every reference-carrying lhs.
	if len(as.Lhs) > 1 && len(as.Rhs) == 1 {
		if fl.taintedExpr(as.Rhs[0]) {
			for _, lhs := range as.Lhs {
				changed = fl.taintLHS(lhs) || changed
			}
		}
		return changed
	}
	for i, lhs := range as.Lhs {
		if i < len(as.Rhs) && fl.taintedExpr(as.Rhs[i]) {
			changed = fl.taintLHS(lhs) || changed
		}
	}
	return changed
}

// taintLHS taints the object behind one assignment target: the identifier
// itself for `x = ...`, the base object for a field or element store
// `x.F = ...` / `x[i] = ...` (the aggregate now holds tainted data).
func (fl *flow) taintLHS(lhs ast.Expr) bool {
	if id, ok := lhs.(*ast.Ident); ok {
		obj := fl.info.Defs[id]
		if obj == nil {
			obj = fl.info.Uses[id]
		}
		return fl.taintObj(obj)
	}
	return fl.taintObj(rootObject(fl.info, lhs))
}

// taintObj marks obj tainted if it carries references; reports change.
// Error values are exempt even though the error interface technically
// carries references: in `rep, err := run()` the tuple fan-out would
// otherwise taint err and flag the idiomatic `return nil, err` as an
// escape. Analyzers that care about error flow (errcache) track error
// objects separately.
func (fl *flow) taintObj(obj types.Object) bool {
	if obj == nil || fl.objs[obj] || !refCarrying(obj.Type()) || isErrorType(obj.Type()) {
		return false
	}
	fl.objs[obj] = true
	return true
}

// taintedExpr reports whether the value of expr may alias tainted data.
func (fl *flow) taintedExpr(expr ast.Expr) bool {
	if expr == nil {
		return false
	}
	if fl.rules.sourceExpr != nil && fl.rules.sourceExpr(expr) {
		return true
	}
	switch e := expr.(type) {
	case *ast.Ident:
		obj := fl.info.Uses[e]
		if obj == nil {
			obj = fl.info.Defs[e]
		}
		return obj != nil && fl.objs[obj]
	case *ast.ParenExpr:
		return fl.taintedExpr(e.X)
	case *ast.SelectorExpr:
		// A field read off a tainted value aliases it — but only if the
		// field itself carries references; scalars copy.
		if !fl.refResult(expr) {
			return false
		}
		return fl.taintedExpr(e.X)
	case *ast.IndexExpr:
		return fl.refResult(expr) && fl.taintedExpr(e.X)
	case *ast.SliceExpr:
		return fl.taintedExpr(e.X)
	case *ast.StarExpr:
		return fl.taintedExpr(e.X)
	case *ast.UnaryExpr:
		return fl.taintedExpr(e.X)
	case *ast.TypeAssertExpr:
		return fl.refResult(expr) && fl.taintedExpr(e.X)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if fl.taintedExpr(v) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		return fl.taintedCall(e)
	}
	return false
}

// taintedCall applies the built-in call rules, then the analyzer's.
func (fl *flow) taintedCall(call *ast.CallExpr) bool {
	// Conversions pass taint through: []byte(x), T(x).
	if tv, ok := fl.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return fl.taintedExpr(call.Args[0])
	}
	// append(dst, src...) aliases both operands.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := fl.info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" {
				for _, a := range call.Args {
					if fl.taintedExpr(a) {
						return true
					}
				}
			}
			return false
		}
	}
	// A method called on a tainted receiver returns data reaching into it
	// (rep.Steps(), sc.Arena.Alloc(...)) — when the result carries refs.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fl.info.Selections[sel] != nil && fl.refResult(call) && fl.taintedExpr(sel.X) {
			return true
		}
	}
	if fl.rules.taintedCall != nil {
		return fl.rules.taintedCall(call, fl.taintedExpr)
	}
	return false
}

// refResult reports whether expr's type carries references.
func (fl *flow) refResult(expr ast.Expr) bool {
	tv, ok := fl.info.Types[expr]
	if !ok || tv.Type == nil {
		return true // unresolvable: stay conservative
	}
	return refCarrying(tv.Type)
}

// refCarrying reports whether a value of type t can alias other memory:
// pointers, slices, maps, channels, funcs, interfaces, or aggregates
// containing any of them. Basic scalars (and strings, which are immutable)
// copy by value and cannot carry tainted memory along.
func refCarrying(t types.Type) bool {
	return refCarryingSeen(t, make(map[types.Type]bool))
}

func refCarryingSeen(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false // recursive named type: already being judged
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Array:
		return refCarryingSeen(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refCarryingSeen(u.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			if refCarryingSeen(u.At(i).Type(), seen) {
				return true
			}
		}
		return false
	}
	return true
}

// isRunCacherPut reports whether call is a Put on a run cache: a method
// named Put with signature (string, any) whose receiver's method set also
// offers Get(string) (any, bool) — the engine.RunCacher contract, matched
// structurally so the analyzers need no import of internal/engine and
// multi-tier implementations (internal/diskcache.Tiered) match too.
func isRunCacherPut(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Put" || len(call.Args) != 2 {
		return false
	}
	s := info.Selections[sel]
	if s == nil {
		return false
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || !putSignature(fn.Type().(*types.Signature)) {
		return false
	}
	// The receiver must look like a cache, not any Put(string, any): it
	// must also have Get(string) (any, bool).
	recv := s.Recv()
	obj, _, _ := types.LookupFieldOrMethod(recv, true, fn.Pkg(), "Get")
	get, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	gsig := get.Type().(*types.Signature)
	return gsig.Params().Len() == 1 && isString(gsig.Params().At(0).Type()) &&
		gsig.Results().Len() == 2 && isEmptyInterface(gsig.Results().At(0).Type()) &&
		isBool(gsig.Results().At(1).Type())
}

func putSignature(sig *types.Signature) bool {
	return sig.Params().Len() == 2 &&
		isString(sig.Params().At(0).Type()) &&
		isEmptyInterface(sig.Params().At(1).Type()) &&
		sig.Results().Len() == 0
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

func isBool(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

func isEmptyInterface(t types.Type) bool {
	i, ok := t.Underlying().(*types.Interface)
	return ok && i.Empty()
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

// terminates reports whether a block's final statement leaves the enclosing
// flow: return, branch (break/continue/goto), panic, or a *.Fatal*/Exit
// call. Used to recognize `if err != nil { return ... }` guards.
func terminates(block *ast.BlockStmt) bool {
	if block == nil || len(block.List) == 0 {
		return false
	}
	switch s := block.List[len(block.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			return fun.Name == "panic"
		case *ast.SelectorExpr:
			name := fun.Sel.Name
			return name == "Fatal" || name == "Fatalf" || name == "Exit"
		}
	}
	return false
}

// nilCheck classifies an if condition as a nil comparison against the
// object of an error-typed identifier: returns the object and true for
// `err != nil`, false for `err == nil`, or nil when it is neither.
func nilCheck(info *types.Info, cond ast.Expr) (obj types.Object, isNotNil bool) {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return nil, false
	}
	var idExpr ast.Expr
	switch {
	case isNilIdent(info, be.Y):
		idExpr = be.X
	case isNilIdent(info, be.X):
		idExpr = be.Y
	default:
		return nil, false
	}
	id, ok := idExpr.(*ast.Ident)
	if !ok {
		return nil, false
	}
	o := info.Uses[id]
	if o == nil || !isErrorType(o.Type()) {
		return nil, false
	}
	switch be.Op.String() {
	case "!=":
		return o, true
	case "==":
		return o, false
	}
	return nil, false
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}
