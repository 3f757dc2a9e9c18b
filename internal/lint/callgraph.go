package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file builds the conservative static call graph the hotpath
// analyzer walks. "Conservative" means over-approximation on every
// dynamic construct: a call through an interface method edges to every
// in-module method that could back it (receiver type implements the
// interface, same method name), and a call through a function value
// edges to every in-module function or literal whose value is taken
// somewhere and whose signature matches. Reachability can therefore
// report functions that never actually run on the hot path — the price
// of never missing one that does. A justified
// //ecllint:allow hotpath <reason> on the call line cuts the edges of
// that site, for dispatch boundaries that are genuinely off the
// steady-state path.

// funcKey is a declared function's graph key: the *types.Func recorded
// in Info.Defs, which every unit of one Load shares. Origin maps a method
// of an instantiated generic type back to its declaration.
func funcKey(fn *types.Func) any { return fn.Origin() }

// A graphNode is one function in the call graph: a declared function or
// method, or a function literal. Literals are nodes of their own — a
// closure defined inside a hot function is an allocation where it is
// created, but its body runs hot only if some reachable call site can
// invoke it.
type graphNode struct {
	// key is the node's identity: funcKey(fn) for declarations,
	// *ast.FuncLit for literals.
	key  any
	unit *Unit
	// name renders the node for diagnostics ("(*Hub).DequeueOne",
	// "func literal in (*Sim).run").
	name string
	pos  token.Pos
	body *ast.BlockStmt
	// calls are the node's outgoing edges, from its body excluding
	// nested literal bodies (those belong to the literal's node).
	calls []callEdge
}

// A callEdge is one call site and its resolved conservative target set.
type callEdge struct {
	pos token.Pos
	// callees are the node keys this site may reach in-module.
	callees []any
	// dynamic describes the over-approximated dispatch when the site is
	// not a direct call ("interface method Exec", "func value"). Empty
	// for static calls.
	dynamic string
}

// A callGraph indexes every declared function and literal of the loaded
// units.
type callGraph struct {
	nodes map[any]*graphNode
}

// cgIndex carries the resolution pools every call site matches against.
type cgIndex struct {
	// valueTaken holds declared functions whose value escapes somewhere
	// (assigned, passed, returned, or bound as a method value): the
	// candidates of calls through function values.
	valueTaken map[*types.Func]bool
	// lits holds every function literal with its signature.
	lits []litCandidate
	// namedTypes holds every in-module defined type, for interface
	// dispatch resolution.
	namedTypes []*types.Named
}

type litCandidate struct {
	lit *ast.FuncLit
	sig *types.Signature
}

// buildCallGraph constructs the graph over all non-test files of the
// units. Test files are excluded: hot paths are production code, and the
// harnesses that probe them may allocate freely.
func buildCallGraph(units []*Unit) *callGraph {
	g := &callGraph{nodes: map[any]*graphNode{}}
	idx := &cgIndex{valueTaken: map[*types.Func]bool{}}

	// Pass 1: index declarations, literals, the value-taken pool, and
	// named types.
	for _, u := range units {
		for _, f := range u.Files {
			if f.Test {
				continue
			}
			for _, d := range f.AST.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, ok := u.Info.Defs[d.Name].(*types.Func)
					if !ok || d.Body == nil {
						continue
					}
					key := funcKey(fn)
					g.nodes[key] = &graphNode{
						key: key, unit: u, name: funcName(fn),
						pos: d.Pos(), body: d.Body,
					}
					owner := funcName(fn)
					ast.Inspect(d.Body, func(n ast.Node) bool {
						lit, ok := n.(*ast.FuncLit)
						if !ok {
							return true
						}
						g.nodes[lit] = &graphNode{
							key: lit, unit: u,
							name: "func literal in " + owner,
							pos:  lit.Pos(), body: lit.Body,
						}
						if sig, ok := u.Info.Types[lit].Type.(*types.Signature); ok {
							idx.lits = append(idx.lits, litCandidate{lit: lit, sig: sig})
						}
						return true
					})
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							if tn, ok := u.Info.Defs[ts.Name].(*types.TypeName); ok {
								if named, ok := tn.Type().(*types.Named); ok {
									idx.namedTypes = append(idx.namedTypes, named)
								}
							}
						}
					}
				}
			}
			collectValueTaken(u, f.AST, idx)
		}
	}

	// Pass 2: resolve each node's call sites into edges. A node's body
	// excludes nested literal bodies — their calls belong to the
	// literal's own node.
	for _, node := range g.nodes {
		u := node.unit
		inspectShallow(node.body, func(n ast.Node) {
			if call, ok := n.(*ast.CallExpr); ok {
				node.calls = append(node.calls, resolveCall(u, call, idx)...)
			}
		})
	}
	return g
}

// inspectShallow walks body without descending into nested function
// literals (the literal expression itself is still visited).
func inspectShallow(body *ast.BlockStmt, visit func(ast.Node)) {
	if body == nil {
		return
	}
	depth := 0
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			depth++
			if depth > 1 {
				return false
			}
			visit(n)
			return false
		}
		visit(n)
		return true
	})
}

// collectValueTaken records every reference to a declared function
// outside the operator position of a call — assignments, arguments,
// composite literals, returns, method values. Those are the functions a
// call through a function value may reach.
func collectValueTaken(u *Unit, file *ast.File, idx *cgIndex) {
	calledIdents := map[*ast.Ident]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			calledIdents[fun] = true
		case *ast.SelectorExpr:
			calledIdents[fun.Sel] = true
		}
		return true
	})
	ast.Inspect(file, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || calledIdents[id] {
			return true
		}
		if fn, ok := u.Info.Uses[id].(*types.Func); ok {
			idx.valueTaken[fn] = true
		}
		return true
	})
}

// resolveCall turns one call expression into zero or more edges. Calls
// that cannot reach module code (builtins, conversions, out-of-module
// functions) produce none — the allocation scanner judges those
// separately.
func resolveCall(u *Unit, call *ast.CallExpr, idx *cgIndex) []callEdge {
	fun := ast.Unparen(call.Fun)

	// Type conversions are not calls.
	if tv, ok := u.Info.Types[fun]; ok && tv.IsType() {
		return nil
	}

	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := u.Info.Uses[f].(type) {
		case *types.Func: // direct call of a declared function
			return []callEdge{{pos: call.Pos(), callees: []any{funcKey(obj)}}}
		case *types.Builtin, *types.Nil:
			return nil
		case *types.Var: // call through a function-valued variable
			return dynamicEdge(call, obj.Type(), idx, "func value "+f.Name)
		}
	case *ast.SelectorExpr:
		if sel, ok := u.Info.Selections[f]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				m := sel.Obj().(*types.Func)
				if types.IsInterface(sel.Recv()) {
					return interfaceEdge(call, sel.Recv(), m, idx)
				}
				return []callEdge{{pos: call.Pos(), callees: []any{funcKey(m)}}}
			case types.FieldVal: // call through a func-typed field
				return dynamicEdge(call, sel.Obj().Type(), idx, "func-typed field "+sel.Obj().Name())
			}
		}
		// Package-qualified call: fmt.Sprintf, hw.NewMachine, ...
		if fn, ok := u.Info.Uses[f.Sel].(*types.Func); ok {
			return []callEdge{{pos: call.Pos(), callees: []any{funcKey(fn)}}}
		}
	case *ast.FuncLit: // immediately invoked literal
		return []callEdge{{pos: call.Pos(), callees: []any{f}}}
	default:
		// Call of an arbitrary expression (index into a []func(), a
		// call returning a func, ...): resolve by static type.
		if tv, ok := u.Info.Types[fun]; ok {
			if _, isSig := tv.Type.Underlying().(*types.Signature); isSig {
				return dynamicEdge(call, tv.Type, idx, "func value")
			}
		}
	}
	return nil
}

// dynamicEdge over-approximates a call through a value of function type:
// every value-taken declared function and every function literal with an
// identical signature is a candidate target. types.Identical ignores
// receivers, so a bound method value matches like a plain function.
func dynamicEdge(call *ast.CallExpr, typ types.Type, idx *cgIndex, desc string) []callEdge {
	sig, ok := typ.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	e := callEdge{pos: call.Pos(), dynamic: desc}
	for fn := range idx.valueTaken {
		if types.Identical(fn.Type(), sig) {
			e.callees = append(e.callees, funcKey(fn))
		}
	}
	for _, lc := range idx.lits {
		if types.Identical(lc.sig, sig) {
			e.callees = append(e.callees, lc.lit)
		}
	}
	return []callEdge{e}
}

// interfaceEdge over-approximates a call through an interface method:
// every in-module named type implementing the interface contributes its
// method of that name.
func interfaceEdge(call *ast.CallExpr, recv types.Type, m *types.Func, idx *cgIndex) []callEdge {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	e := callEdge{pos: call.Pos(), dynamic: "interface method " + m.Name()}
	for _, named := range idx.namedTypes {
		if types.IsInterface(named) || named.TypeParams() != nil {
			continue
		}
		// The pointer's method set holds the value-receiver methods too.
		ptr := types.NewPointer(named)
		if !types.Implements(ptr, iface) {
			continue
		}
		if sel := types.NewMethodSet(ptr).Lookup(m.Pkg(), m.Name()); sel != nil {
			e.callees = append(e.callees, funcKey(sel.Obj().(*types.Func)))
		}
	}
	return []callEdge{e}
}

// funcName renders a *types.Func for diagnostics: "(*Hub).DequeueOne",
// "NewMachine".
func funcName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		if named, ok := ptr.Elem().(*types.Named); ok {
			return "(*" + named.Obj().Name() + ")." + fn.Name()
		}
	}
	if named, ok := recv.(*types.Named); ok {
		return "(" + named.Obj().Name() + ")." + fn.Name()
	}
	return fn.Name()
}
