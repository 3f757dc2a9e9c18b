package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The hotpath analyzer enforces allocation-freedom over whole call
// trees. A //ecllint:hotpath annotation above a function declaration
// roots the analysis; the function and every in-module function
// reachable from it through the conservative call graph (callgraph.go)
// must not allocate: no escaping composite literals, make/new, append
// growth, interface boxing, assertions to method interfaces, capturing
// closures, string concatenation, or fmt/reflect calls. The
// zero-allocation steady state is part of the determinism contract — a
// GC cycle in the middle of a measured step perturbs nothing in virtual
// time, but the AllocsPerRun tests that gate the figure pipeline (see
// scripts/check.sh) only stay at zero if the hot loop genuinely does not
// touch the heap.
//
// Two escape hatches exist, both spelled //ecllint:allow hotpath <why>:
// on a call site the directive cuts the call-graph edges of that site
// (for dynamic dispatch that provably leaves the steady-state path); on
// an allocation finding it suppresses the finding (for one-time or
// amortized allocations such as the growth phase of a reused buffer).

// hotPathAnalyzer is constructed in analyzers.go.
func hotPathAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "hotpath",
		Doc:  "call trees rooted at //ecllint:hotpath functions must be allocation-free",
	}
	a.RunSuite = runHotPath
	return a
}

func runHotPath(pass *SuitePass) {
	marks := pass.Marks("hotpath")
	if len(marks) == 0 {
		return
	}
	g := buildCallGraph(pass.Units)

	// Resolve each mark to the function declared beneath it: the mark's
	// line must fall on the declaration line or inside the declaration's
	// doc comment.
	rootOf := map[any]string{} // node key -> name of the root that reached it
	var work []any
	for _, m := range marks {
		fn, u, decl := findMarkedDecl(pass.Units, m)
		if fn == nil {
			reportLooseMark(pass, m)
			continue
		}
		if node, ok := g.nodes[funcKey(fn)]; ok {
			if _, seen := rootOf[node.key]; !seen {
				rootOf[node.key] = node.name
				work = append(work, node.key)
			}
		} else {
			// Declared but bodiless (assembly stub) — nothing to scan.
			pass.Reportf(u, decl.Pos(), "//ecllint:hotpath on %s, which has no body to analyze", funcName(fn))
		}
	}

	// Breadth-first reachability. Every visited node is scanned for
	// allocations; an //ecllint:allow hotpath directive on a call line
	// cuts that site's edges.
	for len(work) > 0 {
		key := work[0]
		work = work[1:]
		node := g.nodes[key]
		root := rootOf[key]
		scanHotBody(pass, node, root)
		for _, edge := range node.calls {
			if len(edge.callees) == 0 {
				continue
			}
			if pass.Allowed(node.unit, edge.pos) {
				continue
			}
			for _, callee := range edge.callees {
				if _, ok := g.nodes[callee]; !ok {
					continue // out-of-module or bodiless
				}
				if _, seen := rootOf[callee]; seen {
					continue
				}
				rootOf[callee] = root
				work = append(work, callee)
			}
		}
	}
}

// findMarkedDecl locates the FuncDecl a hotpath mark annotates: the
// mark's line is the declaration's first line or any line of its doc
// comment.
func findMarkedDecl(units []*Unit, m Mark) (*types.Func, *Unit, *ast.FuncDecl) {
	for _, u := range units {
		for _, f := range u.Files {
			if f.Name != m.File {
				continue
			}
			for _, d := range f.AST.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				first := u.Fset.Position(decl.Pos()).Line
				lo := first
				if decl.Doc != nil {
					lo = u.Fset.Position(decl.Doc.Pos()).Line
				}
				if m.Line >= lo && m.Line <= first {
					fn, _ := u.Info.Defs[decl.Name].(*types.Func)
					return fn, u, decl
				}
			}
		}
	}
	return nil, nil, nil
}

// reportLooseMark flags a hotpath annotation that precedes no function
// declaration.
func reportLooseMark(pass *SuitePass, m Mark) {
	for _, u := range pass.Units {
		for _, f := range u.Files {
			if f.Name != m.File {
				continue
			}
			for _, cg := range f.AST.Comments {
				for _, c := range cg.List {
					if u.Fset.Position(c.Pos()).Line == m.Line {
						pass.Reportf(u, c.Pos(), "//ecllint:hotpath does not annotate a function declaration")
						return
					}
				}
			}
		}
	}
}

// scanHotBody flags every allocating construct in one hot function's
// body. Nested function literals are excluded (their bodies are scanned
// only if reachable as call targets), except that creating a capturing
// closure is itself an allocation at the literal's position.
func scanHotBody(pass *SuitePass, node *graphNode, root string) {
	u := node.unit
	inspectShallow(node.body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(u, n.Pos(), "hot path (root %s): &composite literal escapes to the heap in %s", root, node.name)
				}
			}
		case *ast.CompositeLit:
			switch u.Info.Types[n].Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(u, n.Pos(), "hot path (root %s): slice/map literal allocates in %s", root, node.name)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstString(u, n) {
				pass.Reportf(u, n.Pos(), "hot path (root %s): string concatenation allocates in %s", root, node.name)
			}
		case *ast.FuncLit:
			if v := capturedVar(u, n); v != "" {
				pass.Reportf(u, n.Pos(), "hot path (root %s): closure capturing %q allocates in %s", root, v, node.name)
			}
		case *ast.TypeAssertExpr:
			if n.Type != nil && isMethodInterface(u, n.Type) {
				pass.Reportf(u, n.Pos(), "hot path (root %s): assertion to interface %s fills a runtime cache that allocates in %s",
					root, u.Info.Types[n.Type].Type, node.name)
			}
		case *ast.TypeSwitchStmt:
			for _, c := range n.Body.List {
				for _, e := range c.(*ast.CaseClause).List {
					if isMethodInterface(u, e) {
						pass.Reportf(u, e.Pos(), "hot path (root %s): type switch case %s fills a runtime cache that allocates in %s",
							root, u.Info.Types[e].Type, node.name)
					}
				}
			}
		case *ast.CallExpr:
			scanHotCall(pass, node, root, n)
		}
	})
}

// isMethodInterface reports whether the type expression e denotes an
// interface with methods. Asserting to one, directly or in a type switch
// case, looks the dynamic type up in a per-site cache that the runtime
// rebuilds, on the heap, at random misses until every type seen there
// is cached; an empty interface needs no lookup.
func isMethodInterface(u *Unit, e ast.Expr) bool {
	t := u.Info.Types[e].Type
	if t == nil {
		return false
	}
	it, ok := t.Underlying().(*types.Interface)
	return ok && !it.Empty()
}

// scanHotCall flags allocating calls: make/new/append builtins, calls
// into fmt or reflect, and interface boxing of value-typed arguments.
func scanHotCall(pass *SuitePass, node *graphNode, root string, call *ast.CallExpr) {
	u := node.unit
	fun := ast.Unparen(call.Fun)

	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := u.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make", "new":
				pass.Reportf(u, call.Pos(), "hot path (root %s): %s allocates in %s", root, id.Name, node.name)
			case "append":
				pass.Reportf(u, call.Pos(), "hot path (root %s): append may grow its backing array in %s", root, node.name)
			}
			return
		}
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if fn, ok := u.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "fmt":
				pass.Reportf(u, call.Pos(), "hot path (root %s): fmt.%s allocates and reflects in %s", root, fn.Name(), node.name)
			case "reflect":
				pass.Reportf(u, call.Pos(), "hot path (root %s): reflect.%s defeats static analysis in %s", root, fn.Name(), node.name)
			}
		}
	}

	// Interface boxing: a non-pointer concrete argument passed to an
	// interface-typed parameter is wrapped in a heap-allocated pair.
	sig, ok := u.Info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return // conversion or builtin
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passthrough of an existing slice
			}
			param = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(param) {
			continue
		}
		at := u.Info.Types[arg].Type
		if at == nil || types.IsInterface(at) {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Signature, *types.Map, *types.Chan:
			continue // pointer-shaped: no boxing allocation
		}
		if bt, ok := at.Underlying().(*types.Basic); ok && bt.Kind() == types.UntypedNil {
			continue
		}
		pass.Reportf(u, arg.Pos(), "hot path (root %s): boxing %s into interface %s allocates in %s",
			root, at.String(), param.String(), node.name)
	}
}

// isNonConstString reports whether e is a string-typed expression whose
// value is not compile-time constant (constant concatenations fold away).
func isNonConstString(u *Unit, e ast.Expr) bool {
	tv, ok := u.Info.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	bt, ok := tv.Type.Underlying().(*types.Basic)
	return ok && bt.Info()&types.IsString != 0
}

// capturedVar returns the name of one variable the literal captures from
// an enclosing function, or "" if it captures nothing (non-capturing
// closures compile to static functions and do not allocate).
func capturedVar(u *Unit, lit *ast.FuncLit) string {
	found := ""
	ast.Inspect(lit, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := u.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == nil || v.Parent() == u.Pkg.Scope() || v.Parent() == types.Universe {
			return true // package-level or universe: no capture
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			found = v.Name()
			return false
		}
		return true
	})
	return found
}
