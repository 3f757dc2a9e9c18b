package lint

import (
	"strings"
	"testing"
)

// loadGraph builds the call graph over the conservatism fixture.
func loadGraph(t *testing.T) *callGraph {
	t.Helper()
	units, err := Load(repoRoot(t), []string{fixtureBase + "/hotpath/graph"})
	if err != nil {
		t.Fatal(err)
	}
	return buildCallGraph(units)
}

// nodeNamed finds the unique graph node with the given display name.
func nodeNamed(t *testing.T, g *callGraph, name string) *graphNode {
	t.Helper()
	var found *graphNode
	for _, n := range g.nodes {
		if n.name == name {
			if found != nil {
				t.Fatalf("two nodes named %s", name)
			}
			found = n
		}
	}
	if found == nil {
		t.Fatalf("no node named %s", name)
	}
	return found
}

// calleeNames flattens every edge of a node into the display names of
// its resolved in-module callees. Edges to out-of-module functions
// (fmt.Fprintln and friends) have no node and are skipped, exactly as
// the hotpath BFS skips them.
func calleeNames(t *testing.T, g *callGraph, n *graphNode) []string {
	t.Helper()
	var out []string
	for _, e := range n.calls {
		for _, key := range e.callees {
			if callee, ok := g.nodes[key]; ok {
				out = append(out, callee.name)
			}
		}
	}
	return out
}

func has(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

// TestCallGraphInterfaceDispatch: a call through an interface method
// must edge to every in-module implementation — value receiver and
// pointer receiver alike — and to nothing else.
func TestCallGraphInterfaceDispatch(t *testing.T) {
	g := loadGraph(t)
	names := calleeNames(t, g, nodeNamed(t, g, "CallIface"))
	if !has(names, "(ValueImpl).Do") {
		t.Errorf("interface call misses the value-receiver implementation; callees: %v", names)
	}
	if !has(names, "(*PointerImpl).Do") {
		t.Errorf("interface call misses the pointer-receiver implementation; callees: %v", names)
	}
	for _, n := range names {
		if strings.Contains(n, "NotAnImpl") {
			t.Errorf("interface call reaches a non-implementation: %v", names)
		}
	}
}

// TestCallGraphFuncValueDispatch: a call through a function value must
// edge to every value-taken function of matching signature — including
// methods bound as method values — but NOT to functions whose value is
// never taken.
func TestCallGraphFuncValueDispatch(t *testing.T) {
	g := loadGraph(t)
	names := calleeNames(t, g, nodeNamed(t, g, "CallValue"))
	if !has(names, "target") {
		t.Errorf("func-value call misses the value-taken function; callees: %v", names)
	}
	if !has(names, "(ValueImpl).Do") {
		t.Errorf("func-value call misses the bound method value; callees: %v", names)
	}
	if has(names, "never") {
		t.Errorf("func-value call reaches a function whose value is never taken; callees: %v", names)
	}
}

// TestCallGraphEdgesAreDynamic: the over-approximated edges must be
// labeled so diagnostics can explain themselves.
func TestCallGraphEdgesAreDynamic(t *testing.T) {
	g := loadGraph(t)
	iface := nodeNamed(t, g, "CallIface")
	if len(iface.calls) != 1 || !strings.Contains(iface.calls[0].dynamic, "interface method Do") {
		t.Errorf("interface edge not labeled: %+v", iface.calls)
	}
	val := nodeNamed(t, g, "CallValue")
	if len(val.calls) != 1 || !strings.Contains(val.calls[0].dynamic, "func value") {
		t.Errorf("func-value edge not labeled: %+v", val.calls)
	}
}

// TestCallGraphCrossPackage: a static call from one package into another
// must land on the callee's node, which holds only because the calling
// unit resolves the callee to the very *types.Func the declaring unit
// recorded (TestLoaderSharesOneUniverse). cmd/ecllint's main calling
// lint.Load spans exactly such a boundary.
func TestCallGraphCrossPackage(t *testing.T) {
	var units []*Unit
	for _, u := range loadRepo(t) {
		switch u.Path {
		case modulePath + "/cmd/ecllint", modulePath + "/internal/lint":
			units = append(units, u)
		}
	}
	if len(units) != 2 {
		t.Fatalf("expected 2 units from the shared load, got %d", len(units))
	}
	g := buildCallGraph(units)
	main := nodeNamed(t, g, "main")
	names := calleeNames(t, g, main)
	if !has(names, "Load") {
		t.Errorf("cross-package static call main -> lint.Load did not resolve to a node; callees: %v", names)
	}
}
