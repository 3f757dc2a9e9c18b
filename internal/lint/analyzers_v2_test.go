package lint

import "testing"

// Fixture tests for the interprocedural analyzers added in ecllint v2.
// Same conventions as analyzers_test.go: positive fixtures carry
// `// want "substring"` comments, suppressed constructs carry inline
// directives, and anything unmatched in either direction fails.

func TestHotpathFixture(t *testing.T) {
	// One package exercises every allocation class, reachability through
	// static calls, interface dispatch, and function values, plus both
	// suppression forms (finding suppression, call-edge cutting) and an
	// unannotated function that may allocate freely.
	runFixture(t, []*Analyzer{hotPathAnalyzer()}, "hotpath/bad")
}

func TestHotpathCrossPackageFixture(t *testing.T) {
	// The hot root and its dispatch targets live in two packages, so the
	// implementing types and the interface (and the func-typed field and
	// the value-taken function) are type-checked in different units.
	// Both allocating targets must be reached; a same-named method of
	// another signature and a matching function whose value is never
	// taken must not be.
	runFixture(t, []*Analyzer{hotPathAnalyzer()}, "hotpath/xpkg/api", "hotpath/xpkg/impl")
}

func TestHotpathNoMarksNoFindings(t *testing.T) {
	// Without any //ecllint:hotpath annotation the analyzer is inert —
	// run it over the floatorder fixture, which allocates plenty.
	units, err := Load(repoRoot(t), []string{fixtureBase + "/floatorder/bad"})
	if err != nil {
		t.Fatal(err)
	}
	// The stub keeps the fixture's floatorder directive parseable
	// without running the real analyzer.
	if diags := Run(units, []*Analyzer{hotPathAnalyzer(), floatOrderStub()}); len(diags) != 0 {
		t.Fatalf("hotpath reported findings with no roots annotated: %v", diags)
	}
}

func TestFloatorderFixture(t *testing.T) {
	runFixture(t, []*Analyzer{floatOrderAnalyzer()}, "floatorder/bad")
}

func TestUnitFixture(t *testing.T) {
	runFixture(t, []*Analyzer{NewUnit(coreFixture("unit/core"))}, "unit/core")
}

func TestUnitOutsideFence(t *testing.T) {
	// The same package analyzed outside the fence produces nothing: the
	// unit discipline binds the deterministic core, not presentation
	// code.
	units, err := Load(repoRoot(t), []string{fixtureBase + "/unit/core"})
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run(units, []*Analyzer{NewUnit(nil)}); len(diags) != 0 {
		t.Fatalf("unit outside the fence reported findings: %v", diags)
	}
}

func TestUnusedDirectiveReporting(t *testing.T) {
	// The hotpath fixture's directives all fire; running with
	// ReportUnused must therefore add nothing. The floatorder fixture
	// run WITHOUT the floatorder analyzer leaves its directive unused,
	// which ReportUnused surfaces.
	units, err := Load(repoRoot(t), []string{fixtureBase + "/hotpath/bad"})
	if err != nil {
		t.Fatal(err)
	}
	all := RunConfig{ReportUnused: true}.Run(units, []*Analyzer{hotPathAnalyzer()})
	for _, d := range all {
		if d.Analyzer == "unused-directive" {
			t.Errorf("live directive reported unused: %s", d)
		}
	}

	units, err = Load(repoRoot(t), []string{fixtureBase + "/floatorder/bad"})
	if err != nil {
		t.Fatal(err)
	}
	live := RunConfig{ReportUnused: true}.Run(units, []*Analyzer{floatOrderAnalyzer()})
	for _, d := range live {
		if d.Analyzer == "unused-directive" {
			t.Errorf("directive consumed by its analyzer reported unused: %s", d)
		}
	}

	// Drop the floatorder analyzer: the fixture's directive now
	// suppresses nothing and must surface — but only under the opt-in.
	stale := RunConfig{ReportUnused: true}.Run(units, []*Analyzer{NewGlobalrand(), floatOrderStub()})
	unused := 0
	for _, d := range stale {
		if d.Analyzer == "unused-directive" {
			unused++
		}
	}
	if unused != 1 {
		t.Fatalf("stale directive not surfaced exactly once: %v", stale)
	}
	quiet := Run(units, []*Analyzer{NewGlobalrand(), floatOrderStub()})
	for _, d := range quiet {
		if d.Analyzer == "unused-directive" {
			t.Fatalf("unused directive reported without opt-in: %s", d)
		}
	}
}

// floatOrderStub registers the floatorder name (so the fixture's
// directive parses as known) but reports nothing.
func floatOrderStub() *Analyzer {
	return &Analyzer{Name: "floatorder", Doc: "stub", Run: func(pass *Pass) {}}
}
