// Package lint implements ecllint, the project-native static-analysis
// suite that machine-checks the determinism and layering contract of
// DESIGN.md: the whole stack (vtime clock, dodb engine, ECL controllers,
// hardware model) is single-threaded and deterministic, so a seeded run
// reproduces the paper's figures bit-for-bit. Nothing else enforces that
// contract — one stray time.Now, global rand.Intn, goroutine, or
// order-dependent map iteration silently breaks reproducibility.
//
// Eight analyzers enforce the contract:
//
//   - walltime: wall-clock time functions (time.Now, time.Sleep, ...) are
//     forbidden outside internal/vtime, cmd/, and examples/.
//   - globalrand: package-level math/rand functions (rand.Intn,
//     rand.Seed, ...) are forbidden everywhere; randomness must flow from
//     a seeded *rand.Rand carried in a Config.
//   - noconc: go statements, channel syntax, select, close, and
//     sync/sync-atomic imports are forbidden in the deterministic core
//     packages.
//   - mapiter: ranging over a map in a core package is flagged unless the
//     keys are sorted into a slice first or the loop carries an explicit
//     //ecllint:order-independent justification.
//   - layering: the dependency direction of DESIGN.md is enforced as an
//     import-graph check (vtime and units import no internal package, hw
//     must not import ecl/dodb, storage must not import dodb, bench is
//     the only internal consumer of sim).
//   - hotpath: functions annotated //ecllint:hotpath — and every
//     in-module function reachable from them through a conservative
//     static call graph — must be allocation-free (see hotpath.go).
//   - floatorder: float accumulation must not be fed in map-iteration
//     or other unsorted order; the sum's bits would vary run to run.
//   - unit: physical quantities (internal/units) may not be mixed,
//     raw-converted, or smuggled through bare float64 signatures in the
//     core packages.
//
// Findings can be suppressed with a justification directive placed on the
// offending line or the line above it:
//
//	//ecllint:allow <analyzer> <reason>
//	//ecllint:order-independent <reason>   (shorthand for allow mapiter)
//
// A directive without a reason is itself a finding: every suppression
// must say why the contract still holds. A third directive form,
// //ecllint:hotpath, is an annotation rather than a suppression: placed
// on a function declaration it roots the hotpath analyzer's reachability
// scan (see hotpath.go).
//
// The suite is built on the standard library only (go/parser + go/types,
// driven by `go list -json`), because the build environment pins the
// dependency set; with golang.org/x/tools available it could be ported to
// the go/analysis framework and run under `go vet -vettool`. The
// standalone runner is cmd/ecllint.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// An Analyzer is one named check. Per-unit analyzers set Run and are
// invoked once per Unit; whole-program analyzers (the call-graph-driven
// hotpath check) set RunSuite instead and are invoked once over the full
// unit set. The design mirrors golang.org/x/tools/go/analysis so a
// future port is mechanical.
type Analyzer struct {
	// Name identifies the analyzer in output and in //ecllint:allow
	// directives. Lower-case, no spaces.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects pass.Unit and reports findings via pass.Reportf.
	Run func(pass *Pass)
	// RunSuite, when set, replaces Run: the analyzer sees every loaded
	// unit at once, for analyses whose facts cross package boundaries.
	RunSuite func(pass *SuitePass)
}

// suite is the shared state of one Run: the parsed suppression
// directives of every unit with used-tracking, the annotation marks, and
// the accumulated diagnostics.
type suite struct {
	sups     []directive
	used     []bool
	marks    []Mark
	problems []Diagnostic
	diags    []Diagnostic
}

// consume marks as used — and reports present — a suppression for
// analyzer at file:line or the line above. It is how analyzers honor
// directives that alter the analysis itself (the hotpath analyzer cuts
// call-graph edges at justified dynamic-dispatch boundaries) rather
// than merely hiding a finding after the fact.
func (s *suite) consume(analyzer, file string, line int) bool {
	hit := false
	for i, sp := range s.sups {
		if sp.analyzer != analyzer || sp.file != file {
			continue
		}
		if sp.line == line || sp.line == line-1 {
			s.used[i] = true
			hit = true
		}
	}
	return hit
}

// A Pass carries one analyzer's execution over one Unit.
type Pass struct {
	Analyzer *Analyzer
	Unit     *Unit
	suite    *suite
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.suite.diags = append(p.suite.diags, Diagnostic{
		Pos:      p.Unit.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A SuitePass carries a whole-program analyzer's execution over every
// loaded unit. Reporting and directive lookup take the unit the pos
// belongs to alongside the pos.
type SuitePass struct {
	Analyzer *Analyzer
	Units    []*Unit
	suite    *suite
}

// Reportf records a finding at pos within unit u.
func (p *SuitePass) Reportf(u *Unit, pos token.Pos, format string, args ...any) {
	p.suite.diags = append(p.suite.diags, Diagnostic{
		Pos:      u.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Allowed reports whether an //ecllint:allow directive for this analyzer
// covers pos (same line or the line above), consuming the directive so
// it counts as used. Analyzers call it when a directive changes the
// analysis (cutting a call-graph edge) instead of suppressing output.
func (p *SuitePass) Allowed(u *Unit, pos token.Pos) bool {
	position := u.Fset.Position(pos)
	return p.suite.consume(p.Analyzer.Name, position.Filename, position.Line)
}

// Marks returns the annotation directives (//ecllint:<verb> forms that
// declare facts rather than suppress findings) with the given verb.
func (p *SuitePass) Marks(verb string) []Mark {
	var out []Mark
	for _, m := range p.suite.marks {
		if m.Verb == verb {
			out = append(out, m)
		}
	}
	return out
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats a diagnostic the way compilers do, with the analyzer
// name appended so suppressions can be written without guessing.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// A RunConfig tunes Run's reporting.
type RunConfig struct {
	// ReportUnused adds a finding (pseudo-analyzer "unused-directive")
	// for every suppression directive that neither suppressed a
	// diagnostic nor was consumed by an analyzer — stale justifications
	// that no longer justify anything.
	ReportUnused bool
}

// Run executes the analyzers over the units, applies suppression
// directives, and returns the surviving findings sorted by position.
// Malformed directives (unknown analyzer, missing reason) are returned as
// findings of the pseudo-analyzer "directive".
func Run(units []*Unit, analyzers []*Analyzer) []Diagnostic {
	return RunConfig{}.Run(units, analyzers)
}

// Run executes the analyzers with this configuration; see the package
// function Run.
func (cfg RunConfig) Run(units []*Unit, analyzers []*Analyzer) []Diagnostic {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}

	// Parse every unit's directives up front: analyzers running under
	// SuitePass may consult them mid-analysis.
	s := &suite{}
	for _, u := range units {
		sups, marks, problems := parseDirectives(u, known)
		s.sups = append(s.sups, sups...)
		s.marks = append(s.marks, marks...)
		s.problems = append(s.problems, problems...)
	}
	s.used = make([]bool, len(s.sups))

	for _, a := range analyzers {
		if a.RunSuite != nil {
			a.RunSuite(&SuitePass{Analyzer: a, Units: units, suite: s})
			continue
		}
		for _, u := range units {
			a.Run(&Pass{Analyzer: a, Unit: u, suite: s})
		}
	}

	var out []Diagnostic
	for _, d := range s.diags {
		if !s.consume(d.Analyzer, d.Pos.Filename, d.Pos.Line) {
			out = append(out, d)
		}
	}
	out = append(out, s.problems...)
	if cfg.ReportUnused {
		for i, sp := range s.sups {
			if s.used[i] {
				continue
			}
			out = append(out, Diagnostic{
				Pos:      token.Position{Filename: sp.file, Line: sp.line, Column: 1},
				Analyzer: "unused-directive",
				Message:  fmt.Sprintf("directive suppresses no %s finding; remove it or restore the code it justified", sp.analyzer),
			})
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
		return a.Message < b.Message
	})
	return out
}
