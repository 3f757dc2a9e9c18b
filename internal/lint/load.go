package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A File is one parsed source file of a Unit.
type File struct {
	AST  *ast.File
	Name string // absolute path
	Test bool   // listed in TestGoFiles or XTestGoFiles
}

// A Unit is one type-checked package: the library files plus in-package
// test files type-checked together (exactly the package the test binary
// compiles), or an external _test package on its own. All units of one
// Load share a FileSet and a type universe.
type Unit struct {
	// Path is the import path ("ecldb/internal/dodb"; an external test
	// package keeps its declared suffix: "ecldb_test").
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*File
	Pkg   *types.Package
	Info  *types.Info
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath   string
	Dir          string
	Export       string
	ForTest      string
	DepOnly      bool
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// universe is the one importer every package is checked with: an
// in-module path resolves to the *types.Package already checked from
// source, anything else to standard-library export data read by a single
// gc importer. Every unit therefore sees one object per declared type,
// function and package, so types.Identical and types.Implements hold
// across package boundaries.
type universe struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (u *universe) Import(path string) (*types.Package, error) {
	if pkg, ok := u.checked[path]; ok {
		return pkg, nil
	}
	return u.std.Import(path)
}

// Load enumerates the packages matching patterns (relative to dir, the
// module root) with `go list -deps -test -export` and type-checks every
// non-standard package from source, in dependency order, into one type
// universe. Test files are included the way the compiler sees them:
// in-package test files are added to their package once every library is
// checked, and external _test packages are then checked against those
// augmented packages. A matched package yields a unit of its library plus
// in-package test files, and its external test package a unit of its own.
func Load(dir string, patterns []string) ([]*Unit, error) {
	args := append([]string{
		"list", "-deps", "-test", "-export",
		"-json=ImportPath,Dir,Export,ForTest,DepOnly,Standard,GoFiles,TestGoFiles,XTestGoFiles",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	// exports maps a standard-library import path to its export data.
	// Test variants ("p [p.test]") and test mains ("p.test") are skipped:
	// test files are checked into the source packages below.
	exports := map[string]string{}
	var pkgs []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding: %v", err)
		}
		switch {
		case p.Standard:
			exports[p.ImportPath] = p.Export
		case p.ForTest == "" && !strings.HasSuffix(p.ImportPath, ".test"):
			pkgs = append(pkgs, p)
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	}
	imp := &universe{checked: map[string]*types.Package{}, std: importer.ForCompiler(fset, "gc", lookup)}
	conf := types.Config{Importer: imp}

	// Libraries first, in the dependency order go list prints them.
	// Dependency-only packages are checked from source too, so a fixture
	// and the packages it imports share the universe.
	type pending struct {
		p       listPackage
		unit    *Unit
		checker *types.Checker
	}
	var targets []pending
	for _, p := range pkgs {
		u := &Unit{Path: p.ImportPath, Dir: p.Dir, Fset: fset, Info: newInfo()}
		files, err := u.parse(p.GoFiles, false)
		if err != nil {
			return nil, err
		}
		u.Pkg = types.NewPackage(p.ImportPath, "")
		checker := types.NewChecker(&conf, fset, u.Pkg, u.Info)
		if err := checker.Files(files); err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		imp.checked[p.ImportPath] = u.Pkg
		if !p.DepOnly {
			targets = append(targets, pending{p, u, checker})
		}
	}

	// In-package test files join their package's own checker, so every
	// importer keeps the identical *types.Package.
	for _, t := range targets {
		files, err := t.unit.parse(t.p.TestGoFiles, true)
		if err != nil {
			return nil, err
		}
		if err := t.checker.Files(files); err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", t.p.ImportPath, err)
		}
	}

	// External test packages see the augmented packages, as the compiler
	// builds them.
	var units []*Unit
	for _, t := range targets {
		if len(t.unit.Files) > 0 {
			units = append(units, t.unit)
		}
		if len(t.p.XTestGoFiles) == 0 {
			continue
		}
		path := t.p.ImportPath + "_test"
		xu := &Unit{Path: path, Dir: t.p.Dir, Fset: fset, Info: newInfo()}
		files, err := xu.parse(t.p.XTestGoFiles, true)
		if err != nil {
			return nil, err
		}
		if xu.Pkg, err = conf.Check(path, fset, files, xu.Info); err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", path, err)
		}
		units = append(units, xu)
	}
	return units, nil
}

// newInfo returns the type-checker facts every analyzer reads.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// parse parses the named files of u's directory, appends them to u.Files
// and returns their syntax trees.
func (u *Unit) parse(names []string, test bool) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		abs := filepath.Join(u.Dir, name)
		f, err := parser.ParseFile(u.Fset, abs, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", abs, err)
		}
		u.Files = append(u.Files, &File{AST: f, Name: abs, Test: test})
		files = append(files, f)
	}
	return files, nil
}

// pkgName returns the *types.PkgName an identifier resolves to, or nil.
func (u *Unit) pkgName(id *ast.Ident) *types.PkgName {
	if obj, ok := u.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn
		}
	}
	return nil
}
