package lint

import (
	"go/types"
	"testing"
)

// TestLoaderSharesOneUniverse pins the loader's type identity: every unit
// of one Load resolves an import path to the same *types.Package, so
// types.Implements holds between an interface seen through one unit's
// import and a type declared in another unit, and an external test
// package sees the very objects its package's in-package test files
// declare. The call graph's interface and func-value dispatch rely on it.
func TestLoaderSharesOneUniverse(t *testing.T) {
	units := loadRepo(t)
	byPath := map[string]*Unit{}
	for _, u := range units {
		byPath[u.Path] = u
	}

	for _, path := range []string{modulePath + "/internal/units", "time"} {
		var want *types.Package
		if u := byPath[path]; u != nil {
			want = u.Pkg
		}
		importers := 0
		for _, u := range units {
			for _, imp := range u.Pkg.Imports() {
				if imp.Path() != path {
					continue
				}
				importers++
				if want == nil {
					want = imp
				} else if imp != want {
					t.Errorf("%s imports its own *types.Package for %s", u.Path, path)
				}
			}
		}
		if importers < 2 {
			t.Errorf("%d units import %s; the check needs at least 2", importers, path)
		}
	}

	dodb, wl := byPath[modulePath+"/internal/dodb"], byPath[modulePath+"/internal/workload"]
	if dodb == nil || wl == nil {
		t.Fatal("dodb or workload unit missing from the repo load")
	}
	var iface *types.Interface
	for _, imp := range dodb.Pkg.Imports() {
		if imp.Path() == wl.Path {
			iface, _ = imp.Scope().Lookup("Workload").Type().Underlying().(*types.Interface)
		}
	}
	kv := types.NewPointer(wl.Pkg.Scope().Lookup("KV").Type())
	if iface == nil || !types.Implements(kv, iface) {
		t.Errorf("*workload.KV does not implement workload.Workload as the dodb unit imports it")
	}

	fixture, err := Load(repoRoot(t), []string{fixtureBase + "/loader/pkg"})
	if err != nil {
		t.Fatal(err)
	}
	if len(fixture) != 2 {
		t.Fatalf("loader fixture: %d units, want the package and its external test", len(fixture))
	}
	pkg, xtest := fixture[0], fixture[1]
	double := pkg.Pkg.Scope().Lookup("Double")
	if double == nil {
		t.Fatal("in-package test declaration Double missing from the package unit")
	}
	uses := 0
	for id, obj := range xtest.Info.Uses {
		if id.Name == "Double" {
			uses++
			if obj != double {
				t.Errorf("%s resolves Double to a different object than %s declares", xtest.Path, pkg.Path)
			}
		}
	}
	if uses == 0 {
		t.Errorf("%s never uses Double", xtest.Path)
	}
}
