// Package impl implements api.Source and supplies an api.Op function
// from outside the hot loop's package.
package impl

import "ecldb/internal/lint/testdata/src/hotpath/xpkg/api"

// Maker implements api.Source.
type Maker struct{}

// Fill is reachable from api.Drain through the interface.
func (Maker) Fill(dst []api.Item) []api.Item {
	_ = make([]int, 3) // want "make allocates"
	return dst
}

// Lookalike has a Fill method of another signature, so it is no
// api.Source and stays unreachable.
type Lookalike struct{}

// Fill may allocate: nothing hot calls it.
func (Lookalike) Fill(dst []int) []int {
	_ = make([]int, 3)
	return dst
}

// run is reachable from api.Drain through api.Op.Run: its value is taken
// in NewOp and its signature matches the field's.
func run(it *api.Item, ctx uint64) {
	_ = make([]byte, ctx) // want "make allocates"
	it.N++
}

// idle has the same signature as run, but its value is never taken.
func idle(it *api.Item, ctx uint64) {
	_ = make([]byte, ctx)
}

// NewOp returns an op running run.
func NewOp() api.Op { return api.Op{Run: run} }

// Touch calls idle directly, outside any hot path.
func Touch(it *api.Item) { idle(it, 1) }
