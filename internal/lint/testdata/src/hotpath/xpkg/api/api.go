// Package api holds a hot loop that dispatches through an interface and
// a func-typed field; package impl, which imports it, supplies the
// targets. The two are separate units that share one type universe: the
// call graph must match implementations across that boundary.
package api

// Item is the element type both packages' signatures mention.
type Item struct{ N int }

// A Source fills a caller-owned buffer.
type Source interface {
	Fill(dst []Item) []Item
}

// Op carries a function to run against an item with a packed argument.
type Op struct {
	Run func(it *Item, ctx uint64)
	Ctx uint64
}

//ecllint:hotpath the fixture's cross-package dispatch loop
func Drain(s Source, buf []Item, ops []Op) []Item {
	buf = s.Fill(buf[:0])
	for i := range ops {
		ops[i].Run(&buf[0], ops[i].Ctx)
	}
	return buf
}
