// Package bad exercises the hotpath analyzer: one annotated root, every
// allocation class (assertions to method interfaces included),
// reachability through static calls, interface dispatch, and function
// values, plus the two suppression forms (finding suppression and
// call-edge cutting).
package bad

import "fmt"

type state struct {
	name string
	buf  []int
}

// A Worker is dispatched through an interface inside the hot loop; both
// implementations become reachable.
type Worker interface {
	Work() int
}

// A Sizer is an optional interface the hot loop asserts for.
type Sizer interface {
	Size() int
}

type fastWorker struct{ n int }

func (f fastWorker) Work() int { return f.n }

type slowWorker struct{}

func (slowWorker) Work() int {
	return *new(int) // want "new allocates"
}

// hook is a function value the hot loop calls; its value-taken target
// becomes reachable.
var hook = expensiveHook

func expensiveHook() {
	_ = make([]byte, 1) // want "make allocates"
}

//ecllint:hotpath the fixture's dispatch loop
func Step(s *state, w Worker, n int) int {
	p := &state{name: "x"}       // want "&composite literal escapes to the heap"
	xs := []int{n}               // want "slice/map literal allocates"
	s.buf = append(s.buf, n)     // want "append may grow its backing array"
	label := s.name + "!"        // want "string concatenation allocates"
	f := func() int { return n } // want "closure capturing"
	sink(n)                      // want "boxing int into interface"
	fmt.Sprintln()               // want "fmt.Sprintln allocates"
	if sz, ok := w.(Sizer); ok { // want "assertion to interface"
		n += sz.Size()
	}
	switch w.(type) {
	case Sizer: // want "type switch case"
	case fastWorker, nil:
	}
	_ = any(p).(*state) // concrete and empty-interface assertions need no cache
	_ = w.(any)
	helper(s)
	hook()
	//ecllint:allow hotpath warmup runs once before the steady state begins
	coldStart(s)
	_, _, _ = p, xs, label
	return w.Work() + f()
}

// helper is reachable from Step through a static call.
func helper(s *state) {
	m := map[string]int{} // want "slice/map literal allocates"
	m[s.name] = 1
}

// sink's interface parameter forces boxing at the call site; its own
// body is clean.
func sink(v any) {}

// coldStart allocates freely, but the only call edge into it is cut by a
// justified directive, so nothing below is a finding.
func coldStart(s *state) {
	s.buf = make([]int, 0, 1024)
	fmt.Sprintln("cold")
}

// Cold is not annotated and not reachable from Step: it may allocate.
func Cold() *state {
	return &state{name: fmt.Sprintf("cold-%d", 1)}
}

// Suppressed shows finding-level suppression inside a hot callee — it is
// reachable from Hot below, but the trailing directive excuses the
// amortized growth.
//
//ecllint:hotpath second root, exercising a suppressed finding
func Hot(s *state, n int) {
	s.buf = append(s.buf, n) //ecllint:allow hotpath amortized growth of a reused buffer
}
