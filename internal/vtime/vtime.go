// Package vtime provides the virtual clock of the simulation stack.
//
// All components of the reproduction (hardware model, DBMS runtime,
// energy-control loop) are driven by a single virtual clock instead of the
// wall clock. This makes every experiment deterministic and lets a
// "two hour" load profile replay in milliseconds, mirroring how the paper
// replayed a 2 h Twitter load profile within 3 minutes.
package vtime

import (
	"fmt"
	"time"
)

// Agenda is the source of the clock's deadlines: the control loop, which
// knows its next tick and its planned configuration changes. Next reports
// the earliest pending action's instant (ok=false when nothing is
// pending); Fire runs exactly that action. The clock asks again after
// every firing, so an action may plan further actions.
type Agenda interface {
	Next() (at time.Duration, ok bool)
	Fire()
}

// Clock is a virtual clock. The zero value starts at instant 0 with no
// agenda. A Clock is advanced explicitly by the simulation driver;
// components read it through Now. Clock is not safe for concurrent use:
// the simulation is single-threaded by design (see DESIGN.md, decision 1).
type Clock struct {
	now    time.Duration
	agenda Agenda
}

// NewClock returns a clock positioned at virtual instant 0.
func NewClock() *Clock {
	return &Clock{}
}

// SetAgenda makes a the clock's single source of deadlines (nil: none).
func (c *Clock) SetAgenda(a Agenda) { c.agenda = a }

// Now returns the current virtual time as an offset from instant 0.
func (c *Clock) Now() time.Duration {
	return c.now
}

// Advance moves the clock forward by d, firing every agenda action due
// within the window in agenda order, with Now standing at each action's
// deadline while it runs. Actions an action plans inside the window fire
// too. Advance panics if d is negative.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("vtime: negative advance %v", d))
	}
	target := c.now + d
	for c.agenda != nil {
		at, ok := c.agenda.Next()
		if !ok || at > target {
			break
		}
		c.now = at
		c.agenda.Fire()
	}
	c.now = target
}

// NextDeadline reports the instant of the agenda's next action, or
// ok=false when nothing is pending. The bound is exact: nothing fires
// before it, which is what the simulation's quiescent fast-forward needs
// to bound a stretch.
func (c *Clock) NextDeadline() (time.Duration, bool) {
	if c.agenda == nil {
		return 0, false
	}
	return c.agenda.Next()
}
