package vtime

import (
	"testing"
	"time"
)

// queue is a test agenda: deadlines in ascending order (ties in the order
// added), each with an action that may add further deadlines.
type queue struct {
	c  *Clock
	at []time.Duration
	fn []func()
}

func newQueue(c *Clock) *queue {
	q := &queue{c: c}
	c.SetAgenda(q)
	return q
}

// after adds fn at the clock's current instant plus d.
func (q *queue) after(d time.Duration, fn func()) {
	at := q.c.Now() + d
	i := len(q.at)
	for i > 0 && q.at[i-1] > at {
		i--
	}
	q.at = append(q.at[:i], append([]time.Duration{at}, q.at[i:]...)...)
	q.fn = append(q.fn[:i], append([]func(){fn}, q.fn[i:]...)...)
}

// every adds fn each period from now on, re-arming from inside its own
// firing the way a control loop's tick does.
func (q *queue) every(period time.Duration, fn func()) {
	q.after(period, func() {
		q.every(period, fn)
		fn()
	})
}

func (q *queue) Next() (time.Duration, bool) {
	if len(q.at) == 0 {
		return 0, false
	}
	return q.at[0], true
}

func (q *queue) Fire() {
	fn := q.fn[0]
	q.at, q.fn = q.at[1:], q.fn[1:]
	fn()
}

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
	if _, ok := c.NextDeadline(); ok {
		t.Fatal("a clock without an agenda reports a deadline")
	}
}

func TestAdvanceMovesTime(t *testing.T) {
	c := NewClock()
	c.Advance(3 * time.Second)
	if got := c.Now(); got != 3*time.Second {
		t.Fatalf("Now() = %v, want 3s", got)
	}
	c.Advance(500 * time.Millisecond)
	if got := c.Now(); got != 3500*time.Millisecond {
		t.Fatalf("Now() = %v, want 3.5s", got)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewClock().Advance(-1)
}

func TestAfterFiresOnce(t *testing.T) {
	c := NewClock()
	q := newQueue(c)
	fired := 0
	q.after(time.Second, func() { fired++ })
	if d, ok := c.NextDeadline(); !ok || d != time.Second {
		t.Fatalf("NextDeadline = %v, %v; want 1s, true", d, ok)
	}
	c.Advance(999 * time.Millisecond)
	if fired != 0 {
		t.Fatalf("fired early: %d", fired)
	}
	c.Advance(time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	c.Advance(10 * time.Second)
	if fired != 1 {
		t.Fatalf("fired again: %d", fired)
	}
	if _, ok := c.NextDeadline(); ok {
		t.Fatal("an empty agenda reports a deadline")
	}
}

func TestAfterObservesDeadlineTime(t *testing.T) {
	c := NewClock()
	q := newQueue(c)
	var at time.Duration
	q.after(time.Second, func() { at = c.Now() })
	c.Advance(5 * time.Second)
	if at != time.Second {
		t.Fatalf("action observed Now() = %v, want 1s", at)
	}
	if c.Now() != 5*time.Second {
		t.Fatalf("Now() = %v after the window, want 5s", c.Now())
	}
}

// An action that plans its successor inside the window fires again in the
// same Advance, once per period.
func TestEveryFiresPeriodically(t *testing.T) {
	c := NewClock()
	q := newQueue(c)
	var times []time.Duration
	q.every(time.Second, func() { times = append(times, c.Now()) })
	c.Advance(3500 * time.Millisecond)
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	if len(times) != len(want) {
		t.Fatalf("fired %d times (%v), want %d", len(times), times, len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("firing %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestTaskSchedulingDuringAdvance(t *testing.T) {
	c := NewClock()
	q := newQueue(c)
	var order []string
	q.after(time.Second, func() {
		order = append(order, "outer")
		q.after(time.Second, func() { order = append(order, "inner") })
		q.after(0, func() { order = append(order, "now") })
	})
	c.Advance(5 * time.Second)
	if len(order) != 3 || order[0] != "outer" || order[1] != "now" || order[2] != "inner" {
		t.Fatalf("order = %v, want [outer now inner]", order)
	}
}

// Every action due within one Advance fires, in the agenda's order: by
// deadline, and same-deadline actions in the order the agenda gives them.
// A deadline at the window's end fires.
func TestSameDeadlineFiresInScheduleOrder(t *testing.T) {
	c := NewClock()
	q := newQueue(c)
	var order []int
	for i, d := range []time.Duration{3, 1, 2, 2, 1, 7} {
		i := i
		q.after(d*time.Second, func() { order = append(order, i) })
	}
	c.Advance(3 * time.Second)
	want := []int{1, 4, 2, 3, 0}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if d, ok := c.NextDeadline(); !ok || d != 7*time.Second {
		t.Fatalf("NextDeadline = %v, %v; want 7s, true", d, ok)
	}
}

func TestZeroDelayAfterFiresImmediatelyOnAdvance(t *testing.T) {
	c := NewClock()
	q := newQueue(c)
	fired := false
	q.after(0, func() { fired = true })
	c.Advance(0)
	if !fired {
		t.Fatal("an action due now did not fire on Advance(0)")
	}
}
