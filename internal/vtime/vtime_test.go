package vtime

import (
	"testing"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
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
	fired := 0
	c.After(time.Second, func() { fired++ })
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
}

func TestAfterObservesDeadlineTime(t *testing.T) {
	c := NewClock()
	var at time.Duration
	c.After(time.Second, func() { at = c.Now() })
	c.Advance(5 * time.Second)
	if at != time.Second {
		t.Fatalf("task observed Now() = %v, want 1s", at)
	}
}

func TestEveryFiresPeriodically(t *testing.T) {
	c := NewClock()
	var times []time.Duration
	c.Every(time.Second, func() { times = append(times, c.Now()) })
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

func TestEveryAtPhaseOffset(t *testing.T) {
	c := NewClock()
	var times []time.Duration
	c.EveryAt(250*time.Millisecond, time.Second, func() { times = append(times, c.Now()) })
	c.Advance(2300 * time.Millisecond)
	want := []time.Duration{250 * time.Millisecond, 1250 * time.Millisecond, 2250 * time.Millisecond}
	if len(times) != len(want) {
		t.Fatalf("fired %d times (%v), want %d", len(times), times, len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("firing %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestEveryNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	NewClock().Every(0, func() {})
}

func TestCancelStopsFiring(t *testing.T) {
	c := NewClock()
	fired := 0
	task := c.Every(time.Second, func() { fired++ })
	c.Advance(2500 * time.Millisecond)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	task.Cancel()
	c.Advance(10 * time.Second)
	if fired != 2 {
		t.Fatalf("fired after cancel: %d", fired)
	}
}

func TestCancelFromWithinTask(t *testing.T) {
	c := NewClock()
	fired := 0
	var task Task
	task = c.Every(time.Second, func() {
		fired++
		if fired == 3 {
			task.Cancel()
		}
	})
	c.Advance(10 * time.Second)
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
}

func TestTaskSchedulingDuringAdvance(t *testing.T) {
	c := NewClock()
	var order []string
	c.After(time.Second, func() {
		order = append(order, "outer")
		c.After(time.Second, func() { order = append(order, "inner") })
	})
	c.Advance(5 * time.Second)
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("order = %v, want [outer inner]", order)
	}
}

func TestSameDeadlineFiresInScheduleOrder(t *testing.T) {
	c := NewClock()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		c.After(time.Second, func() { order = append(order, i) })
	}
	c.Advance(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestZeroDelayAfterFiresImmediatelyOnAdvance(t *testing.T) {
	c := NewClock()
	fired := false
	c.After(0, func() { fired = true })
	c.Advance(0)
	if !fired {
		t.Fatal("zero-delay task did not fire on Advance(0)")
	}
}
