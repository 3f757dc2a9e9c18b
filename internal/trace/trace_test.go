package trace

import (
	"testing"
	"time"
)

func TestSeriesStats(t *testing.T) {
	var s Series
	for i, v := range []float64{4, 1, 3, 2, 5} {
		s.Add(time.Duration(i)*time.Second, v)
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Mean(); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := s.Max(); got != 5 {
		t.Errorf("Max = %v, want 5", got)
	}
	if got := s.Min(); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := s.Percentile(0.5); got != 3 {
		t.Errorf("P50 = %v, want 3", got)
	}
	if got := s.Percentile(1.0); got != 5 {
		t.Errorf("P100 = %v, want 5", got)
	}
	if got := s.Percentile(0.01); got != 1 {
		t.Errorf("P1 = %v, want 1", got)
	}
}

func TestEmptySeriesStats(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 || s.Percentile(0.5) != 0 {
		t.Error("empty series stats should be 0")
	}
}

func TestSeriesOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Add did not panic")
		}
	}()
	var s Series
	s.Add(2*time.Second, 1)
	s.Add(time.Second, 2)
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	r.Add("power", 0, 100)
	r.Add("power", time.Second, 110)
	r.Add("latency", 0, 5)
	if got := r.Series("power").Len(); got != 2 {
		t.Errorf("power samples = %d", got)
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "power" || names[1] != "latency" {
		t.Errorf("Names = %v", names)
	}
	// Series is idempotent.
	if r.Series("power") != r.Series("power") {
		t.Error("Series not idempotent")
	}
}
