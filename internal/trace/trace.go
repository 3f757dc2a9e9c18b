// Package trace records time series of experiment metrics (power, load,
// latency, applied configuration) and computes summary statistics. It
// backs the figure and table regeneration harness.
package trace

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Series is one named time series.
type Series struct {
	Name   string
	Times  []time.Duration
	Values []float64
}

// Add appends a sample. Samples must be added in time order.
func (s *Series) Add(t time.Duration, v float64) {
	if n := len(s.Times); n > 0 && t < s.Times[n-1] {
		panic(fmt.Sprintf("trace: out-of-order sample %v after %v in %s", t, s.Times[n-1], s.Name))
	}
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// Mean returns the arithmetic mean of the values, or 0 when empty.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range s.Values {
		t += v
	}
	return t / float64(len(s.Values))
}

// Max returns the maximum value, or 0 when empty.
func (s *Series) Max() float64 {
	max := math.Inf(-1)
	for _, v := range s.Values {
		if v > max {
			max = v
		}
	}
	if math.IsInf(max, -1) {
		return 0
	}
	return max
}

// Min returns the minimum value, or 0 when empty.
func (s *Series) Min() float64 {
	min := math.Inf(1)
	for _, v := range s.Values {
		if v < min {
			min = v
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// Percentile returns the p-quantile (0..1) of the values using
// nearest-rank, or 0 when empty.
func (s *Series) Percentile(p float64) float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.Values...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Recorder collects named series.
type Recorder struct {
	series map[string]*Series
	order  []string
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]*Series)}
}

// Series returns (creating if needed) the series with the given name.
func (r *Recorder) Series(name string) *Series {
	s, ok := r.series[name]
	if !ok {
		s = &Series{Name: name}
		r.series[name] = s
		r.order = append(r.order, name)
	}
	return s
}

// Names returns the recorded series names in creation order.
func (r *Recorder) Names() []string { return append([]string(nil), r.order...) }

// Add is shorthand for Series(name).Add(t, v).
func (r *Recorder) Add(name string, t time.Duration, v float64) {
	r.Series(name).Add(t, v)
}
