package main

import (
	"math"
	"sort"
	"time"
)

// savingsPct is the ECL's energy saving against the baseline, in percent.
func savingsPct(baselineJ, eclJ float64) float64 {
	return 100 * (1 - eclJ/baselineJ)
}

// sloMissPct is the share of submitted queries that missed the latency
// limit, in percent: completed over the limit, dropped, or still in
// flight when the run stopped.
func sloMissPct(violations, dropped, inflight, submitted int64) float64 {
	if submitted <= 0 {
		return 0
	}
	return 100 * float64(violations+dropped+inflight) / float64(submitted)
}

// overloadSeconds integrates the recorded windowed-average-latency series:
// each sample above limitMs counts the time until the next sample. It is
// the definition behind the figures' OverloadSec; the last sample opens
// no interval and counts nothing.
func overloadSeconds(times []time.Duration, valuesMs []float64, limitMs float64) float64 {
	over := 0.0
	for i, v := range valuesMs {
		if v > limitMs && i+1 < len(times) {
			over += (times[i+1] - times[i]).Seconds()
		}
	}
	return over
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs,
// which must be sorted ascending.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
