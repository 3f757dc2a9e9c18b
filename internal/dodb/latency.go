package dodb

import (
	"math/bits"
	"time"

	"ecldb/internal/msg"
)

// latencySample is one completed query.
type latencySample struct {
	at      time.Duration // completion time
	latency time.Duration
}

// LatencyTracker keeps a sliding window of query latencies and derives the
// metrics the system-level ECL consumes: the current average latency and
// its trend (used to estimate the time until the latency limit is
// violated, Section 5.2).
type LatencyTracker struct {
	window time.Duration
	// win holds the window's samples oldest first in a chain of blocks
	// drawn from free, where evicted blocks go back: a constant
	// completion rate reuses the same blocks.
	win   msg.FIFO[latencySample]
	free  msg.FreeList[latencySample]
	total int64 // lifetime completed queries
	// winSum is the exact sum of the latencies currently in the window,
	// maintained incrementally (added on Record, subtracted on evict).
	// Duration addition is integer math, so the rolling sum equals the
	// rescan sum bit for bit regardless of accumulation order.
	winSum time.Duration
	// selScratch is the reusable buffer of the exact Percentile's
	// quickselect; it grows only when the window outgrows it.
	selScratch []time.Duration

	threshold time.Duration
	overCount int64
}

// NewLatencyTracker creates a tracker with the given sliding window.
func NewLatencyTracker(window time.Duration) *LatencyTracker {
	if window <= 0 {
		window = time.Second
	}
	return &LatencyTracker{window: window}
}

// Record adds a completed query.
func (lt *LatencyTracker) Record(latency, now time.Duration) {
	*lt.win.Push(&lt.free) = latencySample{at: now, latency: latency}
	lt.winSum += latency
	lt.total++
	if lt.threshold > 0 && latency > lt.threshold {
		lt.overCount++
	}
	lt.evict(now)
}

// SetThreshold arms a lifetime counter of queries exceeding the given
// latency (used to report limit violations in the evaluation).
func (lt *LatencyTracker) SetThreshold(d time.Duration) { lt.threshold = d }

// Threshold returns the armed latency limit (0 = none armed).
func (lt *LatencyTracker) Threshold() time.Duration { return lt.threshold }

// OverThreshold returns how many recorded queries exceeded the armed
// threshold.
func (lt *LatencyTracker) OverThreshold() int64 { return lt.overCount }

// evict drops samples older than the window.
func (lt *LatencyTracker) evict(now time.Duration) {
	cutoff := now - lt.window
	for s := lt.win.Front(); s != nil && s.at < cutoff; s = lt.win.Front() {
		lt.winSum -= s.latency
		lt.win.Pop(&lt.free)
	}
}

// Total returns the lifetime number of completed queries.
func (lt *LatencyTracker) Total() int64 { return lt.total }

// Count returns the number of samples currently in the window.
func (lt *LatencyTracker) Count(now time.Duration) int {
	lt.evict(now)
	return lt.win.Len()
}

// Average returns the mean latency over the window, or 0 with no samples.
// The incremental window sum makes this O(eviction) instead of a rescan;
// Duration sums are exact integers, so the result is identical to the
// rescan it replaced.
func (lt *LatencyTracker) Average(now time.Duration) time.Duration {
	lt.evict(now)
	n := lt.win.Len()
	if n == 0 {
		return 0
	}
	return lt.winSum / time.Duration(n)
}

// Percentile returns the p-quantile (0..1) latency over the window: the
// same order statistic a full sort would select, found by quickselect in
// O(n) expected time on a reused scratch buffer (the per-trace-sample
// call on a ~10^5-sample window was a measurable slice of single-run
// wall time under the sort).
func (lt *LatencyTracker) Percentile(now time.Duration, p float64) time.Duration {
	lt.evict(now)
	n := lt.win.Len()
	if n == 0 {
		return 0
	}
	if cap(lt.selScratch) < n {
		// A power of two: a growing window reallocates it at most
		// log2 times.
		lt.selScratch = make([]time.Duration, 0, 1<<bits.Len(uint(n)))
	}
	lats := lt.selScratch[:0]
	runs := lt.win.Runs()
	for run := runs.Next(); run != nil; run = runs.Next() {
		for _, s := range run {
			lats = append(lats, s.latency)
		}
	}
	lt.selScratch = lats
	idx := int(p*float64(len(lats))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(lats) {
		idx = len(lats) - 1
	}
	return quickselect(lats, idx)
}

// quickselect returns the k-th smallest element (0-based) of lats,
// partially reordering lats in place. Median-of-three pivoting with a
// three-way partition keeps the expected cost linear even on the highly
// duplicated latency populations the quantum-grained completion times
// produce. The selected value is the same the sorted slice would hold at
// index k — order statistics do not depend on the algorithm — so results
// are bit-identical to the sort-based implementation.
func quickselect(lats []time.Duration, k int) time.Duration {
	lo, hi := 0, len(lats)-1
	for lo < hi {
		// Median-of-three pivot (deterministic: no randomness sources in
		// the core fence).
		mid := lo + (hi-lo)/2
		if lats[mid] < lats[lo] {
			lats[mid], lats[lo] = lats[lo], lats[mid]
		}
		if lats[hi] < lats[lo] {
			lats[hi], lats[lo] = lats[lo], lats[hi]
		}
		if lats[hi] < lats[mid] {
			lats[hi], lats[mid] = lats[mid], lats[hi]
		}
		pivot := lats[mid]
		// Three-way partition: [lo,lt) < pivot, [lt,i) == pivot, (gt,hi]
		// > pivot.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch {
			case lats[i] < pivot:
				lats[i], lats[lt] = lats[lt], lats[i]
				lt++
				i++
			case lats[i] > pivot:
				lats[i], lats[gt] = lats[gt], lats[i]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return pivot
		}
	}
	return lats[lo]
}

// Trend returns the latency slope in (latency seconds) per (wall second)
// over the window, via least-squares regression. A positive slope means
// latencies are rising toward the limit.
func (lt *LatencyTracker) Trend(now time.Duration) float64 {
	lt.evict(now)
	if lt.win.Len() < 2 {
		return 0
	}
	// Sum oldest to newest: float addition is not associative, so the
	// order is part of the result and of every digest built on it.
	var sx, sy, sxx, sxy float64
	runs := lt.win.Runs()
	for run := runs.Next(); run != nil; run = runs.Next() {
		for _, s := range run {
			x := s.at.Seconds()
			y := s.latency.Seconds()
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
		}
	}
	n := float64(lt.win.Len())
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
