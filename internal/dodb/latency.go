package dodb

import (
	"time"

	"ecldb/internal/ring"
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
	// win holds the window's samples oldest first, in a ring that doubles
	// only when full: a constant completion rate reuses one array.
	win   ring.Ring[latencySample]
	total int64 // lifetime completed queries
	// winSum is the exact sum of the latencies currently in the window,
	// maintained incrementally (added on Record, subtracted on evict).
	// Duration addition is integer math, so the rolling sum equals the
	// rescan sum bit for bit regardless of accumulation order.
	winSum time.Duration
	// selScratch is the reusable buffer of the exact Percentile's
	// quickselect, sized to the ring's capacity so it reallocates only
	// when the ring grows.
	selScratch []time.Duration

	threshold time.Duration
	overCount int64

	// Fixed-bucket histogram over the window (bounds from
	// QueryLatencyBuckets plus an overflow bucket). Counts are maintained
	// incrementally — incremented on Record, decremented on evict — so
	// EstimatedPercentile is O(buckets) instead of the O(n log n) sort of
	// the exact Percentile.
	histBounds []time.Duration
	histCounts []int64
}

// NewLatencyTracker creates a tracker with the given sliding window.
func NewLatencyTracker(window time.Duration) *LatencyTracker {
	if window <= 0 {
		window = time.Second
	}
	bounds := make([]time.Duration, len(QueryLatencyBuckets))
	for i, ms := range QueryLatencyBuckets {
		bounds[i] = time.Duration(ms * float64(time.Millisecond))
	}
	return &LatencyTracker{
		window:     window,
		histBounds: bounds,
		histCounts: make([]int64, len(bounds)+1),
	}
}

// Record adds a completed query.
func (lt *LatencyTracker) Record(latency, now time.Duration) {
	lt.histCounts[lt.bucket(latency)]++
	*lt.win.Push() = latencySample{at: now, latency: latency}
	lt.winSum += latency
	lt.total++
	if lt.threshold > 0 && latency > lt.threshold {
		lt.overCount++
	}
	lt.evict(now)
}

// bucket returns the histogram bucket of a latency: the first bound it
// does not exceed, or the overflow bucket.
func (lt *LatencyTracker) bucket(latency time.Duration) int {
	for i, ub := range lt.histBounds {
		if latency <= ub {
			return i
		}
	}
	return len(lt.histBounds)
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
		lt.histCounts[lt.bucket(s.latency)]--
		lt.winSum -= s.latency
		lt.win.Pop()
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
	if len(lt.selScratch) < lt.win.Cap() {
		lt.selScratch = make([]time.Duration, lt.win.Cap())
	}
	lats := lt.selScratch[:n]
	head, tail := lt.win.All()
	i := 0
	for _, seg := range [2][]latencySample{head, tail} {
		for _, s := range seg {
			lats[i] = s.latency
			i++
		}
	}
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

// EstimatedPercentile returns the p-quantile (0..1) latency over the
// window from the fixed-bucket histogram, with linear interpolation
// inside the matched bucket. Estimates in the overflow bucket clamp to
// the top bound. Cheaper than the exact sort-based Percentile — O(one
// bucket scan) — which makes it suitable for per-sample gauges; the
// trade is bucket-resolution accuracy (bounds from QueryLatencyBuckets).
func (lt *LatencyTracker) EstimatedPercentile(now time.Duration, p float64) time.Duration {
	lt.evict(now)
	n := int64(lt.win.Len())
	if n == 0 {
		return 0
	}
	rank := int64(p * float64(n))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum int64
	for i, c := range lt.histCounts {
		if c <= 0 {
			continue
		}
		if cum+c >= rank {
			if i == len(lt.histBounds) {
				return lt.histBounds[len(lt.histBounds)-1]
			}
			lower := time.Duration(0)
			if i > 0 {
				lower = lt.histBounds[i-1]
			}
			upper := lt.histBounds[i]
			frac := float64(rank-cum) / float64(c)
			return lower + time.Duration(float64(upper-lower)*frac)
		}
		cum += c
	}
	return 0
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
	head, tail := lt.win.All()
	for _, seg := range [2][]latencySample{head, tail} {
		for _, s := range seg {
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
