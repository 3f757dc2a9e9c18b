package dodb

import (
	"runtime"
	"sort"
	"testing"
	"time"
)

func TestLatencyTrackerAverage(t *testing.T) {
	lt := NewLatencyTracker(time.Second)
	lt.Record(10*time.Millisecond, 0)
	lt.Record(30*time.Millisecond, 100*time.Millisecond)
	if got := lt.Average(100 * time.Millisecond); got != 20*time.Millisecond {
		t.Errorf("Average = %v, want 20ms", got)
	}
	if lt.Total() != 2 {
		t.Errorf("Total = %d", lt.Total())
	}
}

func TestLatencyTrackerWindowEviction(t *testing.T) {
	lt := NewLatencyTracker(time.Second)
	lt.Record(100*time.Millisecond, 0)
	lt.Record(10*time.Millisecond, 2*time.Second)
	// The first sample is out of the window at t=2s.
	if got := lt.Average(2 * time.Second); got != 10*time.Millisecond {
		t.Errorf("Average = %v, want 10ms after eviction", got)
	}
	if got := lt.Count(2 * time.Second); got != 1 {
		t.Errorf("Count = %d, want 1", got)
	}
	if lt.Total() != 2 {
		t.Error("Total must be lifetime, not windowed")
	}
}

func TestLatencyTrackerPercentile(t *testing.T) {
	lt := NewLatencyTracker(time.Minute)
	for i := 1; i <= 100; i++ {
		lt.Record(time.Duration(i)*time.Millisecond, time.Second)
	}
	if got := lt.Percentile(time.Second, 0.5); got != 50*time.Millisecond {
		t.Errorf("P50 = %v, want 50ms", got)
	}
	if got := lt.Percentile(time.Second, 0.99); got != 99*time.Millisecond {
		t.Errorf("P99 = %v, want 99ms", got)
	}
}

func TestLatencyTrackerTrend(t *testing.T) {
	lt := NewLatencyTracker(time.Minute)
	// Latency rising 10 ms per second.
	for i := 0; i <= 10; i++ {
		lt.Record(time.Duration(i)*10*time.Millisecond, time.Duration(i)*time.Second)
	}
	slope := lt.Trend(10 * time.Second)
	if slope < 0.009 || slope > 0.011 {
		t.Errorf("Trend = %v, want ~0.01", slope)
	}
	// Flat latency: zero slope.
	flat := NewLatencyTracker(time.Minute)
	for i := 0; i <= 10; i++ {
		flat.Record(50*time.Millisecond, time.Duration(i)*time.Second)
	}
	if got := flat.Trend(10 * time.Second); got < -1e-9 || got > 1e-9 {
		t.Errorf("flat Trend = %v, want 0", got)
	}
}

func TestLatencyTrackerEmpty(t *testing.T) {
	lt := NewLatencyTracker(0) // defaulted window
	if lt.Average(0) != 0 || lt.Percentile(0, 0.5) != 0 || lt.Trend(0) != 0 {
		t.Error("empty tracker should report zeros")
	}
}

func TestLatencyTrackerCompaction(t *testing.T) {
	lt := NewLatencyTracker(10 * time.Millisecond)
	// Push enough samples to wrap the window's ring many times.
	for i := 0; i < 20000; i++ {
		lt.Record(time.Millisecond, time.Duration(i)*time.Millisecond)
	}
	if got := lt.Count(20000 * time.Millisecond); got > 11 {
		t.Errorf("window holds %d samples, want <= 11", got)
	}
	if lt.Total() != 20000 {
		t.Errorf("Total = %d", lt.Total())
	}
}

// naiveWindow is the rescan reference for the tracker: every sample ever
// recorded, with the window recomputed from scratch on each query.
type naiveWindow struct {
	window time.Duration
	at     []time.Duration
	lat    []time.Duration
}

func (nw *naiveWindow) in(now time.Duration) (at, lat []time.Duration) {
	cutoff := now - nw.window
	i := 0
	for i < len(nw.at) && nw.at[i] < cutoff {
		i++
	}
	return nw.at[i:], nw.lat[i:]
}

func (nw *naiveWindow) average(now time.Duration) time.Duration {
	_, lat := nw.in(now)
	if len(lat) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range lat {
		sum += l
	}
	return sum / time.Duration(len(lat))
}

func (nw *naiveWindow) percentile(now time.Duration, p float64) time.Duration {
	_, lat := nw.in(now)
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p*float64(len(sorted))) - 1
	idx = max(0, min(idx, len(sorted)-1))
	return sorted[idx]
}

// trend sums oldest to newest, the order the tracker's window holds.
func (nw *naiveWindow) trend(now time.Duration) float64 {
	at, lat := nw.in(now)
	if len(at) < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range at {
		x, y := at[i].Seconds(), lat[i].Seconds()
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	n := float64(len(at))
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// slidingLatency is the latency of the i-th sample of the constant-rate
// streams below: a deterministic sawtooth with no two neighbours equal.
func slidingLatency(i int) time.Duration {
	return time.Duration(1+(i*7919)%50000) * time.Microsecond
}

// A stream whose rate steps up and back down makes the window's ring wrap
// around many times at each size and grow twice. Average, Percentile and
// Trend must equal a from-scratch rescan bit for bit throughout — checked
// on every growth and every change of the window's wrap state, and on a
// sparse sample elsewhere — and the ring must stop at the power of two
// above the largest window.
func TestLatencyTrackerRingMatchesRescan(t *testing.T) {
	const window = 300 * time.Millisecond
	// Phases of (spacing, samples): ~3000, then ~12000, then ~3000
	// samples in the window.
	phases := []struct {
		step time.Duration
		n    int
	}{{100 * time.Microsecond, 20000}, {25 * time.Microsecond, 40000}, {100 * time.Microsecond, 20000}}
	lt := NewLatencyTracker(window)
	ref := &naiveWindow{window: window}
	growths, wrapChanges, i := 0, 0, 0
	now := time.Duration(0)
	wasWrapped := false
	for _, ph := range phases {
		for j := 0; j < ph.n; j, i = j+1, i+1 {
			now += ph.step
			lat := slidingLatency(i)
			capBefore := lt.win.Cap()
			lt.Record(lat, now)
			ref.at = append(ref.at, now)
			ref.lat = append(ref.lat, lat)
			grew := lt.win.Cap() != capBefore
			if grew {
				growths++
			}
			_, tail := lt.win.All()
			wrapped := len(tail) > 0
			edge := wrapped != wasWrapped
			if edge {
				wrapChanges++
			}
			wasWrapped = wrapped
			// The rescan reference is O(window) per query.
			if !grew && !edge && i%997 != 0 {
				continue
			}
			if got, want := lt.Average(now), ref.average(now); got != want {
				t.Fatalf("sample %d: Average = %v, rescan %v", i, got, want)
			}
			for _, p := range []float64{0.5, 0.95, 0.99} {
				if got, want := lt.Percentile(now, p), ref.percentile(now, p); got != want {
					t.Fatalf("sample %d: P%v = %v, rescan %v", i, p*100, got, want)
				}
			}
			if got, want := lt.Trend(now), ref.trend(now); got != want {
				t.Fatalf("sample %d: Trend = %v, rescan %v (must be bit-identical)", i, got, want)
			}
			if _, lat := ref.in(now); lt.Count(now) != len(lat) {
				t.Fatalf("sample %d: Count = %d, rescan %d", i, lt.Count(now), len(lat))
			}
		}
	}
	// 3001 samples need 4096 slots, 12001 need 16384: the ring grows
	// from 4096 to 16384 in the dense phase and never shrinks.
	if c := lt.win.Cap(); c != 16384 {
		t.Fatalf("window ring cap %d, want 16384 for a window of at most ~12000 samples", c)
	}
	if growths < 2 || wrapChanges < 10 {
		t.Fatalf("%d growths and %d wrap-state changes: ring not exercised", growths, wrapChanges)
	}
}

// A tracker fed a constant stream whose window holds W samples allocates
// at most 2·nextPow2(W)·16 bytes for the window in total: the ring
// doubles only when full, so its discarded arrays sum to less than the
// final one. (Appending to a slice with a compaction rule allocated 35 MB
// for W = 132k: append grows large slices by ~1.25x, and the array filled
// before half of it was consumed.)
func TestLatencyTrackerGrowthBytes(t *testing.T) {
	const (
		w      = 132_000
		window = time.Second
		final  = 1 << 18 // nextPow2(w + 1)
	)
	step := window / w
	lt := NewLatencyTracker(window)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 3*w; i++ {
		lt.Record(slidingLatency(i), time.Duration(i)*step)
	}
	runtime.ReadMemStats(&after)
	if lt.win.Cap() != final {
		t.Fatalf("window ring cap %d, want %d", lt.win.Cap(), final)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*final*16); got > limit {
		t.Fatalf("a %d-sample window allocated %d bytes, want at most %d", w, got, limit)
	}
}

// Once warm, recording into a sliding window allocates nothing: the ring
// reuses its array.
func TestLatencyTrackerRecordAllocatesNothing(t *testing.T) {
	const step = 100 * time.Microsecond
	lt := NewLatencyTracker(300 * time.Millisecond)
	i := 0
	record := func() {
		lt.Record(slidingLatency(i), time.Duration(i)*step)
		i++
	}
	for i < 50000 { // many wrap-arounds at the steady cap
		record()
	}
	allocs := testing.AllocsPerRun(1, func() {
		for j := 0; j < 20000; j++ {
			record()
		}
	})
	if allocs != 0 {
		t.Fatalf("20000 sliding-window Records allocate %.0f times, want 0", allocs)
	}
}

// BenchmarkLatencyTrackerRecord measures Record on a sliding window at a
// constant rate, the engine's per-completed-query path: ~3000 samples in
// a 4096-slot ring.
func BenchmarkLatencyTrackerRecord(b *testing.B) {
	const step = 100 * time.Microsecond
	lt := NewLatencyTracker(300 * time.Millisecond)
	for i := 0; i < 50000; i++ {
		lt.Record(slidingLatency(i), time.Duration(i)*step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 50000; i < 50000+b.N; i++ {
		lt.Record(slidingLatency(i), time.Duration(i)*step)
	}
}
