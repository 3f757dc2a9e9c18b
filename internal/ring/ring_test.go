package ring

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"
)

// Property: any sequence of Push and Pop keeps the ring equal to a
// plain slice FIFO — the same elements in the same order, also as All's
// two views — across growths
// and wrap-arounds, and the array length stays a power of two at most
// twice the largest length the ring ever held.
func TestRingMatchesSliceOracle(t *testing.T) {
	f := func(ops []uint8) bool {
		var r Ring[int]
		var oracle []int
		seq, peak := 0, 0
		for _, op := range ops {
			switch op % 3 {
			case 0, 1: // push a burst of 1..32
				for n := int(op>>2)%32 + 1; n > 0; n-- {
					*r.Push() = seq
					oracle = append(oracle, seq)
					seq++
				}
			case 2: // pop one
				p := r.Pop()
				if len(oracle) == 0 {
					if p != nil {
						return false
					}
					continue
				}
				if p == nil || *p != oracle[0] {
					return false
				}
				oracle = oracle[1:]
			}
			peak = max(peak, len(oracle))
			if r.Len() != len(oracle) {
				return false
			}
			if c := r.Cap(); c != 0 && (c&(c-1) != 0 || c > max(2*peak, minCap)) {
				return false
			}
			head, tail := r.All()
			all := append(append([]int(nil), head...), tail...)
			if len(all) != len(oracle) || (len(head) == 0 && len(tail) > 0) {
				return false
			}
			for i := range all {
				if all[i] != oracle[i] {
					return false
				}
			}
			if f := r.Front(); (f == nil) != (len(oracle) == 0) || (f != nil && *f != oracle[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// A ring filled to W elements allocates less than 2·nextPow2(W) elements'
// worth of arrays in total: each growth doubles, so the arrays it leaves
// behind sum to less than the final one.
func TestRingGrowthBytes(t *testing.T) {
	const w = 132_000
	const final = 1 << 18 // nextPow2(w)
	var r Ring[[16]byte]
	// AllocsPerRun counts the whole process's mallocs, and the runtime
	// now and then allocates inside the measured run on its own: a GC
	// cycle's mark workers, or the background scavenger re-arming its
	// timer. Collecting first and keeping the collector off for the runs
	// removes the first and makes the second rare. Runtime allocations
	// only ever add, and the ring's count is the same on every run, so
	// the fewest of three runs is the ring's own count.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := math.Inf(1)
	for range 3 {
		allocs = min(allocs, testing.AllocsPerRun(1, func() {
			r = Ring[[16]byte]{}
			for i := 0; i < w; i++ {
				*r.Push() = [16]byte{}
			}
		}))
	}
	if r.Cap() != final {
		t.Fatalf("cap %d after %d pushes, want %d", r.Cap(), w, final)
	}
	// minCap, 2·minCap, ..., 2^18: one allocation per array.
	if want := float64(bits.Len(final / minCap)); allocs != want {
		t.Fatalf("%d pushes allocated %.0f times, want %.0f arrays", w, allocs, want)
	}
}
