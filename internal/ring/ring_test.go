package ring

import (
	"math/bits"
	"testing"
	"testing/quick"
)

// Property: any sequence of Push, Pop and Take keeps the ring equal to a
// plain slice FIFO — the same elements in the same order — across growths
// and wrap-arounds, and the array length stays a power of two at most
// twice the largest length the ring ever held.
func TestRingMatchesSliceOracle(t *testing.T) {
	f := func(ops []uint8) bool {
		var r Ring[int]
		var oracle []int
		seq, peak := 0, 0
		for _, op := range ops {
			switch op % 4 {
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
			case 3: // take up to 0..15 (0 takes all)
				max := int(op>>2) % 16
				head, tail := r.Take(max)
				want := len(oracle)
				if max > 0 && max < want {
					want = max
				}
				got := append(append([]int(nil), head...), tail...)
				if len(got) != want || (len(head) == 0 && len(tail) > 0) {
					return false
				}
				for i := range got {
					if got[i] != oracle[i] {
						return false
					}
				}
				oracle = oracle[want:]
			}
			peak = max(peak, len(oracle))
			if r.Len() != len(oracle) {
				return false
			}
			if c := r.Cap(); c != 0 && (c&(c-1) != 0 || c > max(2*peak, minCap)) {
				return false
			}
			head, tail := r.All()
			if len(head)+len(tail) != len(oracle) {
				return false
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
	allocs := testing.AllocsPerRun(1, func() {
		r = Ring[[16]byte]{}
		for i := 0; i < w; i++ {
			*r.Push() = [16]byte{}
		}
	})
	if r.Cap() != final {
		t.Fatalf("cap %d after %d pushes, want %d", r.Cap(), w, final)
	}
	// minCap, 2·minCap, ..., 2^18: one allocation per array.
	if want := float64(bits.Len(final / minCap)); allocs != want {
		t.Fatalf("%d pushes allocated %.0f times, want %.0f arrays", w, allocs, want)
	}
}
