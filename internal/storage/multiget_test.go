package storage

import (
	"math/rand"
	"testing"
)

// TestMultiGetMatchesGet is the property check backing the batched probe
// path: over a growing index (inserts and hits on present keys, so chains,
// tag collisions and growth all occur), MultiGet must return exactly what
// per-key Get returns, for batch sizes around and across the group width.
func TestMultiGetMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := NewHashIndex32(16) // small: exercises growth from the start
	const keySpace = 1 << 12

	checkBatch := func(n int) {
		keys := make([]uint32, n)
		vals := make([]uint32, n)
		found := make([]bool, n)
		for i := range keys {
			keys[i] = uint32(rng.Intn(keySpace)) // ~50% hit rate once loaded
		}
		h.MultiGet(keys, vals, found)
		for i, k := range keys {
			wantV, wantOK := h.Get(k)
			if vals[i] != wantV || found[i] != wantOK {
				t.Fatalf("MultiGet(%d)[%d] key %d = (%d,%v), Get = (%d,%v)",
					n, i, k, vals[i], found[i], wantV, wantOK)
			}
		}
	}

	grown := false
	for round := 0; round < 200; round++ {
		// Mutate: a burst of inserts, some landing on present keys.
		buckets := len(h.slots)
		for j := 0; j < 10; j++ {
			h.GetOrInsert(uint32(rng.Intn(keySpace)), rng.Uint32())
		}
		grown = grown || len(h.slots) > buckets
		for _, n := range []int{1, 7, 8, 9, 16, 61} {
			checkBatch(n)
		}
	}
	if !grown || h.Len() < keySpace/4 {
		t.Fatalf("degenerate run: grown=%v, %d entries", grown, h.Len())
	}
}
