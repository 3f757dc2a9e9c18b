package storage

import (
	"math/rand"
	"testing"
)

// TestMultiGetMatchesGet is the property check backing the batched probe
// path: over a mutating index (inserts, overwrites, deletes — so chains,
// tombstones, tag collisions, and growth all occur), MultiGet must return
// exactly what per-key Get returns, for batch sizes around and across the
// group width.
func TestMultiGetMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := NewHashIndex(16) // small: exercises growth from the start
	const keySpace = 1 << 12

	checkBatch := func(n int) {
		keys := make([]uint64, n)
		vals := make([]uint64, n)
		found := make([]bool, n)
		for i := range keys {
			keys[i] = uint64(rng.Intn(keySpace)) // ~50% hit rate once loaded
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

	for round := 0; round < 200; round++ {
		// Mutate: a burst of inserts/overwrites and some deletes.
		for j := 0; j < 40; j++ {
			h.Put(uint64(rng.Intn(keySpace)), rng.Uint64())
		}
		for j := 0; j < 10; j++ {
			h.Delete(uint64(rng.Intn(keySpace)))
		}
		for _, n := range []int{1, 7, 8, 9, 16, 61} {
			checkBatch(n)
		}
	}
	if h.Len() == 0 {
		t.Fatal("degenerate run: index ended empty")
	}
}

// TestKVStoreMultiGetMatchesGet checks the store-level batch path against
// per-key Get.
func TestKVStoreMultiGetMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	kv := NewKVStore(256)
	for i := 0; i < 300; i++ {
		kv.Put(uint32(rng.Intn(512)), rng.Uint32())
	}
	keys := make([]uint32, 61)
	vals := make([]uint32, len(keys))
	found := make([]bool, len(keys))
	for i := range keys {
		keys[i] = uint32(rng.Intn(1024))
	}
	kv.MultiGet(keys, vals, found)
	for i, k := range keys {
		wantV, wantOK := kv.Get(k)
		if vals[i] != wantV || found[i] != wantOK {
			t.Fatalf("MultiGet[%d] key %d = (%d,%v), Get = (%d,%v)",
				i, k, vals[i], found[i], wantV, wantOK)
		}
	}
}
