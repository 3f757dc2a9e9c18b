package storage

import (
	"math/rand"
	"testing"
)

// benchIndex builds an index shaped like one KV workload partition:
// 65536 random keys in 98304 buckets (load factor 2/3).
func benchIndex() *HashIndex32 {
	return benchIndexSeeded(1)
}

// benchIndexSeeded builds a kv-shaped index from the given seed.
func benchIndexSeeded(seed int64) *HashIndex32 {
	rng := rand.New(rand.NewSource(seed))
	h := NewHashIndex32(65536)
	for i := 0; i < 65536; i++ {
		h.GetOrInsert(rng.Uint32(), rng.Uint32())
	}
	return h
}

func BenchmarkHashIndexGet8(b *testing.B) {
	h := benchIndex()
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := rng.Uint32()
		for j := 0; j < 8; j++ {
			h.Get(base + uint32(j))
		}
	}
}

func BenchmarkHashIndexMultiGet8(b *testing.B) {
	h := benchIndex()
	rng := rand.New(rand.NewSource(2))
	var keys, vals [8]uint32
	var ok [8]bool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := rng.Uint32()
		for j := range keys {
			keys[j] = base + uint32(j)
		}
		h.MultiGet(keys[:], vals[:], ok[:])
	}
}

// BenchmarkHashIndexMultiGet8Partitions probes the simulator's real
// working set: 48 kv-shaped indexes (one kv engine's partitions, one per
// hardware thread of the simulated 2-socket Haswell-EP; about 42 MB),
// with each batch of 8 consecutive keys sent to a random one, as a kv
// get does. The single-index rows above fit in a 4 MiB L2 and so
// misjudge a layout's cache misses.
func BenchmarkHashIndexMultiGet8Partitions(b *testing.B) {
	const partitions = 48
	idx := make([]*HashIndex32, partitions)
	for p := range idx {
		idx[p] = benchIndexSeeded(int64(p + 1))
	}
	rng := rand.New(rand.NewSource(2))
	var keys, vals [8]uint32
	var ok [8]bool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := idx[rng.Intn(partitions)]
		base := rng.Uint32()
		for j := range keys {
			keys[j] = base + uint32(j)
		}
		h.MultiGet(keys[:], vals[:], ok[:])
	}
}
