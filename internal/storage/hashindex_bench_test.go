package storage

import (
	"math/rand"
	"testing"
)

// benchIndex builds an index shaped like one KV workload partition:
// 65536 random keys in 131072 buckets (load factor 0.5).
func benchIndex() *HashIndex32 {
	rng := rand.New(rand.NewSource(1))
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
