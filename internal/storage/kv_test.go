package storage

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: a HashIndex32 used as the KV store (Upsert, Get, MultiGet)
// answers exactly as a map does under random runs. Key spaces range from
// a handful of keys (mostly overwrites) to thousands (mostly inserts), and
// the capacity hint is small, so runs grow past the index's 7/8 load
// factor; the test fails if no run did.
func TestKVStoreMatchesMapOracle(t *testing.T) {
	grewIndex := 0
	f := func(seed int64, capHint uint8, keyBits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		kv := NewHashIndex32(int(capHint % 64))
		startBuckets := len(kv.slots)
		keySpace := 1 << (2 + keyBits%11) // 4 .. 4096 keys
		oracle := map[uint32]uint32{}
		key := func() uint32 { return uint32(rng.Intn(keySpace)) }
		for op := 0; op < 400; op++ {
			switch rng.Intn(4) {
			case 0, 1:
				k, v := key(), rng.Uint32()
				kv.Upsert(k, v)
				oracle[k] = v
			case 2:
				k := key()
				v, ok := kv.Get(k)
				want, wantOK := oracle[k]
				if v != want || ok != wantOK {
					t.Logf("seed %d: Get(%d) = (%d,%v), want (%d,%v)", seed, k, v, ok, want, wantOK)
					return false
				}
			case 3:
				n := rng.Intn(24) // crosses the 8-key probe group
				keys := make([]uint32, n)
				vals, found := make([]uint32, n), make([]bool, n)
				for i := range keys {
					keys[i] = key()
				}
				kv.MultiGet(keys, vals, found)
				for i, k := range keys {
					want, wantOK := oracle[k]
					if vals[i] != want || found[i] != wantOK {
						t.Logf("seed %d: MultiGet[%d] key %d = (%d,%v), want (%d,%v)",
							seed, i, k, vals[i], found[i], want, wantOK)
						return false
					}
				}
			}
			if kv.Len() != len(oracle) {
				t.Logf("seed %d: Len = %d, want %d", seed, kv.Len(), len(oracle))
				return false
			}
		}
		if len(kv.slots) > startBuckets {
			grewIndex++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if grewIndex == 0 {
		t.Fatal("degenerate runs: no index grew")
	}
}
