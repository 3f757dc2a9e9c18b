package storage

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKVStoreBasics(t *testing.T) {
	kv := NewKVStore(16)
	if _, ok := kv.Get(1); ok {
		t.Fatal("empty store returned a value")
	}
	kv.Put(1, 100)
	kv.Put(2, 200)
	if v, ok := kv.Get(1); !ok || v != 100 {
		t.Fatalf("Get(1) = %d,%v", v, ok)
	}
	kv.Put(1, 111) // overwrite
	if v, _ := kv.Get(1); v != 111 {
		t.Fatalf("overwrite Get(1) = %d", v)
	}
	if kv.Len() != 2 {
		t.Fatalf("Len = %d, want 2", kv.Len())
	}
	if kv.MemBytes() <= 0 || kv.String() == "" {
		t.Error("MemBytes/String degenerate")
	}
}

// Property: under random runs of Put, PutBatch, Get and MultiGet the store
// answers exactly as a map does. Key spaces range from a handful of keys
// (mostly overwrites) to thousands (mostly inserts), and the capacity hint
// is small, so runs grow past both the value array's headroom and the
// index's 7/8 load factor; the test fails if no run did.
func TestKVStoreMatchesMapOracle(t *testing.T) {
	grewValues, grewIndex := 0, 0
	f := func(seed int64, capHint uint8, keyBits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		kv := NewKVStore(int(capHint % 64))
		startCap, startBuckets := cap(kv.values), len(kv.index.slots)
		keySpace := 1 << (2 + keyBits%11) // 4 .. 4096 keys
		oracle := map[uint32]uint32{}
		key := func() uint32 { return uint32(rng.Intn(keySpace)) }
		for op := 0; op < 400; op++ {
			switch rng.Intn(4) {
			case 0:
				k, v := key(), rng.Uint32()
				kv.Put(k, v)
				oracle[k] = v
			case 1:
				n := rng.Intn(24)
				keys, vals := make([]uint32, n), make([]uint32, n)
				for i := range keys {
					keys[i], vals[i] = key(), rng.Uint32()
					oracle[keys[i]] = vals[i] // in order: a repeated key keeps its last value
				}
				kv.PutBatch(keys, vals)
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
		if cap(kv.values) > startCap {
			grewValues++
		}
		if len(kv.index.slots) > startBuckets {
			grewIndex++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if grewValues == 0 || grewIndex == 0 {
		t.Fatalf("degenerate runs: value array grew in %d, index in %d", grewValues, grewIndex)
	}
}
