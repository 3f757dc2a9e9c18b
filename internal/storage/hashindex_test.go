package storage

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHashIndexPutGet(t *testing.T) {
	h := NewHashIndex32(0)
	if _, ok := h.Get(1); ok {
		t.Fatal("empty index returned a value")
	}
	if v, inserted := h.GetOrInsert(1, 100); !inserted || v != 100 {
		t.Fatalf("first GetOrInsert(1) = %d,%v, want 100,true", v, inserted)
	}
	if v, ok := h.Get(1); !ok || v != 100 {
		t.Fatalf("Get(1) = %d,%v, want 100,true", v, ok)
	}
	if v, inserted := h.GetOrInsert(1, 200); inserted || v != 100 {
		t.Fatalf("second GetOrInsert(1) = %d,%v, want the stored 100,false", v, inserted)
	}
	if v, _ := h.Get(1); v != 100 {
		t.Fatalf("after a hit Get(1) = %d, want 100", v)
	}
	if h.Len() != 1 {
		t.Fatalf("Len = %d, want 1", h.Len())
	}
}

func TestHashIndexZeroKeyAndValue(t *testing.T) {
	h := NewHashIndex32(4)
	if _, inserted := h.GetOrInsert(0, 0); !inserted {
		t.Fatal("GetOrInsert(0, 0) did not insert")
	}
	if v, ok := h.Get(0); !ok || v != 0 {
		t.Fatalf("Get(0) = %d,%v, want 0,true", v, ok)
	}
	if _, ok := h.Get(1); ok {
		t.Fatal("Get(1) found a key never inserted")
	}
}

func TestHashIndexGrowthKeepsEntries(t *testing.T) {
	h := NewHashIndex32(0)
	const n = 10000
	for i := uint32(0); i < n; i++ {
		h.GetOrInsert(i*2654435761, i)
	}
	if h.Len() != n {
		t.Fatalf("Len = %d, want %d", h.Len(), n)
	}
	for i := uint32(0); i < n; i++ {
		if v, ok := h.Get(i * 2654435761); !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v, want %d", i*2654435761, v, ok, i)
		}
	}
}

// Property: the index behaves like a map with insert-if-absent semantics
// under a random operation sequence.
func TestHashIndexMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHashIndex32(0)
		ref := map[uint32]uint32{}
		for op := 0; op < 2000; op++ {
			k := uint32(rng.Intn(300))
			switch rng.Intn(2) {
			case 0:
				v := rng.Uint32()
				wantV, hit := ref[k]
				if !hit {
					ref[k], wantV = v, v
				}
				if gotV, inserted := h.GetOrInsert(k, v); gotV != wantV || inserted == hit {
					return false
				}
			case 1:
				wantV, wantOK := ref[k]
				gotV, gotOK := h.Get(k)
				if gotOK != wantOK || (wantOK && gotV != wantV) {
					return false
				}
			}
		}
		return h.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestHashIndexMemBytes(t *testing.T) {
	// 100 entries need 128 buckets at the 7/8 load factor: an 8-byte slot
	// and a state byte each.
	h := NewHashIndex32(100)
	if got, want := h.MemBytes(), 128*9; got != want {
		t.Errorf("MemBytes = %d, want %d", got, want)
	}
}
