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
	seen := 0
	h.Range(func(key, val uint32) {
		seen++
		if key != val*2654435761 {
			t.Fatalf("Range visited (%d, %d), never inserted", key, val)
		}
	})
	if seen != n {
		t.Fatalf("Range visited %d entries, want %d", seen, n)
	}
}

// Property: the index behaves like a map under a random sequence of
// insert-if-absent (GetOrInsert), overwrite (Upsert) and lookup. The fixed
// cases first pin Upsert at its edges.
func TestHashIndexMatchesMap(t *testing.T) {
	h := NewHashIndex32(0)
	h.Upsert(7, 70)
	h.Upsert(7, 71)
	if v, ok := h.Get(7); !ok || v != 71 || h.Len() != 1 {
		t.Fatalf("after an overwrite Get(7) = %d,%v with Len %d, want 71,true with Len 1", v, ok, h.Len())
	}
	buckets := len(h.slots)
	for k := uint32(100); len(h.slots) == buckets; k++ {
		h.Upsert(k, k)
	}
	h.Upsert(7, 72)
	if v, ok := h.Get(7); !ok || v != 72 {
		t.Fatalf("an overwrite after a grow: Get(7) = %d,%v, want 72,true", v, ok)
	}
	z := NewHashIndex32(4)
	z.Upsert(0, 0)
	if v, ok := z.Get(0); !ok || v != 0 || z.Len() != 1 {
		t.Fatalf("Upsert(0, 0): Get(0) = %d,%v with Len %d, want 0,true with Len 1", v, ok, z.Len())
	}
	z.Upsert(0, 5)
	z.Upsert(1, 0)
	if v, _ := z.Get(0); v != 5 || z.Len() != 2 {
		t.Fatalf("Get(0) = %d with Len %d, want 5 with Len 2", v, z.Len())
	}
	if v, ok := z.Get(1); !ok || v != 0 {
		t.Fatalf("Get(1) = %d,%v, want 0,true", v, ok)
	}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHashIndex32(0)
		ref := map[uint32]uint32{}
		for op := 0; op < 2000; op++ {
			k := uint32(rng.Intn(300))
			switch rng.Intn(3) {
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
				v := rng.Uint32()
				h.Upsert(k, v)
				ref[k] = v
			case 2:
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
	// 100 entries need 128 buckets at the 7/8 load factor (96 hold only
	// 84): an 8-byte slot and a state byte each.
	h := NewHashIndex32(100)
	if got, want := h.MemBytes(), 128*9; got != want {
		t.Errorf("MemBytes = %d, want %d", got, want)
	}
}

// onGrid reports whether n is a bucket count of the sizing grid
// {2^k, 3·2^(k−1)}, at least minBuckets.
func onGrid(n int) bool {
	m := n
	if m%3 == 0 {
		m /= 3
	}
	return n >= minBuckets && m&(m-1) == 0
}

// gridBelow returns the grid size just below n.
func gridBelow(n int) int {
	if n&(n-1) == 0 {
		return n / 4 * 3
	}
	return n / 3 * 2
}

// TestNewHashIndex32SizingContract checks the sizing rule the TATP and kv
// partitions rely on: NewHashIndex32(c) takes in c distinct keys without
// growing, and its bucket count is the smallest size on the grid
// {2^k, 3·2^(k−1)}, at least minBuckets, whose 7/8 load admits c entries.
// The sweep covers every c up to 100, a stride through 20,000, and both
// sides of each grid size's growth threshold up to the kv partition's
// (86,016/86,017 for 98,304 buckets). The insert that passes a threshold
// doubles the index, which keeps it on the grid.
func TestNewHashIndex32SizingContract(t *testing.T) {
	var cs []int
	for c := 0; c <= 100; c++ {
		cs = append(cs, c)
	}
	for c := 101; c <= 20000; c += 97 {
		cs = append(cs, c)
	}
	edges := map[int]bool{}
	for n := minBuckets; n <= 98304; n *= 2 {
		for _, m := range []int{n, n / 2 * 3} {
			edge := m * maxLoadNum / maxLoadDen
			cs = append(cs, edge, edge+1)
			edges[edge] = true
		}
	}
	if !edges[86016] || !edges[7168] || !edges[5376] {
		t.Fatalf("the sweep misses a partition's threshold: %v", edges)
	}
	for _, c := range cs {
		h := NewHashIndex32(c)
		bytes := h.MemBytes()
		n := len(h.slots)
		if !onGrid(n) {
			t.Fatalf("NewHashIndex32(%d): %d buckets, want a grid size >= %d", c, n, minBuckets)
		}
		if c*maxLoadDen > n*maxLoadNum {
			t.Fatalf("NewHashIndex32(%d): %d buckets cannot hold %d entries at 7/8 load", c, n, c)
		}
		if below := gridBelow(n); n > minBuckets && c*maxLoadDen <= below*maxLoadNum {
			t.Fatalf("NewHashIndex32(%d): %d buckets, but %d would hold %d entries", c, n, below, c)
		}
		for k := 0; k < c; k++ {
			h.GetOrInsert(uint32(k)*2654435761, uint32(k))
		}
		if h.Len() != c || h.MemBytes() != bytes {
			t.Fatalf("NewHashIndex32(%d): %d inserts left Len %d and %d bytes, want %d and %d",
				c, c, h.Len(), h.MemBytes(), c, bytes)
		}
		if edges[c] {
			h.GetOrInsert(uint32(c)*2654435761, uint32(c))
			if got := len(h.slots); got != 2*n || !onGrid(got) {
				t.Fatalf("NewHashIndex32(%d): insert %d grew %d buckets to %d, want %d", c, c+1, n, got, 2*n)
			}
		}
	}
}
