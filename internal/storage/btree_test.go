package storage

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBTreeEmpty(t *testing.T) {
	bt := NewBTree()
	if bt.Len() != 0 {
		t.Fatal("new tree not empty")
	}
	if _, ok := bt.Get(1); ok {
		t.Fatal("empty tree returned a value")
	}
	if _, ok := bt.Min(); ok {
		t.Fatal("empty Min should fail")
	}
	if _, ok := bt.Max(); ok {
		t.Fatal("empty Max should fail")
	}
	if bt.Delete(1) {
		t.Fatal("empty Delete should fail")
	}
	bt.Range(0, 100, func(int64, uint64) bool {
		t.Fatal("empty Range visited a key")
		return false
	})
}

func TestBTreePutGetOverwrite(t *testing.T) {
	bt := NewBTree()
	if !bt.Put(5, 50) {
		t.Fatal("first Put should be new")
	}
	if bt.Put(5, 55) {
		t.Fatal("overwrite should not be new")
	}
	if v, ok := bt.Get(5); !ok || v != 55 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	if bt.Len() != 1 {
		t.Fatalf("Len = %d", bt.Len())
	}
}

func TestBTreeSplitsAndDepth(t *testing.T) {
	bt := NewBTree()
	const n = 100000
	for i := int64(0); i < n; i++ {
		bt.Put(i*7%n, uint64(i)) // scattered order
	}
	if err := bt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if bt.Len() != n {
		t.Fatalf("Len = %d, want %d", bt.Len(), n)
	}
	if d := bt.depth(); d < 3 || d > 5 {
		t.Errorf("depth = %d for %d keys (degree 64), want 3-5", d, n)
	}
	for i := int64(0); i < n; i += 997 {
		if _, ok := bt.Get(i); !ok {
			t.Fatalf("Get(%d) missing", i)
		}
	}
}

func TestBTreeRangeScan(t *testing.T) {
	bt := NewBTree()
	for i := int64(0); i < 1000; i += 2 { // even keys only
		bt.Put(i, uint64(i*10))
	}
	var keys []int64
	bt.Range(100, 120, func(k int64, v uint64) bool {
		if v != uint64(k*10) {
			t.Fatalf("value mismatch at %d", k)
		}
		keys = append(keys, k)
		return true
	})
	want := []int64{100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120}
	if len(keys) != len(want) {
		t.Fatalf("range = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("range = %v, want %v", keys, want)
		}
	}
	// Early termination.
	visits := 0
	bt.Range(0, 999, func(int64, uint64) bool {
		visits++
		return visits < 3
	})
	if visits != 3 {
		t.Fatalf("early termination visited %d", visits)
	}
	// Empty range.
	bt.Range(101, 101, func(int64, uint64) bool {
		t.Fatal("odd key should not exist")
		return false
	})
}

func TestBTreeMinMax(t *testing.T) {
	bt := NewBTree()
	for _, k := range []int64{42, -7, 1000, 3} {
		bt.Put(k, 0)
	}
	if min, _ := bt.Min(); min != -7 {
		t.Errorf("Min = %d", min)
	}
	if max, _ := bt.Max(); max != 1000 {
		t.Errorf("Max = %d", max)
	}
}

func TestBTreeDelete(t *testing.T) {
	bt := NewBTree()
	for i := int64(0); i < 1000; i++ {
		bt.Put(i, uint64(i))
	}
	for i := int64(0); i < 1000; i += 2 {
		if !bt.Delete(i) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if bt.Len() != 500 {
		t.Fatalf("Len = %d, want 500", bt.Len())
	}
	for i := int64(0); i < 1000; i++ {
		_, ok := bt.Get(i)
		if (i%2 == 0) == ok {
			t.Fatalf("Get(%d) = %v after deletions", i, ok)
		}
	}
	if err := bt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: the tree behaves like a sorted map under random operations,
// and range scans agree with the reference.
func TestBTreeMatchesReferenceMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bt := NewBTree()
		ref := map[int64]uint64{}
		for op := 0; op < 3000; op++ {
			k := int64(rng.Intn(500))
			switch rng.Intn(4) {
			case 0, 1:
				v := rng.Uint64()
				wantNew := false
				if _, ok := ref[k]; !ok {
					wantNew = true
				}
				if bt.Put(k, v) != wantNew {
					return false
				}
				ref[k] = v
			case 2:
				_, wantOK := ref[k]
				if bt.Delete(k) != wantOK {
					return false
				}
				delete(ref, k)
			case 3:
				wantV, wantOK := ref[k]
				v, ok := bt.Get(k)
				if ok != wantOK || (ok && v != wantV) {
					return false
				}
			}
		}
		if bt.Len() != len(ref) {
			return false
		}
		// Full-range scan must equal the sorted reference.
		var refKeys []int64
		for k := range ref {
			refKeys = append(refKeys, k)
		}
		sort.Slice(refKeys, func(i, j int) bool { return refKeys[i] < refKeys[j] })
		var got []int64
		bt.Range(-1000, 1000, func(k int64, v uint64) bool {
			if v != ref[k] {
				return false
			}
			got = append(got, k)
			return true
		})
		if len(got) != len(refKeys) {
			return false
		}
		for i := range got {
			if got[i] != refKeys[i] {
				return false
			}
		}
		return bt.checkInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBTreeSequentialAndReverseInsert(t *testing.T) {
	for name, gen := range map[string]func(i int64) int64{
		"ascending":  func(i int64) int64 { return i },
		"descending": func(i int64) int64 { return 10000 - i },
	} {
		bt := NewBTree()
		for i := int64(0); i < 10000; i++ {
			bt.Put(gen(i), uint64(i))
		}
		if err := bt.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if bt.Len() != 10000 {
			t.Fatalf("%s: Len = %d", name, bt.Len())
		}
	}
}

// A tree that stays within its reserve takes every node from the
// pre-allocated storage: inserts that split leaves and grow a root, and
// deletes, allocate nothing.
func TestBTreeWithinReserveAllocatesNothing(t *testing.T) {
	const n = btreeReserveKeys
	bt := NewBTree()
	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	// AllocsPerRun calls the function once before measuring: the first
	// call fills half the keys, the measured one the other half, so the
	// measured run splits leaves of a populated tree.
	batch := 0
	allocs := testing.AllocsPerRun(1, func() {
		half := keys[batch*n/2 : (batch+1)*n/2]
		batch++
		for i, k := range half {
			bt.Put(k, uint64(i))
		}
		for _, k := range half[:len(half)/4] {
			bt.Delete(k)
		}
	})
	if allocs != 0 {
		t.Fatalf("inserting and deleting within the reserve allocated %.0f times, want 0", allocs)
	}
	if want := n - n/4; bt.Len() != want {
		t.Fatalf("Len = %d, want %d", bt.Len(), want)
	}
	if bt.depth() < 2 {
		t.Fatalf("depth %d: the run never split a leaf", bt.depth())
	}
	if err := bt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}
