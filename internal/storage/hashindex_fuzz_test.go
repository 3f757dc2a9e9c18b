package storage

import "testing"

// FuzzHashIndex32 runs a decoded op sequence against a fresh index and a
// map oracle. The capacity hint is 0-64, so short sequences already grow
// the index and put home buckets in the last state word, where the probe
// walks bytes up to the wrap. ops is read in 3-byte records: an op byte
// whose low two bits pick Upsert, GetOrInsert, Get or MultiGet, then a
// little-endian 16-bit key. A MultiGet looks up op>>2 consecutive keys
// from that key, so its batches cross the 8-key probe group. The seed
// corpus (testdata/fuzz/FuzzHashIndex32) includes the patterns the
// probe's zero-byte trick can flag spuriously: a key's tag just below
// one that differs from it in the lowest bit, at the start of a state
// word and across the wrap, and key 0, which an empty bucket's zeroed
// slot would match, looked up past a key with its tag and an empty
// bucket.
func FuzzHashIndex32(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 0, 1, 2, 0, 2, 1, 0, 6, 3, 0, 35, 0, 0})
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		h := NewHashIndex32(int(capacity % 65))
		ref := map[uint32]uint32{}
		var keys, vals [63]uint32
		var found [63]bool
		for pos := 0; pos+3 <= len(ops); pos += 3 {
			op, key := ops[pos], uint32(ops[pos+1])|uint32(ops[pos+2])<<8
			val := uint32(pos) * 0x9e3779b1
			switch op & 3 {
			case 0:
				h.Upsert(key, val)
				ref[key] = val
			case 1:
				want, hit := ref[key]
				if !hit {
					ref[key], want = val, val
				}
				if got, inserted := h.GetOrInsert(key, val); got != want || inserted == hit {
					t.Fatalf("op %d: GetOrInsert(%d, %d) = %d,%v, want %d,%v", pos/3, key, val, got, inserted, want, !hit)
				}
			case 2:
				want, wantOK := ref[key]
				if got, ok := h.Get(key); got != want || ok != wantOK {
					t.Fatalf("op %d: Get(%d) = %d,%v, want %d,%v", pos/3, key, got, ok, want, wantOK)
				}
			case 3:
				n := int(op >> 2)
				for i := 0; i < n; i++ {
					keys[i] = key + uint32(i)
				}
				h.MultiGet(keys[:n], vals[:n], found[:n])
				for i, k := range keys[:n] {
					want, wantOK := ref[k]
					if vals[i] != want || found[i] != wantOK {
						t.Fatalf("op %d: MultiGet[%d] key %d = %d,%v, want %d,%v", pos/3, i, k, vals[i], found[i], want, wantOK)
					}
				}
			}
			if h.Len() != len(ref) {
				t.Fatalf("op %d: Len = %d, want %d", pos/3, h.Len(), len(ref))
			}
		}
		if !onGrid(len(h.slots)) {
			t.Fatalf("%d buckets, off the grid", len(h.slots))
		}
		seen := 0
		h.Range(func(key, val uint32) {
			if want, ok := ref[key]; !ok || val != want {
				t.Fatalf("Range visited (%d, %d), want %d,%v", key, val, want, ok)
			}
			seen++
		})
		if seen != len(ref) {
			t.Fatalf("Range visited %d entries, want %d", seen, len(ref))
		}
	})
}
