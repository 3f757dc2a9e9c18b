// Package storage provides the in-memory data structures of the
// data-oriented DBMS: an open-addressing hash index, append-only typed
// columns, partitioned tables, and a key-value store. Each partition of
// the database owns private instances of these structures; the
// data-oriented architecture guarantees single-writer access per
// partition, so none of them carries internal locking.
package storage

import "fmt"

const (
	// minBuckets is the smallest bucket count of a hash index.
	minBuckets = 16
	// maxLoadNum/maxLoadDen is the load factor (7/8 triggers growth at
	// 87.5 % occupancy including tombstones).
	maxLoadNum = 7
	maxLoadDen = 8
)

// Per-bucket states live in a byte array separate from the key/value
// pairs. A full bucket's state carries the top bit plus seven tag bits
// from the key's hash, so a probe walk filters on the tiny cache-resident
// state array and fetches the 16-byte pair — the DRAM access — only when
// the tag matches (one false positive per 128 full buckets). Unsuccessful
// lookups, the common case under uniform random probing, usually finish
// without touching pair memory at all.
const (
	slotEmpty     byte = 0
	slotTombstone byte = 1
	slotFullBit   byte = 0x80
)

// hpair is one bucket's key and value.
type hpair struct {
	key, val uint64
}

// HashIndex is an open-addressing (linear probing) hash table mapping
// uint64 keys to uint64 values (typically row identifiers). The zero
// value is not usable; call NewHashIndex.
type HashIndex struct {
	pairs  []hpair
	states []byte
	live   int // full slots
	used   int // full + tombstone slots
}

// NewHashIndex returns an index pre-sized for the given number of entries.
func NewHashIndex(capacity int) *HashIndex {
	n := minBuckets
	for n*maxLoadDen < capacity*maxLoadDen*maxLoadDen/maxLoadNum && n < 1<<62 {
		n *= 2
	}
	return &HashIndex{pairs: make([]hpair, n), states: make([]byte, n)}
}

// Len returns the number of live entries.
func (h *HashIndex) Len() int { return h.live }

// hash mixes the key (fibonacci hashing over a splitmix round).
func hashKey(k uint64) uint64 {
	k += 0x9e3779b97f4a7c15
	k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9
	k = (k ^ (k >> 27)) * 0x94d049bb133111eb
	return k ^ (k >> 31)
}

// tagOf derives a full-bucket state byte from a hash: the full bit plus
// the hash's top seven bits (disjoint from the index bits).
func tagOf(hash uint64) byte { return slotFullBit | byte(hash>>57) }

// Put inserts or overwrites a key. It reports whether the key was new.
func (h *HashIndex) Put(key, val uint64) bool {
	if (h.used+1)*maxLoadDen > len(h.pairs)*maxLoadNum {
		h.grow()
	}
	pairs, states := h.pairs, h.states
	mask := uint64(len(pairs) - 1)
	hash := hashKey(key)
	tag := tagOf(hash)
	i := hash & mask
	firstTomb := -1
	for {
		switch s := states[i]; {
		case s == slotEmpty:
			if firstTomb >= 0 {
				i = uint64(firstTomb)
			} else {
				h.used++
			}
			pairs[i] = hpair{key: key, val: val}
			states[i] = tag
			h.live++
			return true
		case s == slotTombstone:
			if firstTomb < 0 {
				firstTomb = int(i)
			}
		case s == tag:
			if pairs[i].key == key {
				pairs[i].val = val
				return false
			}
		}
		i = (i + 1) & mask
	}
}

// GetOrInsert returns the value stored under key, inserting val first if
// the key is absent. It reports the resulting value and whether an insert
// happened. One probe chain serves both outcomes — callers that would
// otherwise Get and then Put (the KV store's upsert) save a full second
// walk. The resulting table layout is identical to Get-followed-by-Put:
// the growth check runs only once an insert is decided, with the same
// occupancy predicate Put uses, and the insert re-probes after a grow
// exactly as a fresh Put would.
func (h *HashIndex) GetOrInsert(key, val uint64) (uint64, bool) {
	pairs, states := h.pairs, h.states
	mask := uint64(len(pairs) - 1)
	hash := hashKey(key)
	tag := tagOf(hash)
	i := hash & mask
	firstTomb := -1
	for {
		switch s := states[i]; {
		case s == slotEmpty:
			if (h.used+1)*maxLoadDen > len(pairs)*maxLoadNum {
				h.grow()
				h.Put(key, val)
				return val, true
			}
			if firstTomb >= 0 {
				i = uint64(firstTomb)
			} else {
				h.used++
			}
			pairs[i] = hpair{key: key, val: val}
			states[i] = tag
			h.live++
			return val, true
		case s == slotTombstone:
			if firstTomb < 0 {
				firstTomb = int(i)
			}
		case s == tag:
			if pairs[i].key == key {
				return pairs[i].val, false
			}
		}
		i = (i + 1) & mask
	}
}

// Get looks up a key.
func (h *HashIndex) Get(key uint64) (uint64, bool) {
	pairs, states := h.pairs, h.states
	mask := uint64(len(pairs) - 1)
	hash := hashKey(key)
	tag := tagOf(hash)
	i := hash & mask
	for {
		s := states[i]
		if s == tag {
			if pairs[i].key == key {
				return pairs[i].val, true
			}
		} else if s == slotEmpty {
			return 0, false
		}
		i = (i + 1) & mask
	}
}

// multiGetGroup is the number of lookups MultiGet keeps in flight at
// once. Eight independent probe chains saturate the memory-level
// parallelism of current cores.
const multiGetGroup = 8

// MultiGet looks up a batch of keys, filling vals[i] and found[i] exactly
// as Get(keys[i]) would. The first pass computes every hash and touches
// every chain's first state byte without branching on the loaded data, so
// the group's cache misses overlap (group probing / software pipelining)
// instead of serializing behind data-dependent branches; the second pass
// then walks each chain over warm state lines. All three slices must have
// the same length.
func (h *HashIndex) MultiGet(keys []uint64, vals []uint64, found []bool) {
	pairs, states := h.pairs, h.states
	mask := uint64(len(pairs) - 1)
	for base := 0; base < len(keys); base += multiGetGroup {
		n := len(keys) - base
		if n > multiGetGroup {
			n = multiGetGroup
		}
		var cur [multiGetGroup]uint64
		var tags [multiGetGroup]byte
		var first [multiGetGroup]byte
		for j := 0; j < n; j++ {
			hash := hashKey(keys[base+j])
			i := hash & mask
			cur[j] = i
			tags[j] = tagOf(hash)
			first[j] = states[i]
		}
		for j := 0; j < n; j++ {
			key := keys[base+j]
			tag := tags[j]
			s := first[j]
			i := cur[j]
			for {
				if s == tag {
					if pairs[i].key == key {
						vals[base+j], found[base+j] = pairs[i].val, true
						break
					}
				} else if s == slotEmpty {
					vals[base+j], found[base+j] = 0, false
					break
				}
				i = (i + 1) & mask
				s = states[i]
			}
		}
	}
}

// Delete removes a key, reporting whether it was present.
func (h *HashIndex) Delete(key uint64) bool {
	pairs, states := h.pairs, h.states
	mask := uint64(len(pairs) - 1)
	hash := hashKey(key)
	tag := tagOf(hash)
	i := hash & mask
	for {
		s := states[i]
		if s == tag {
			if pairs[i].key == key {
				states[i] = slotTombstone
				h.live--
				return true
			}
		} else if s == slotEmpty {
			return false
		}
		i = (i + 1) & mask
	}
}

// Range calls fn for every live entry until fn returns false. Iteration
// order is unspecified. The index must not be mutated during Range.
func (h *HashIndex) Range(fn func(key, val uint64) bool) {
	for i, s := range h.states {
		if s&slotFullBit != 0 {
			if !fn(h.pairs[i].key, h.pairs[i].val) {
				return
			}
		}
	}
}

// grow doubles the bucket array (also discarding tombstones).
func (h *HashIndex) grow() {
	oldPairs, oldStates := h.pairs, h.states
	n := len(oldPairs) * 2
	if h.live*maxLoadDen < len(oldPairs)*maxLoadNum/2 {
		n = len(oldPairs) // tombstone-heavy: rehash in place size
	}
	h.pairs = make([]hpair, n) //ecllint:allow hotpath the index grows with its entries; each doubling is amortized over the inserts since the last one
	h.states = make([]byte, n)
	h.live, h.used = 0, 0
	for i, s := range oldStates {
		if s&slotFullBit != 0 {
			h.Put(oldPairs[i].key, oldPairs[i].val)
		}
	}
}

// MemBytes estimates the index's memory footprint (the modeled 17 bytes
// per bucket: two words plus a state byte).
func (h *HashIndex) MemBytes() int {
	return len(h.pairs)*16 + len(h.states)
}

// String summarizes the index for debugging.
func (h *HashIndex) String() string {
	return fmt.Sprintf("HashIndex{live=%d, buckets=%d}", h.live, len(h.pairs))
}
