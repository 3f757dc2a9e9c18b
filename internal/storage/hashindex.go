// Package storage provides the in-memory data structures of the
// data-oriented DBMS: an open-addressing hash index (which is, on its
// own, the key-value store: each slot holds a key and its value),
// append-only typed columns and partitioned tables. Each partition of the
// database owns private instances of these structures; the data-oriented
// architecture guarantees single-writer access per partition, so none of
// them carries internal locking.
package storage

const (
	// minBuckets is the smallest bucket count of a hash index.
	minBuckets = 16
	// maxLoadNum/maxLoadDen is the load factor (7/8 triggers growth at
	// 87.5 % occupancy).
	maxLoadNum = 7
	maxLoadDen = 8
)

// Per-bucket states live in a byte array separate from the slots. A full
// bucket's state carries the top bit plus seven tag bits from the key's
// hash, so a probe walk filters on the tiny cache-resident state array and
// fetches the slot — the DRAM access — only when the tag matches (one
// false positive per 128 full buckets). Unsuccessful lookups, the common
// case under uniform random probing, usually finish without touching slot
// memory at all.
const (
	slotEmpty   byte = 0
	slotFullBit byte = 0x80
)

// HashIndex32 is an open-addressing (linear probing) hash index mapping
// 4-byte keys to 4-byte values, packed into one uint64 per bucket. It is
// every indexed point access: the KV store, whose values sit in the
// slots, and the key-indexed tables, whose values are row numbers.
// Entries are never removed, so a bucket is either empty or full. The
// zero value is not usable; call NewHashIndex32.
type HashIndex32 struct {
	slots  []uint64 // key<<32 | val; meaningful only where states marks full
	states []byte
	live   int // full slots
}

// NewHashIndex32 returns an index pre-sized for the given number of
// entries.
func NewHashIndex32(capacity int) *HashIndex32 {
	n := minBuckets
	for n*maxLoadDen < capacity*maxLoadDen*maxLoadDen/maxLoadNum && n < 1<<62 {
		n *= 2
	}
	return &HashIndex32{slots: make([]uint64, n), states: make([]byte, n)}
}

// Len returns the number of live entries.
func (h *HashIndex32) Len() int { return h.live }

// hashKey mixes the key (fibonacci hashing over a splitmix round).
func hashKey(k uint64) uint64 {
	k += 0x9e3779b97f4a7c15
	k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9
	k = (k ^ (k >> 27)) * 0x94d049bb133111eb
	return k ^ (k >> 31)
}

// tagOf derives a full-bucket state byte from a hash: the full bit plus
// the hash's top seven bits (disjoint from the index bits).
func tagOf(hash uint64) byte { return slotFullBit | byte(hash>>57) }

// pack combines a key and a value into one slot word.
func pack(key, val uint32) uint64 { return uint64(key)<<32 | uint64(val) }

// GetOrInsert returns the value stored under key, inserting val first if
// the key is absent. It reports the resulting value and whether an insert
// happened. One probe chain serves both outcomes, so a table's duplicate
// check costs no second walk.
func (h *HashIndex32) GetOrInsert(key, val uint32) (uint32, bool) { return h.store(key, val, false) }

// Upsert stores val under key: a present key's slot is overwritten in
// place, and an absent key is inserted as by GetOrInsert. It is the KV
// store's put, whose value lives in the slot beside its key.
func (h *HashIndex32) Upsert(key, val uint32) { h.store(key, val, true) }

// store walks key's probe chain once. A present key keeps its value, or
// takes val when overwrite is set; an absent key is inserted with val,
// growing the index first (and re-probing) when the insert would pass the
// 7/8 load factor. It returns the key's resulting value and whether an
// insert happened.
func (h *HashIndex32) store(key, val uint32, overwrite bool) (uint32, bool) {
	slots, states := h.slots, h.states
	mask := uint64(len(slots) - 1)
	hash := hashKey(uint64(key))
	tag := tagOf(hash)
	i := hash & mask
	for {
		switch s := states[i]; s {
		case slotEmpty:
			if (h.live+1)*maxLoadDen > len(slots)*maxLoadNum {
				h.grow()
				h.put(key, val)
				return val, true
			}
			slots[i] = pack(key, val)
			states[i] = tag
			h.live++
			return val, true
		case tag:
			if uint32(slots[i]>>32) == key {
				if overwrite {
					slots[i] = pack(key, val)
				}
				return uint32(slots[i]), false
			}
		}
		i = (i + 1) & mask
	}
}

// put writes a key known to be absent into the first empty bucket of its
// probe chain: grow's rehash and the insert that follows a grow.
func (h *HashIndex32) put(key, val uint32) {
	mask := uint64(len(h.slots) - 1)
	hash := hashKey(uint64(key))
	i := hash & mask
	for h.states[i] != slotEmpty {
		i = (i + 1) & mask
	}
	h.slots[i] = pack(key, val)
	h.states[i] = tagOf(hash)
	h.live++
}

// Get looks up a key.
func (h *HashIndex32) Get(key uint32) (uint32, bool) {
	slots, states := h.slots, h.states
	mask := uint64(len(slots) - 1)
	hash := hashKey(uint64(key))
	tag := tagOf(hash)
	i := hash & mask
	for {
		s := states[i]
		if s == tag {
			if uint32(slots[i]>>32) == key {
				return uint32(slots[i]), true
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
func (h *HashIndex32) MultiGet(keys []uint32, vals []uint32, found []bool) {
	slots, states := h.slots, h.states
	mask := uint64(len(slots) - 1)
	for base := 0; base < len(keys); base += multiGetGroup {
		n := len(keys) - base
		if n > multiGetGroup {
			n = multiGetGroup
		}
		var cur [multiGetGroup]uint64
		var tags [multiGetGroup]byte
		var first [multiGetGroup]byte
		for j := 0; j < n; j++ {
			hash := hashKey(uint64(keys[base+j]))
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
					if uint32(slots[i]>>32) == key {
						vals[base+j], found[base+j] = uint32(slots[i]), true
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

// grow doubles the bucket array.
func (h *HashIndex32) grow() {
	old, oldStates := h.slots, h.states
	h.slots = make([]uint64, 2*len(old)) //ecllint:allow hotpath the index grows with its entries; each doubling is amortized over the inserts since the last one
	h.states = make([]byte, 2*len(oldStates))
	h.live = 0
	for i, s := range oldStates {
		if s&slotFullBit != 0 {
			h.put(uint32(old[i]>>32), uint32(old[i]))
		}
	}
}

// Range calls fn for every entry, in bucket order.
func (h *HashIndex32) Range(fn func(key, val uint32)) {
	for i, s := range h.states {
		if s&slotFullBit != 0 {
			fn(uint32(h.slots[i]>>32), uint32(h.slots[i]))
		}
	}
}

// MemBytes estimates the index's memory footprint: an 8-byte slot and a
// state byte per bucket.
func (h *HashIndex32) MemBytes() int {
	return len(h.slots)*8 + len(h.states)
}
