package storage

// HashIndex32 is the KV store's specialization of HashIndex: 4-byte keys
// mapped to row identifiers below 2^32, packed into one uint64 per
// bucket. Halving the bucket size halves both the preload's allocation
// volume and the random-access footprint of probes — the structure the
// paper's kv-indexed workload hammers — while keeping the probing scheme
// (linear probing over a separate tag-byte state array) identical to
// HashIndex. The zero value is not usable; call NewHashIndex32.
type HashIndex32 struct {
	slots  []uint64 // key<<32 | val; meaningful only where states marks full
	states []byte
	live   int // full slots
	used   int // full + tombstone slots
}

// NewHashIndex32 returns an index pre-sized for the given number of
// entries, with the same occupancy-driven bucket count as NewHashIndex.
func NewHashIndex32(capacity int) *HashIndex32 {
	n := minBuckets
	for n*maxLoadDen < capacity*maxLoadDen*maxLoadDen/maxLoadNum && n < 1<<62 {
		n *= 2
	}
	return &HashIndex32{slots: make([]uint64, n), states: make([]byte, n)}
}

// Len returns the number of live entries.
func (h *HashIndex32) Len() int { return h.live }

// pack combines a key and a value into one slot word.
func pack(key, val uint32) uint64 { return uint64(key)<<32 | uint64(val) }

// GetOrInsert returns the value stored under key, inserting val first if
// the key is absent. Semantics match HashIndex.GetOrInsert: one probe
// chain serves both outcomes, the growth check runs only once an insert
// is decided, and the insert re-probes after a grow as a fresh put would.
func (h *HashIndex32) GetOrInsert(key, val uint32) (uint32, bool) {
	slots, states := h.slots, h.states
	mask := uint64(len(slots) - 1)
	hash := hashKey(uint64(key))
	tag := tagOf(hash)
	i := hash & mask
	firstTomb := -1
	for {
		switch s := states[i]; {
		case s == slotEmpty:
			if (h.used+1)*maxLoadDen > len(slots)*maxLoadNum {
				h.grow()
				h.put(key, val)
				return val, true
			}
			if firstTomb >= 0 {
				i = uint64(firstTomb)
			} else {
				h.used++
			}
			slots[i] = pack(key, val)
			states[i] = tag
			h.live++
			return val, true
		case s == slotTombstone:
			if firstTomb < 0 {
				firstTomb = int(i)
			}
		case s == tag:
			if uint32(slots[i]>>32) == key {
				return uint32(slots[i]), false
			}
		}
		i = (i + 1) & mask
	}
}

// put inserts or overwrites a key (the post-grow insert path).
func (h *HashIndex32) put(key, val uint32) {
	slots, states := h.slots, h.states
	mask := uint64(len(slots) - 1)
	hash := hashKey(uint64(key))
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
			slots[i] = pack(key, val)
			states[i] = tag
			h.live++
			return
		case s == slotTombstone:
			if firstTomb < 0 {
				firstTomb = int(i)
			}
		case s == tag:
			if uint32(slots[i]>>32) == key {
				slots[i] = pack(key, val)
				return
			}
		}
		i = (i + 1) & mask
	}
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

// MultiGet looks up a batch of keys, filling vals[i] and found[i] exactly
// as Get(keys[i]) would, with HashIndex.MultiGet's group probing: the
// first pass hashes every key and touches every chain's first state byte
// so the group's cache misses overlap; the second pass walks each chain
// over warm lines. All three slices must have the same length.
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

// grow doubles the bucket array (also discarding tombstones).
func (h *HashIndex32) grow() {
	old, oldStates := h.slots, h.states
	h.slots = make([]uint64, 2*len(old)) //ecllint:allow hotpath the index grows with its entries; each doubling is amortized over the inserts since the last one
	h.states = make([]byte, 2*len(oldStates))
	h.live, h.used = 0, 0
	for i, s := range oldStates {
		if s&slotFullBit != 0 {
			h.put(uint32(old[i]>>32), uint32(old[i]))
		}
	}
}

// MemBytes estimates the index's memory footprint.
func (h *HashIndex32) MemBytes() int {
	return len(h.slots)*8 + len(h.states)
}
