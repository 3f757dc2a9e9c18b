// Package storage provides the in-memory data structures of the
// data-oriented DBMS: an open-addressing hash index (which is, on its
// own, the key-value store: each slot holds a key and its value),
// append-only typed columns and partitioned tables. Each partition of the
// database owns private instances of these structures; the data-oriented
// architecture guarantees single-writer access per partition, so none of
// them carries internal locking.
package storage

import (
	"encoding/binary"
	"math/bits"
)

const (
	// minBuckets is the smallest bucket count of a hash index.
	minBuckets = 16
	// maxLoadNum/maxLoadDen is the load factor (7/8 triggers growth at
	// 87.5 % occupancy).
	maxLoadNum = 7
	maxLoadDen = 8
)

// Per-bucket states live in a byte array separate from the slots. A full
// bucket's state is a tag of 2-255 from the key's hash (tagOf), so a
// probe walk filters on the small state array and fetches the slot — the
// DRAM access — only when the tag matches (about one false positive per
// 250 full buckets). Unsuccessful lookups, the common case under uniform
// random probing, usually finish without touching slot memory at all.
const slotEmpty byte = 0

// A probe reads eight state bytes as one little-endian word. lsbs and
// msbs hold the low and the high bit of every byte of such a word.
const (
	lsbs = 0x0101010101010101
	msbs = 0x8080808080808080
)

// HashIndex32 is an open-addressing (linear probing) hash index mapping
// 4-byte keys to 4-byte values, packed into one uint64 per bucket. It is
// every indexed point access: the KV store, whose values sit in the
// slots, and the key-indexed tables, whose values are row numbers.
// Entries are never removed, so a bucket is either empty or full. The
// zero value is not usable; call NewHashIndex32.
//
// Bucket counts lie on the grid {2^k, 3·2^(k−1)}, at least minBuckets,
// so a sized index runs at a load between 7/12 and 7/8, where power-of-two
// counts would leave it as low as 7/16. Every grid size is a multiple of
// eight, and growth doubles, which stays on the grid.
type HashIndex32 struct {
	slots  []uint64 // key<<32 | val; meaningful only where states marks full
	states []byte
	live   int // full slots
}

// NewHashIndex32 returns an index pre-sized for the given number of
// entries: the smallest grid bucket count whose 7/8 load admits them.
func NewHashIndex32(capacity int) *HashIndex32 {
	n := minBuckets
	for n*maxLoadNum < capacity*maxLoadDen && n < 1<<61 {
		if n&(n-1) == 0 {
			n = n / 2 * 3 // 2^k -> 3·2^(k-1)
		} else {
			n = n / 3 * 4 // 3·2^(k-1) -> 2^(k+1)
		}
	}
	return &HashIndex32{slots: make([]uint64, n), states: make([]byte, n)}
}

// Len returns the number of live entries.
func (h *HashIndex32) Len() int { return h.live }

// hashKey mixes a key by fibonacci hashing: one multiply by 2^64/φ,
// whose high bits spread consecutive keys evenly over the buckets.
func hashKey(key uint32) uint64 { return uint64(key) * 0x9e3779b97f4a7c15 }

// home maps a hash to its home bucket by multiply-high (Lemire's
// fastrange), which spreads the hash's high bits over any bucket count.
func (h *HashIndex32) home(hash uint64) int {
	hi, _ := bits.Mul64(hash, uint64(len(h.states)))
	return int(hi)
}

// tagOf derives a full-bucket state byte from a hash: bits 32-39, which
// depend on every bit of the key and lie below the high bits home uses
// up to 2^24 buckets, with 0 and 1 taken as 2. A tag is never 0, the
// empty state, nor 1, so the borrow trick never flags an empty bucket as
// a tag match (its byte XOR the tag is the tag) nor a full one as empty.
func tagOf(hash uint64) byte {
	if t := byte(hash >> 32); t > 1 {
		return t
	}
	return 2
}

// pack combines a key and a value into one slot word.
func pack(key, val uint32) uint64 { return uint64(key)<<32 | uint64(val) }

// stateWord returns the states of buckets i to i+7 as a little-endian
// word and the mask of its bytes that lie in the array: all eight, or,
// within 7 buckets of the end, those up to it.
func stateWord(states []byte, i int) (w, valid uint64) {
	n := len(states)
	if i <= n-8 {
		return binary.LittleEndian.Uint64(states[i:]), ^uint64(0)
	}
	shift := uint(8 * (i - (n - 8)))
	return binary.LittleEndian.Uint64(states[n-8:]) >> shift, ^uint64(0) >> shift
}

// zeroBytes flags the zero bytes of v among those valid masks, setting
// the high bit of each, by the borrow trick. The lowest flag is exact; a
// byte just above a true zero is flagged too when it is 1.
func zeroBytes(v, valid uint64) uint64 { return (v - lsbs) &^ v & msbs & valid }

// find walks key's probe chain and returns the bucket holding key (true)
// or the chain's first empty bucket (false). It reads eight states per
// step: the tag candidates are the zero bytes of the state word XOR the
// tag in every byte, and the empty buckets are the zero bytes of the
// word. Every candidate is a full bucket (see tagOf); a spurious one, a
// tag that differs from key's in the lowest bit, and one past the first
// empty bucket fail the key comparison. A word that ends at the array's
// end is followed by the word at bucket 0.
func (h *HashIndex32) find(key uint32) (int, bool) {
	hash := hashKey(key)
	tags := uint64(tagOf(hash)) * lsbs
	i := h.home(hash)
	for {
		w, valid := stateWord(h.states, i)
		for match := zeroBytes(w^tags, valid); match != 0; match &= match - 1 {
			j := i + bits.TrailingZeros64(match)>>3
			if uint32(h.slots[j]>>32) == key {
				return j, true
			}
		}
		if empty := zeroBytes(w, valid); empty != 0 {
			return i + bits.TrailingZeros64(empty)>>3, false
		}
		if i = min(i+8, len(h.states)); i == len(h.states) {
			i = 0
		}
	}
}

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
	i, ok := h.find(key)
	if ok {
		if overwrite {
			h.slots[i] = pack(key, val)
		}
		return uint32(h.slots[i]), false
	}
	if (h.live+1)*maxLoadDen > len(h.slots)*maxLoadNum {
		h.grow()
		i, _ = h.find(key)
	}
	h.slots[i] = pack(key, val)
	h.states[i] = tagOf(hashKey(key))
	h.live++
	return val, true
}

// Get looks up a key. It first tries the home bucket with a plain branch
// on its state, so where hits are the rule, as in a table lookup, the
// predicted branch issues the slot load while the state byte is still in
// flight and the two cache misses overlap; find, whose slot addresses
// depend on the states it reads, walks the rest.
func (h *HashIndex32) Get(key uint32) (uint32, bool) {
	hash := hashKey(key)
	i := h.home(hash)
	if h.states[i] == tagOf(hash) && uint32(h.slots[i]>>32) == key {
		return uint32(h.slots[i]), true
	}
	i, ok := h.find(key)
	if !ok {
		return 0, false
	}
	return uint32(h.slots[i]), true
}

// multiGetGroup is the number of lookups MultiGet keeps in flight at
// once. Eight independent probe chains saturate the memory-level
// parallelism of current cores.
const multiGetGroup = 8

// MultiGet looks up a batch of keys, filling vals[i] and found[i] exactly
// as Get(keys[i]) would. The first pass computes every hash and reads
// every chain's first state word without branching on the loaded data,
// so the group's cache misses overlap (group probing / software
// pipelining) instead of serializing behind data-dependent branches; the
// second pass answers in place a key whose first word holds an empty
// bucket and no tag match before it, the common miss, and walks the
// other chains from their words. All three slices must have the same length.
func (h *HashIndex32) MultiGet(keys []uint32, vals []uint32, found []bool) {
	for base := 0; base < len(keys); base += multiGetGroup {
		n := min(len(keys)-base, multiGetGroup)
		var hashes, words, valids [multiGetGroup]uint64
		for j := 0; j < n; j++ {
			hashes[j] = hashKey(keys[base+j])
			words[j], valids[j] = stateWord(h.states, h.home(hashes[j]))
		}
		for j := 0; j < n; j++ {
			vals[base+j], found[base+j] = 0, false
			empty := zeroBytes(words[j], valids[j])
			match := zeroBytes(words[j]^uint64(tagOf(hashes[j]))*lsbs, valids[j]) & (empty&-empty - 1)
			if empty != 0 && match == 0 {
				continue
			}
			if i, ok := h.find(keys[base+j]); ok {
				vals[base+j], found[base+j] = uint32(h.slots[i]), true
			}
		}
	}
}

// grow doubles the bucket array and rehashes every entry into the first
// empty bucket of its new chain; a full state byte is the entry's tag.
func (h *HashIndex32) grow() {
	old, oldStates := h.slots, h.states
	h.slots = make([]uint64, 2*len(old)) //ecllint:allow hotpath the index grows with its entries; each doubling is amortized over the inserts since the last one
	h.states = make([]byte, 2*len(oldStates))
	for i, s := range oldStates {
		if s != slotEmpty {
			j, _ := h.find(uint32(old[i] >> 32))
			h.slots[j], h.states[j] = old[i], s
		}
	}
}

// Range calls fn for every entry, in bucket order.
func (h *HashIndex32) Range(fn func(key, val uint32)) {
	for i, s := range h.states {
		if s != slotEmpty {
			fn(uint32(h.slots[i]>>32), uint32(h.slots[i]))
		}
	}
}

// MemBytes estimates the index's memory footprint: an 8-byte slot and a
// state byte per bucket.
func (h *HashIndex32) MemBytes() int {
	return len(h.slots)*8 + len(h.states)
}
