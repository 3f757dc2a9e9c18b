package storage

import "fmt"

// KVStore is one partition's share of the paper's custom key-value store
// benchmark: 4-byte keys and values, uniformly distributed. A HashIndex32
// maps each key to its row, and the values sit densely in row order in a
// 4-byte array. The index slot already packs the key, so there is no key
// column. The benchmark's non-indexed variant differs from the indexed one
// only in its modelled cost (workload.KV), so the store has one access
// path.
type KVStore struct {
	index  *HashIndex32
	values []uint32
}

// NewKVStore creates a store pre-sized for capacity keys. The value array
// gets modest headroom beyond capacity: a store preloaded exactly to its
// capacity hint would otherwise copy the array on the first runtime
// insert.
func NewKVStore(capacity int) *KVStore {
	return &KVStore{
		index:  NewHashIndex32(capacity),
		values: make([]uint32, 0, capacity+capacity/8),
	}
}

// Len returns the number of live keys.
func (kv *KVStore) Len() int { return kv.index.Len() }

// Put stores a key-value pair. Existing keys are overwritten. One probe
// chain serves both outcomes: the row an insert would occupy is known
// before appending (values append densely), so the index upsert and the
// existence check share one walk.
func (kv *KVStore) Put(key, value uint32) {
	row := uint32(len(kv.values))
	if got, inserted := kv.index.GetOrInsert(key, row); inserted {
		//ecllint:allow hotpath the value array grows by the inserted row; doubling amortizes the copies
		kv.values = append(kv.values, value)
	} else {
		kv.values[got] = value
	}
}

// PutBatch stores a batch of pairs, equivalent to calling Put for each
// pair in order, with the value slice header kept in a local.
func (kv *KVStore) PutBatch(keys, values []uint32) {
	vd := kv.values
	for i := range keys {
		row := uint32(len(vd))
		if got, inserted := kv.index.GetOrInsert(keys[i], row); inserted {
			vd = append(vd, values[i])
		} else {
			vd[got] = values[i]
		}
	}
	kv.values = vd
}

// Get retrieves the value for a key.
func (kv *KVStore) Get(key uint32) (uint32, bool) {
	row, ok := kv.index.Get(key)
	if !ok {
		return 0, false
	}
	return kv.values[row], true
}

// MultiGet retrieves a batch of keys (the store's client API is a
// multi-get — one request carries many point accesses). vals[i] and
// found[i] are set exactly as by Get(keys[i]); all slices must have the
// same length. HashIndex32.MultiGet overlaps the probes' cache misses;
// the rows it returns are then replaced by their values in place.
func (kv *KVStore) MultiGet(keys []uint32, vals []uint32, found []bool) {
	kv.index.MultiGet(keys, vals, found)
	for i, hit := range found {
		if hit {
			vals[i] = kv.values[vals[i]]
		}
	}
}

// MemBytes estimates the store's footprint.
func (kv *KVStore) MemBytes() int { return cap(kv.values)*4 + kv.index.MemBytes() }

// String summarizes the store.
func (kv *KVStore) String() string { return fmt.Sprintf("KVStore{keys=%d}", kv.Len()) }
