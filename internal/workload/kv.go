package workload

import (
	"math/rand"

	"ecldb/internal/perfmodel"
	"ecldb/internal/storage"
)

// KV parameters. The paper's custom key-value store benchmark uses 4-byte
// uniformly distributed keys and values; the indexed variant is memory
// latency-bound (hash index probes) and the non-indexed variant is
// modelled as memory bandwidth-bound (column scans over the key column).
const (
	// kvRowsPerPartition is the number of keys preloaded per partition.
	kvRowsPerPartition = 65536
	// kvGetFraction is the read share of the query mix.
	kvGetFraction = 0.8
	// kvMultiGet is the batch size of one client request: the store
	// exposes a multi-get/multi-put API, so one query carries a batch
	// of point accesses against one partition.
	kvMultiGet = 512
	// kvIndexedAccessInstr is the modeled cost of one indexed point
	// access (hash probe, row fetch, request handling).
	kvIndexedAccessInstr = 2400
	// kvScanInstrPerRow is the modeled per-row cost of the non-indexed
	// variant's key-column scan (key compare plus value
	// reconstruction); one scan answers the whole batch.
	kvScanInstrPerRow = 12.0
	// kvExecSample bounds the real sampled work per operation.
	kvExecSample = 8
)

// KV is the custom key-value store benchmark.
type KV struct {
	indexed bool
}

// NewKV returns the benchmark in the chosen access-path variant.
func NewKV(indexed bool) *KV { return &KV{indexed: indexed} }

// Name implements Workload.
func (k *KV) Name() string {
	if k.indexed {
		return "kv-indexed"
	}
	return "kv-nonindexed"
}

// Indexed implements Workload.
func (k *KV) Indexed() bool { return k.indexed }

// Characteristics implements Workload.
func (k *KV) Characteristics() perfmodel.Characteristics {
	if k.indexed {
		// Dependent hash probes: memory-latency-bound, SMT hides
		// stalls, clocks beyond medium buy little.
		return perfmodel.Characteristics{Name: k.Name(), BaseIPC: 2.0, BytesPerInstr: 0.2,
			MissesPerKiloInstr: 0.8, HTYield: 1.5, DynScale: 0.8}
	}
	// Pure column scans: memory-bandwidth-bound (resembles the paper's
	// Figure 10a profile).
	return perfmodel.Characteristics{Name: k.Name(), BaseIPC: 2.0, BytesPerInstr: 4.0,
		HTYield: 1.1, DynScale: 0.85}
}

// NewPartition implements Workload. A partition's state is its store, one
// *storage.HashIndex32 whose slots hold each key with its value. Both
// variants build the same hash-indexed store for sampled execution speed;
// the *modeled* cost and characteristics encode the access-path
// difference at full scale.
func (k *KV) NewPartition(partition int, rng *rand.Rand) PartitionState {
	store := storage.NewHashIndex32(kvRowsPerPartition)
	for i := 0; i < kvRowsPerPartition; i++ {
		key := rng.Uint32()
		store.Upsert(key, rng.Uint32())
	}
	return store
}

// AppendQuery implements Workload: one multi-get/multi-put batch against
// a uniformly chosen partition. The indexed variant probes the hash index
// per key; the non-indexed variant answers the batch with a column scan.
func (k *KV) AppendQuery(dst []Op, rng *rand.Rand, parts int) []Op {
	p := rng.Intn(parts)
	key := rng.Uint32()
	isGet := rng.Float64() < kvGetFraction
	instr := float64(kvIndexedAccessInstr * kvMultiGet)
	if !k.indexed {
		instr = kvScanInstrPerRow * kvRowsPerPartition
	}
	fn := execKVPut
	if isGet {
		fn = execKVGet
	}
	//ecllint:allow hotpath appends into the caller's reused op scratch; grows only until it holds the largest query
	return append(dst, Op{Partition: p, Instr: instr, ExecFn: fn, ExecCtx: uint64(key)})
}

// execKVGet performs the sampled read work of one multi-get batch: the
// store overlaps the probes' cache misses instead of serializing
// kvExecSample dependent lookups.
func execKVGet(st PartitionState, _ *rand.Rand, ctx uint64) {
	key := uint32(ctx)
	var keys, vals [kvExecSample]uint32
	var hit [kvExecSample]bool
	for i := range keys {
		keys[i] = key + uint32(i)
	}
	st.(*storage.HashIndex32).MultiGet(keys[:], vals[:], hit[:])
}

// execKVPut performs the sampled write work of one multi-put batch.
func execKVPut(st PartitionState, _ *rand.Rand, ctx uint64) {
	key := uint32(ctx)
	st.(*storage.HashIndex32).Upsert(key, key^0x5a5a5a5a)
}
