package workload

import (
	"fmt"
	"math/rand"

	"ecldb/internal/perfmodel"
	"ecldb/internal/storage"
)

// YCSB-style mixes over the key-value store. The paper evaluates a custom
// KV benchmark; the YCSB core mixes are the community-standard variants
// of the same access pattern and slot directly into the indexed KV
// machinery (point reads/updates over uniformly distributed keys).
//
//	A: 50 % read / 50 % update   (update heavy)
//	B: 95 % read /  5 % update   (read mostly)
//	C: 100 % read                (read only)
type YCSB struct {
	name     string
	readFrac float64
}

// NewYCSB returns workload A, B, or C.
func NewYCSB(mix byte) (*YCSB, error) {
	switch mix {
	case 'A', 'a':
		return &YCSB{name: "ycsb-A", readFrac: 0.5}, nil
	case 'B', 'b':
		return &YCSB{name: "ycsb-B", readFrac: 0.95}, nil
	case 'C', 'c':
		return &YCSB{name: "ycsb-C", readFrac: 1.0}, nil
	}
	return nil, fmt.Errorf("workload: unknown YCSB mix %q (want A, B, or C)", mix)
}

// Name implements Workload.
func (y *YCSB) Name() string { return y.name }

// Indexed implements Workload: YCSB always runs against the hash index.
func (y *YCSB) Indexed() bool { return true }

// Characteristics implements Workload: like the indexed KV store, with a
// write share that raises the traffic (dirty cacheline writebacks) and
// lowers SMT yield slightly (store buffer pressure).
func (y *YCSB) Characteristics() perfmodel.Characteristics {
	writeFrac := 1 - y.readFrac
	return perfmodel.Characteristics{
		Name:               y.Name(),
		BaseIPC:            2.0,
		BytesPerInstr:      0.2 + 0.6*writeFrac,
		MissesPerKiloInstr: 0.8 + 0.6*writeFrac,
		HTYield:            1.5 - 0.1*writeFrac,
		DynScale:           0.8 + 0.1*writeFrac,
	}
}

// NewPartition implements Workload: the same preloaded store as the KV
// benchmark.
func (y *YCSB) NewPartition(partition int, rng *rand.Rand) PartitionState {
	return NewKV(true).NewPartition(partition, rng)
}

// AppendQuery implements Workload: one batch of point operations with the
// mix's read share.
func (y *YCSB) AppendQuery(dst []Op, rng *rand.Rand, parts int) []Op {
	p := rng.Intn(parts)
	key := rng.Uint32()
	isRead := rng.Float64() < y.readFrac
	fn := execYCSBWrite
	if isRead {
		fn = execYCSBRead
	}
	//ecllint:allow hotpath appends into the caller's reused op scratch; grows only until it holds the largest query
	return append(dst, Op{
		Partition: p,
		Instr:     float64(kvIndexedAccessInstr * kvMultiGet),
		ExecFn:    fn,
		ExecCtx:   uint64(key),
	})
}

func execYCSBRead(st PartitionState, _ *rand.Rand, ctx uint64) {
	store := st.(*storage.HashIndex32)
	key := uint32(ctx)
	for i := 0; i < kvExecSample; i++ {
		store.Get(key + uint32(i))
	}
}

func execYCSBWrite(st PartitionState, _ *rand.Rand, ctx uint64) {
	store := st.(*storage.HashIndex32)
	key := uint32(ctx)
	for i := 0; i < kvExecSample; i++ {
		store.Upsert(key+uint32(i), key^uint32(i))
	}
}
