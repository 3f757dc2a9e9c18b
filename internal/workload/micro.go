package workload

import (
	"math/rand"

	"ecldb/internal/perfmodel"
	"ecldb/internal/storage"
)

// Micro is a micro-workload: every query is a single fixed-cost operation
// on one uniformly chosen partition. The micro-workloads reproduce the
// paper's Section 2 and Section 4 experiments (energy-control knob
// analysis and energy profile shapes).
type Micro struct {
	name  string
	chars perfmodel.Characteristics
	// instrPerOp is the modeled cost of one operation.
	instrPerOp float64
	// exec produces the sampled real work for one operation; it is the
	// ops' ExecFn as is.
	exec func(st PartitionState, rng *rand.Rand, ctx uint64)
	// newPartition builds partition state.
	newPartition func(partition int, rng *rand.Rand) PartitionState
}

// Name implements Workload.
func (m *Micro) Name() string { return m.name }

// Indexed implements Workload; micro-workloads have no index variants.
func (m *Micro) Indexed() bool { return false }

// Characteristics implements Workload.
func (m *Micro) Characteristics() perfmodel.Characteristics { return m.chars }

// NewPartition implements Workload.
func (m *Micro) NewPartition(partition int, rng *rand.Rand) PartitionState {
	if m.newPartition == nil {
		return nil
	}
	return m.newPartition(partition, rng)
}

// AppendQuery implements Workload.
func (m *Micro) AppendQuery(dst []Op, rng *rand.Rand, parts int) []Op {
	p := rng.Intn(parts)
	//ecllint:allow hotpath appends into the caller's reused op scratch; grows only until it holds the largest query
	return append(dst, Op{Partition: p, Instr: m.instrPerOp, ExecFn: m.exec})
}

// computePartition is the state of the compute-bound micro-workload: a
// thread-local counter.
type computePartition struct{ counter uint64 }

// scanPartition holds an array column for the memory-bound scan workload.
type scanPartition struct{ col *storage.Column }

// hashPartition holds the shared hash table of the hash-insert workload.
type hashPartition struct {
	idx  *storage.HashIndex32
	next uint64
}

// NewComputeBound returns the "incrementing thread-local counters"
// workload.
func NewComputeBound() *Micro {
	return &Micro{
		name:       "compute-bound",
		chars:      perfmodel.ComputeBound(),
		instrPerOp: 200_000,
		newPartition: func(int, *rand.Rand) PartitionState {
			return &computePartition{}
		},
		exec: func(st PartitionState, _ *rand.Rand, _ uint64) {
			cp := st.(*computePartition)
			for i := 0; i < 64; i++ {
				cp.counter++
			}
		},
	}
}

// NewMemoryScan returns the "scan over an array" workload.
func NewMemoryScan() *Micro {
	return &Micro{
		name:       "memory-scan",
		chars:      perfmodel.MemoryScan(),
		instrPerOp: 400_000,
		newPartition: func(p int, rng *rand.Rand) PartitionState {
			col := storage.NewColumn("v", 4096)
			for i := 0; i < 4096; i++ {
				col.Append(int64(rng.Intn(1000)))
			}
			return &scanPartition{col: col}
		},
		exec: func(st PartitionState, rng *rand.Rand, _ uint64) {
			sp := st.(*scanPartition)
			// Sampled slice of the full modeled scan.
			sp.col.ScanAggregate(storage.Between(0, int64(rng.Intn(1000))))
		},
	}
}

// NewAtomicContention returns the "all threads atomically increment a
// single variable" workload (Figure 10b).
//
// The contended variable is shared across the workload instance's
// partitions (the paper's single cacheline touched by all threads), not
// package-global: concurrent simulation runs each own their counter, so
// run-level parallelism in internal/bench stays race-free. The
// contention cost itself is modeled by perfmodel; within one run the
// simulator is single-threaded, so a plain counter stands in for the
// atomic and keeps the core free of sync/atomic.
func NewAtomicContention() *Micro {
	var sharedCounter uint64
	return &Micro{
		name:       "atomic-contention",
		chars:      perfmodel.AtomicContention(),
		instrPerOp: 60_000,
		exec: func(PartitionState, *rand.Rand, uint64) {
			for i := 0; i < 16; i++ {
				sharedCounter++
			}
		},
	}
}

// NewHashTableInsert returns the "multiple threads insert values into a
// shared hash table" workload (Figure 10c).
func NewHashTableInsert() *Micro {
	return &Micro{
		name:       "hashtable-insert",
		chars:      perfmodel.HashTableInsert(),
		instrPerOp: 150_000,
		newPartition: func(int, *rand.Rand) PartitionState {
			return &hashPartition{idx: storage.NewHashIndex32(1024)}
		},
		exec: func(st PartitionState, rng *rand.Rand, _ uint64) {
			hp := st.(*hashPartition)
			// Keys wrap at 2^16; a key seen before keeps its first
			// value. Nothing reads the values.
			for i := 0; i < 8; i++ {
				hp.next++
				hp.idx.GetOrInsert(uint32(hp.next&0xffff), uint32(rng.Uint64()))
			}
		},
	}
}

// NewFullLoad returns the FIRESTARTER-style stress workload used to reach
// peak power in Figure 3.
func NewFullLoad() *Micro {
	return &Micro{
		name:       "full-load",
		chars:      perfmodel.FullLoad(),
		instrPerOp: 500_000,
		newPartition: func(p int, rng *rand.Rand) PartitionState {
			col := storage.NewColumn("v", 2048)
			for i := 0; i < 2048; i++ {
				col.Append(rng.Int63())
			}
			return &scanPartition{col: col}
		},
		exec: func(st PartitionState, _ *rand.Rand, _ uint64) {
			sp := st.(*scanPartition)
			sp.col.ScanAggregate(storage.All())
		},
	}
}

// Micros returns all micro-workloads.
func Micros() []Workload {
	return []Workload{
		NewComputeBound(), NewMemoryScan(),
		NewAtomicContention(), NewHashTableInsert(), NewFullLoad(),
	}
}
