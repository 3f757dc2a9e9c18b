// Package workload defines the benchmark workloads of the paper's
// evaluation (Section 6, Table 1): the micro-workloads used for energy
// profiles (compute-bound, memory-bound, atomic contention, hash-table
// insert, FIRESTARTER full load), the custom key-value store benchmark,
// TATP (OLTP), and SSB (OLAP) — each database benchmark in a fully indexed
// and a non-indexed variant, since the two access patterns (memory-latency
// vs. memory-bandwidth bound) produce opposite energy profiles.
//
// A workload provides (1) execution characteristics for the performance
// model, (2) per-partition data built on the real storage structures, and
// (3) a query generator emitting operations with modeled instruction costs
// plus sampled real work against the partition data.
package workload

import (
	"math/rand"

	"ecldb/internal/perfmodel"
)

// PartitionState is the opaque partition-local data of a workload. It is
// an alias (not a defined type) so an Op's ExecFn is assignable to lower
// layers' func(any, ...) hooks without a wrapping closure.
type PartitionState = interface{}

// Op is one operation of a query, addressed to a data partition.
type Op struct {
	// Partition is the target partition.
	Partition int
	// Instr is the modeled instruction cost of the operation at full
	// scale.
	Instr float64
	// ExecFn optionally performs a bounded sample of real work against
	// the partition's data structures. The engine calls
	// ExecFn(state, rng, ExecCtx) when a worker processes the op: state
	// is the target partition's data, rng the engine's random source at
	// execution time (the one AppendQuery drew from), and ExecCtx the
	// op's packed scalar parameters. ExecFn values are built once
	// (package-level functions, or closures made with the workload), so
	// generating a query allocates no closure.
	ExecFn func(st PartitionState, rng *rand.Rand, ctx uint64)
	// ExecCtx is the packed argument passed to ExecFn.
	ExecCtx uint64
}

// Workload is a benchmark workload.
type Workload interface {
	// Name identifies the workload (e.g. "tatp-indexed").
	Name() string
	// Indexed reports the access-path variant.
	Indexed() bool
	// Characteristics returns the workload's hardware interaction
	// profile for the performance model.
	Characteristics() perfmodel.Characteristics
	// NewPartition builds the partition-local data of one partition.
	NewPartition(partition int, rng *rand.Rand) PartitionState
	// AppendQuery appends the operations of the next query over a
	// database with parts partitions to dst and returns the extended
	// slice. The caller owns dst, so a caller that passes its scratch
	// back in (dst[:0]) generates queries without allocating.
	AppendQuery(dst []Op, rng *rand.Rand, parts int) []Op
}

// Versioned is implemented by workloads whose Characteristics drift at
// runtime (e.g. a blend whose mix ratio follows the query stream). The
// version must advance whenever a subsequent Characteristics call could
// return a different value; it feeds dodb.Engine.CharacteristicsEpoch so
// capacity caches invalidate on drift. All workloads in this package have
// static characteristics and do not implement it.
type Versioned interface {
	CharacteristicsVersion() uint64
}

// All returns every workload of the evaluation in Table 1 order: the three
// benchmarks, each indexed then non-indexed.
func All() []Workload {
	return []Workload{
		NewKV(true), NewKV(false),
		NewTATP(true), NewTATP(false),
		NewSSB(true), NewSSB(false),
	}
}

// ByName returns the workload with the given name, or nil.
func ByName(name string) Workload {
	for _, w := range append(All(), Micros()...) {
		if w.Name() == name {
			return w
		}
	}
	for _, mix := range []byte{'A', 'B', 'C'} {
		if y, err := NewYCSB(mix); err == nil && y.Name() == name {
			return y
		}
	}
	return nil
}
