package workload

import (
	"fmt"
	"math/rand"

	"ecldb/internal/perfmodel"
	"ecldb/internal/storage"
)

// SSB parameters. The Star Schema Benchmark is the paper's OLAP workload:
// 13 queries in four flights over a lineorder fact table joined with
// date/customer/supplier/part dimensions. Each query fans out to every
// partition (the fact table is horizontally partitioned; dimensions are
// replicated) and merges at a coordinator partition — the inter-partition
// data shipping that makes SSB prefer a higher uncore clock than TATP
// (Section 6.2).
const (
	// ssbRowsPerPartition sizes each partition's lineorder share.
	ssbRowsPerPartition = 32768
	// ssbDateRows, ssbPartRows, ssbSuppRows, ssbCustRows size the
	// replicated dimensions (sampled scale).
	ssbDateRows = 512
	ssbPartRows = 256
	ssbSuppRows = 64
	ssbCustRows = 256
	// ssbMergeInstrPerPartition is the coordinator-side merge cost per
	// participating partition.
	ssbMergeInstrPerPartition = 600
	// ssbExecSampleRows bounds the real sampled scan per operation.
	ssbExecSampleRows = 256
)

// ssbQuery describes one of the 13 SSB queries: its flight, the number of
// dimension joins, and the fact-table selectivity of its predicates.
type ssbQuery struct {
	id          string
	joins       int
	selectivity float64
	// perRowScan is the modeled per-row cost of the non-indexed scan
	// (filter + join probes).
	perRowScan float64
}

// ssbQueries lists the benchmark's query flights. Selectivities follow the
// published SSB filter factors (approximately).
var ssbQueries = []ssbQuery{
	{id: "Q1.1", joins: 1, selectivity: 0.019, perRowScan: 2.5},
	{id: "Q1.2", joins: 1, selectivity: 0.00065, perRowScan: 2.5},
	{id: "Q1.3", joins: 1, selectivity: 0.000075, perRowScan: 2.5},
	{id: "Q2.1", joins: 3, selectivity: 0.008, perRowScan: 4.5},
	{id: "Q2.2", joins: 3, selectivity: 0.0016, perRowScan: 4.5},
	{id: "Q2.3", joins: 3, selectivity: 0.0002, perRowScan: 4.5},
	{id: "Q3.1", joins: 3, selectivity: 0.034, perRowScan: 4.8},
	{id: "Q3.2", joins: 3, selectivity: 0.0014, perRowScan: 4.8},
	{id: "Q3.3", joins: 3, selectivity: 0.000055, perRowScan: 4.8},
	{id: "Q3.4", joins: 3, selectivity: 0.00000076, perRowScan: 4.8},
	{id: "Q4.1", joins: 4, selectivity: 0.016, perRowScan: 5.5},
	{id: "Q4.2", joins: 4, selectivity: 0.0046, perRowScan: 5.5},
	{id: "Q4.3", joins: 4, selectivity: 0.00091, perRowScan: 5.5},
}

// SSB is the OLAP benchmark workload.
type SSB struct {
	indexed bool
	// only restricts query generation to a single query id ("" = all 13
	// uniformly). Used to render per-query energy profiles such as the
	// paper's appendix Q2.1 figures.
	only string
	name string
}

// NewSSB returns SSB in the chosen access-path variant.
func NewSSB(indexed bool) *SSB { return newSSB(indexed, "") }

// NewSSBQuery returns SSB restricted to a single query id (e.g. "Q2.1").
func NewSSBQuery(indexed bool, id string) (*SSB, error) {
	for _, q := range ssbQueries {
		if q.id == id {
			return newSSB(indexed, id), nil
		}
	}
	return nil, fmt.Errorf("workload: unknown SSB query %q", id)
}

// newSSB builds the workload and its name.
func newSSB(indexed bool, only string) *SSB {
	n := "ssb"
	if only != "" {
		n += "-" + only
	}
	if indexed {
		n += "-indexed"
	} else {
		n += "-nonindexed"
	}
	return &SSB{indexed: indexed, only: only, name: n}
}

// Name implements Workload.
func (w *SSB) Name() string { return w.name }

// Indexed implements Workload.
func (w *SSB) Indexed() bool { return w.indexed }

// Characteristics implements Workload.
func (w *SSB) Characteristics() perfmodel.Characteristics {
	if w.indexed {
		// Index-driven selective access with join probes and tuple
		// shipping: latency-bound with a larger traffic share than
		// TATP (appendix Figure 19).
		return perfmodel.Characteristics{Name: w.Name(), BaseIPC: 1.9, BytesPerInstr: 1.2,
			MissesPerKiloInstr: 1.0, HTYield: 1.45, DynScale: 0.92}
	}
	// Parallel column scans with join probes: bandwidth-bound with a
	// compute share (appendix Figure 20).
	return perfmodel.Characteristics{Name: w.Name(), BaseIPC: 2.1, BytesPerInstr: 3.5,
		MissesPerKiloInstr: 0.5, HTYield: 1.2, DynScale: 0.95}
}

// ssbPartition holds one partition's fact share plus replicated dims.
type ssbPartition struct {
	lineorder *storage.Table
	date      *storage.Table
	part      *storage.Table
	supplier  *storage.Table
	customer  *storage.Table
	// orderdate is the lineorder column the sampled scans read.
	orderdate *storage.Column
}

// NewPartition implements Workload.
func (w *SSB) NewPartition(partition int, rng *rand.Rand) PartitionState {
	mustTable := func(name string, cols []string, key string, capacity int) *storage.Table {
		t, err := storage.NewTable(name, cols, key, capacity)
		if err != nil {
			panic(err)
		}
		return t
	}
	// Dimensions are always key-indexed (they are tiny and replicated);
	// the indexed/non-indexed variants differ in fact-table access.
	st := &ssbPartition{
		lineorder: mustTable("lineorder", []string{"orderdate", "custkey", "suppkey", "partkey", "quantity", "discount", "revenue"}, "", ssbRowsPerPartition),
		date:      mustTable("date", []string{"k", "year", "month"}, "k", ssbDateRows),
		part:      mustTable("part", []string{"k", "brand", "category"}, "k", ssbPartRows),
		supplier:  mustTable("supplier", []string{"k", "nation", "region"}, "k", ssbSuppRows),
		customer:  mustTable("customer", []string{"k", "nation", "region"}, "k", ssbCustRows),
	}
	fill := func(t *storage.Table, rows int, gen func(k int64) []int64) {
		for i := 0; i < rows; i++ {
			if _, err := t.Insert(gen(int64(i))); err != nil {
				panic(err)
			}
		}
	}
	fill(st.date, ssbDateRows, func(k int64) []int64 { return []int64{k, 1992 + k/73, 1 + k%12} })
	fill(st.part, ssbPartRows, func(k int64) []int64 { return []int64{k, k % 40, k % 25} })
	fill(st.supplier, ssbSuppRows, func(k int64) []int64 { return []int64{k, k % 25, k % 5} })
	fill(st.customer, ssbCustRows, func(k int64) []int64 { return []int64{k, k % 25, k % 5} })
	st.orderdate = st.lineorder.Column("orderdate")
	fill(st.lineorder, ssbRowsPerPartition, func(int64) []int64 {
		return []int64{
			rng.Int63n(ssbDateRows), rng.Int63n(ssbCustRows), rng.Int63n(ssbSuppRows),
			rng.Int63n(ssbPartRows), 1 + rng.Int63n(50), rng.Int63n(11), 1 + rng.Int63n(100000),
		}
	})
	return st
}

// opInstr models the per-partition cost of a query.
func (w *SSB) opInstr(q ssbQuery) float64 {
	if w.indexed {
		// Index-driven: probe cost plus selective row fetches with
		// join probes.
		matched := q.selectivity * ssbRowsPerPartition
		return 4000 + matched*float64(10+6*q.joins)
	}
	return q.perRowScan * ssbRowsPerPartition
}

// AppendQuery implements Workload: one SSB query fanning out to every
// partition with a merge at a random coordinator. Every partition op runs
// execSSB with the lower bound of the query's date window in ExecCtx.
func (w *SSB) AppendQuery(dst []Op, rng *rand.Rand, parts int) []Op {
	q := ssbQueries[rng.Intn(len(ssbQueries))]
	if w.only != "" {
		for _, cand := range ssbQueries {
			if cand.id == w.only {
				q = cand
				break
			}
		}
	}
	instr := w.opInstr(q)
	lo := rng.Intn(ssbDateRows - ssbDateRows/8)
	for p := 0; p < parts; p++ {
		//ecllint:allow hotpath appends into the caller's reused op scratch; grows only until it holds the largest query
		dst = append(dst, Op{Partition: p, Instr: instr, ExecFn: execSSB, ExecCtx: uint64(lo)})
	}
	// Merge at the coordinator.
	//ecllint:allow hotpath appends into the caller's reused op scratch; grows only until it holds the largest query
	return append(dst, Op{
		Partition: rng.Intn(parts),
		Instr:     float64(parts) * ssbMergeInstrPerPartition,
	})
}

// execSSB performs one partition's sampled work of an SSB query: a scan
// window of the order dates, starting at a row drawn from rng at
// execution time, with a date-dimension probe per row inside the query's
// date range [ctx, ctx+ssbDateRows/8].
func execSSB(st PartitionState, rng *rand.Rand, ctx uint64) {
	sp := st.(*ssbPartition)
	pred := storage.Between(int64(ctx), int64(ctx)+ssbDateRows/8)
	n := sp.orderdate.Len()
	start := rng.Intn(n - ssbExecSampleRows)
	for row := start; row < start+ssbExecSampleRows; row++ {
		if v := sp.orderdate.Get(row); pred.Match(v) {
			sp.date.LookupRow(v)
		}
	}
}

// QueryIDs returns the 13 SSB query identifiers.
func QueryIDs() []string {
	out := make([]string, len(ssbQueries))
	for i, q := range ssbQueries {
		out[i] = q.id
	}
	return out
}
