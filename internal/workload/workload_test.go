package workload

import (
	"math/rand"
	"testing"

	"ecldb/internal/storage"
)

const testParts = 8

func testRng() *rand.Rand { return rand.New(rand.NewSource(7)) }

func TestAllWorkloadsWellFormed(t *testing.T) {
	all := append(All(), Micros()...)
	if len(all) != 11 {
		t.Fatalf("catalog has %d workloads, want 11 (6 DB + 5 micro)", len(all))
	}
	seen := map[string]bool{}
	for _, w := range all {
		if w.Name() == "" || seen[w.Name()] {
			t.Fatalf("bad or duplicate workload name %q", w.Name())
		}
		seen[w.Name()] = true
		if err := w.Characteristics().Validate(); err != nil {
			t.Errorf("%s: %v", w.Name(), err)
		}
	}
}

func TestByName(t *testing.T) {
	if w := ByName("tatp-indexed"); w == nil || !w.Indexed() {
		t.Error("ByName(tatp-indexed) wrong")
	}
	if w := ByName("memory-scan"); w == nil {
		t.Error("ByName(memory-scan) wrong")
	}
	if ByName("nope") != nil {
		t.Error("ByName(nope) should be nil")
	}
}

// Every workload must generate valid queries whose ops execute cleanly
// against the partition state it builds.
func TestQueriesExecuteAgainstOwnPartitions(t *testing.T) {
	for _, w := range append(All(), Micros()...) {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			rng := testRng()
			states := make([]PartitionState, testParts)
			for p := range states {
				states[p] = w.NewPartition(p, rng)
			}
			for q := 0; q < 200; q++ {
				ops := w.AppendQuery(nil, rng, testParts)
				if len(ops) == 0 {
					t.Fatalf("query %d has no ops", q)
				}
				for _, op := range ops {
					if op.Partition < 0 || op.Partition >= testParts {
						t.Fatalf("op targets partition %d of %d", op.Partition, testParts)
					}
					if op.Instr <= 0 {
						t.Fatalf("op has non-positive cost %v", op.Instr)
					}
					if op.ExecFn != nil {
						op.ExecFn(states[op.Partition], rng, op.ExecCtx)
					}
				}
			}
		})
	}
}

func TestKVVariantsDifferInCost(t *testing.T) {
	rng := testRng()
	idx := NewKV(true).AppendQuery(nil, rng, testParts)[0].Instr
	scan := NewKV(false).AppendQuery(nil, rng, testParts)[0].Instr
	if idx != kvIndexedAccessInstr*kvMultiGet {
		t.Errorf("indexed batch cost = %.0f, want %d", idx, kvIndexedAccessInstr*kvMultiGet)
	}
	if scan != kvScanInstrPerRow*kvRowsPerPartition {
		t.Errorf("scan batch cost = %.0f, want %v", scan, kvScanInstrPerRow*kvRowsPerPartition)
	}
	// Per access, the scan path is far more expensive than the index
	// probe: one full-partition scan versus kvMultiGet cheap probes.
	if scan/kvMultiGet >= idx/kvMultiGet*100 {
		t.Log("scan per-access cost dwarfs index probes as expected")
	}
	if scan <= float64(kvIndexedAccessInstr) {
		t.Error("a partition scan must cost more than a single index probe")
	}
}

func TestKVCharacteristicsOpposite(t *testing.T) {
	idx := NewKV(true).Characteristics()
	scan := NewKV(false).Characteristics()
	if idx.MissesPerKiloInstr <= scan.MissesPerKiloInstr {
		t.Error("indexed KV should be latency-bound")
	}
	if scan.BytesPerInstr <= idx.BytesPerInstr {
		t.Error("non-indexed KV should be bandwidth-bound")
	}
}

// TestKVPartitionFootprint pins the kv store's layout: a built partition
// is one 131,072-bucket HashIndex32 (an 8-byte slot holding key and value,
// plus a state byte, per bucket) and nothing else. A store that reports
// the same bytes as a fresh, empty one was preloaded without regrowing.
func TestKVPartitionFootprint(t *testing.T) {
	for _, indexed := range []bool{true, false} {
		st := NewKV(indexed).NewPartition(0, testRng()).(*storage.HashIndex32)
		const want = 131072 * (8 + 1)
		if got := st.MemBytes(); got != want {
			t.Errorf("indexed=%v: MemBytes = %d, want %d", indexed, got, want)
		}
		if fresh := storage.NewHashIndex32(kvRowsPerPartition).MemBytes(); st.MemBytes() != fresh {
			t.Errorf("indexed=%v: preload regrew the store: %d bytes, a fresh one has %d",
				indexed, st.MemBytes(), fresh)
		}
		if st.Len() < kvRowsPerPartition-16 {
			t.Errorf("indexed=%v: Len = %d, want about %d", indexed, st.Len(), kvRowsPerPartition)
		}
	}
}

func TestTATPMixCoversAllTransactions(t *testing.T) {
	w := NewTATP(true)
	rng := testRng()
	opCounts := map[int]int{}
	multi := 0
	for q := 0; q < 5000; q++ {
		ops := w.AppendQuery(nil, rng, testParts)
		opCounts[len(ops)]++
		if len(ops) > 1 {
			multi++
		}
	}
	// ~18 % of the mix (UpdateLocation + call forwarding) is
	// multi-partition.
	frac := float64(multi) / 5000
	if frac < 0.10 || frac > 0.28 {
		t.Errorf("multi-partition fraction = %.2f, want ~0.18", frac)
	}
}

func TestTATPCrossPartitionTargetsDiffer(t *testing.T) {
	w := NewTATP(false)
	rng := testRng()
	for q := 0; q < 2000; q++ {
		ops := w.AppendQuery(nil, rng, testParts)
		if len(ops) == 2 && ops[0].Partition == ops[1].Partition {
			t.Fatal("cross-partition op targets the home partition")
		}
	}
}

func TestTATPSinglePartitionWhenAlone(t *testing.T) {
	w := NewTATP(true)
	rng := testRng()
	for q := 0; q < 1000; q++ {
		for _, op := range w.AppendQuery(nil, rng, 1) {
			if op.Partition != 0 {
				t.Fatal("ops must stay on partition 0")
			}
		}
	}
}

func TestSSBFanOutAndMerge(t *testing.T) {
	w := NewSSB(false)
	rng := testRng()
	ops := w.AppendQuery(nil, rng, testParts)
	if len(ops) != testParts+1 {
		t.Fatalf("SSB query has %d ops, want %d scans + 1 merge", len(ops), testParts)
	}
	covered := map[int]bool{}
	for _, op := range ops[:testParts] {
		covered[op.Partition] = true
	}
	if len(covered) != testParts {
		t.Fatalf("SSB scans cover %d partitions, want %d", len(covered), testParts)
	}
}

func TestSSBIndexedCheaperThanScan(t *testing.T) {
	rng := testRng()
	idx := NewSSB(true).AppendQuery(nil, rng, testParts)[0].Instr
	scan := NewSSB(false).AppendQuery(nil, rng, testParts)[0].Instr
	if idx >= scan {
		t.Errorf("indexed per-partition cost %.0f should undercut scan %.0f", idx, scan)
	}
}

func TestSSBQueryRestriction(t *testing.T) {
	w, err := NewSSBQuery(true, "Q2.1")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "ssb-Q2.1-indexed" {
		t.Errorf("Name = %q", w.Name())
	}
	if _, err := NewSSBQuery(true, "Q9.9"); err == nil {
		t.Error("unknown query id should fail")
	}
	if got := len(QueryIDs()); got != 13 {
		t.Errorf("QueryIDs = %d entries, want 13", got)
	}
}

func TestSSBSelectivityOrderingWithinFlights(t *testing.T) {
	// Within each flight, later queries are more selective (cheaper when
	// indexed).
	w := NewSSB(true)
	byID := map[string]ssbQuery{}
	for _, q := range ssbQueries {
		byID[q.id] = q
	}
	flights := [][]string{
		{"Q1.1", "Q1.2", "Q1.3"},
		{"Q2.1", "Q2.2", "Q2.3"},
		{"Q3.1", "Q3.2", "Q3.3", "Q3.4"},
		{"Q4.1", "Q4.2", "Q4.3"},
	}
	for _, fl := range flights {
		for i := 1; i < len(fl); i++ {
			if w.opInstr(byID[fl[i]]) >= w.opInstr(byID[fl[i-1]]) {
				t.Errorf("%s should be cheaper than %s when indexed", fl[i], fl[i-1])
			}
		}
	}
}

func TestMicroQueriesSingleOp(t *testing.T) {
	rng := testRng()
	for _, w := range Micros() {
		ops := w.AppendQuery(nil, rng, testParts)
		if len(ops) != 1 {
			t.Errorf("%s query has %d ops, want 1", w.Name(), len(ops))
		}
	}
}

func TestPartitionStatesIndependent(t *testing.T) {
	// Two partitions of the same workload hold distinct state.
	w := NewTATP(true)
	rng := testRng()
	a := w.NewPartition(0, rng).(*tatpPartition)
	b := w.NewPartition(1, rng).(*tatpPartition)
	if a.subscriber == b.subscriber {
		t.Fatal("partitions share tables")
	}
	// Subscriber ids are range-partitioned: partition 1's keys start at
	// its base.
	if _, ok := a.subscriber.LookupRow(0); !ok {
		t.Error("partition 0 should hold subscriber 0")
	}
	if _, ok := b.subscriber.LookupRow(tatpSubscribersPerPartition); !ok {
		t.Error("partition 1 should hold its base subscriber")
	}
	if _, ok := b.subscriber.LookupRow(0); ok {
		t.Error("partition 1 should not hold subscriber 0")
	}
}
