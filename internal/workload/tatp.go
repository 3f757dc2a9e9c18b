package workload

import (
	"math/rand"

	"ecldb/internal/perfmodel"
	"ecldb/internal/storage"
)

// TATP parameters. The Telecom Application Transaction Processing
// benchmark is the paper's OLTP workload: short transactions against a
// subscriber schema, here range-partitioned by subscriber id. Unlike the
// key-value benchmark, several transaction types touch a second partition
// (the visited-location registry / call-forwarding routing), which is the
// paper's "needs to communicate with other partitions" property that makes
// TATP favor more hardware threads at medium clocks.
const (
	// tatpSubscribersPerPartition sizes each partition's subscriber set.
	tatpSubscribersPerPartition = 4096
	// tatpIndexedOpInstr is the modeled cost of an indexed transaction
	// step (index probe + row access).
	tatpIndexedOpInstr = 3200
	// tatpScanInstrPerRow is the modeled per-row scan cost of the
	// non-indexed variant.
	tatpScanInstrPerRow = 2.5
	// tatpTxPerQuery is the session size: one client query carries a
	// burst of transactions of one type against one subscriber range
	// (keeps the simulated query rate tractable while preserving the
	// instruction mix).
	tatpTxPerQuery = 256
)

// tatpTxType enumerates the seven standard TATP transactions.
type tatpTxType int

const (
	tatpGetSubscriberData tatpTxType = iota
	tatpGetNewDestination
	tatpGetAccessData
	tatpUpdateSubscriberData
	tatpUpdateLocation
	tatpInsertCallForwarding
	tatpDeleteCallForwarding
)

// tatpMix is the standard TATP transaction mix (cumulative percent).
var tatpMix = []struct {
	tx  tatpTxType
	cum int
}{
	{tatpGetSubscriberData, 35},
	{tatpGetNewDestination, 45},
	{tatpGetAccessData, 80},
	{tatpUpdateSubscriberData, 82},
	{tatpUpdateLocation, 96},
	{tatpInsertCallForwarding, 98},
	{tatpDeleteCallForwarding, 100},
}

// TATP is the OLTP benchmark workload.
type TATP struct {
	indexed bool
}

// NewTATP returns TATP in the chosen access-path variant.
func NewTATP(indexed bool) *TATP { return &TATP{indexed: indexed} }

// Name implements Workload.
func (w *TATP) Name() string {
	if w.indexed {
		return "tatp-indexed"
	}
	return "tatp-nonindexed"
}

// Indexed implements Workload.
func (w *TATP) Indexed() bool { return w.indexed }

// Characteristics implements Workload.
func (w *TATP) Characteristics() perfmodel.Characteristics {
	if w.indexed {
		// Index probes with tuple reconstruction: moderately
		// latency-bound, favoring medium clocks and a lower uncore
		// (appendix Figure 17).
		return perfmodel.Characteristics{Name: w.Name(), BaseIPC: 1.9, BytesPerInstr: 0.8,
			MissesPerKiloInstr: 1.5, HTYield: 1.45, DynScale: 0.9}
	}
	// Parallel table scans with tuple reconstruction and joins: mostly
	// bandwidth-bound but with a compute share (appendix Figure 18).
	return perfmodel.Characteristics{Name: w.Name(), BaseIPC: 2.0, BytesPerInstr: 3.0,
		MissesPerKiloInstr: 1, HTYield: 1.2, DynScale: 0.9}
}

// tatpPartition holds one partition's share of the TATP schema.
type tatpPartition struct {
	subscriber *storage.Table // s_id, bit1, msc_location, vlr_location
	accessInfo *storage.Table // key = s_id*4+ai_type, data1
	specialFac *storage.Table // key = s_id*4+sf_type, is_active, data_a
	callFwd    *storage.Table // key = s_id*16+sf_type*4+start, end, number
	// cfTree is the ordered index over call_forwarding keys (indexed
	// variant only): GetNewDestination and DeleteCallForwarding are
	// range queries over a subscriber's forwarding window.
	cfTree *storage.BTree
	nextCF int64
	// rowBuf is the reused scratch the subscriber-row reads fill.
	rowBuf []int64
}

// NewPartition implements Workload.
func (w *TATP) NewPartition(partition int, rng *rand.Rand) PartitionState {
	mustTable := func(name string, cols []string, key string, capacity int) *storage.Table {
		t, err := storage.NewTable(name, cols, key, capacity)
		if err != nil {
			panic(err)
		}
		return t
	}
	key := "" // non-indexed variant scans
	if w.indexed {
		key = "k"
	}
	st := &tatpPartition{
		subscriber: mustTable("subscriber", []string{"k", "bit1", "msc_location", "vlr_location"}, key, tatpSubscribersPerPartition),
		accessInfo: mustTable("access_info", []string{"k", "data1"}, key, tatpSubscribersPerPartition*2),
		specialFac: mustTable("special_facility", []string{"k", "is_active", "data_a"}, key, tatpSubscribersPerPartition*2),
		// call_forwarding is queried by key *ranges* (a subscriber's
		// forwarding window), so the indexed variant maintains an
		// ordered B+-tree instead of the hash index.
		callFwd: mustTable("call_forwarding", []string{"k", "end_time", "number"}, "", tatpSubscribersPerPartition),
	}
	if w.indexed {
		st.cfTree = storage.NewBTree()
	}
	base := int64(partition) * tatpSubscribersPerPartition
	for i := int64(0); i < tatpSubscribersPerPartition; i++ {
		sid := base + i
		if _, err := st.subscriber.Insert([]int64{sid, rng.Int63n(2), rng.Int63(), rng.Int63()}); err != nil {
			panic(err)
		}
		// 1-2 access-info and special-facility rows per subscriber.
		for ai := int64(0); ai <= rng.Int63n(2); ai++ {
			if _, err := st.accessInfo.Insert([]int64{sid*4 + ai, rng.Int63()}); err != nil {
				panic(err)
			}
			if _, err := st.specialFac.Insert([]int64{sid*4 + ai, rng.Int63n(2), rng.Int63()}); err != nil {
				panic(err)
			}
		}
	}
	return st
}

// opInstr returns the modeled cost of one transaction step touching the
// given number of rows-equivalents.
func (w *TATP) opInstr(steps float64) float64 {
	if w.indexed {
		return steps * tatpIndexedOpInstr * tatpTxPerQuery
	}
	return steps * tatpScanInstrPerRow * tatpSubscribersPerPartition * tatpTxPerQuery
}

// NewQuery implements Workload: one TATP transaction.
func (w *TATP) NewQuery(rng *rand.Rand, parts int) []Op {
	roll := rng.Intn(100)
	tx := tatpMix[len(tatpMix)-1].tx
	for _, m := range tatpMix {
		if roll < m.cum {
			tx = m.tx
			break
		}
	}
	home := rng.Intn(parts)
	sid := int64(home)*tatpSubscribersPerPartition + rng.Int63n(tatpSubscribersPerPartition)
	indexed := w.indexed

	lookup := func(steps float64, fn func(*tatpPartition)) Op {
		return Op{Partition: home, Instr: w.opInstr(steps), Exec: func(st PartitionState) {
			fn(st.(*tatpPartition))
		}}
	}
	subRow := func(tp *tatpPartition) (int, bool) {
		if indexed {
			return tp.subscriber.LookupRow(sid)
		}
		rows := tp.subscriber.Column("k").Scan(storage.EqualTo(sid), nil)
		if len(rows) == 0 {
			return 0, false
		}
		return rows[0], true
	}

	switch tx {
	case tatpGetSubscriberData, tatpGetAccessData:
		return []Op{lookup(1, func(tp *tatpPartition) {
			if row, ok := subRow(tp); ok {
				tp.rowBuf = tp.subscriber.GetRow(row, tp.rowBuf[:0])
			}
		})}
	case tatpGetNewDestination:
		return []Op{lookup(2, func(tp *tatpPartition) {
			k := sid*4 + rng.Int63n(4)
			if indexed {
				tp.specialFac.LookupRow(k)
				// Range over the subscriber's forwarding window.
				tp.cfTree.Range(sid<<20, sid<<20|0xfffff, func(_ int64, row uint64) bool {
					tp.callFwd.Column("end_time").Get(int(row))
					return true
				})
			} else {
				tp.specialFac.Column("k").Scan(storage.EqualTo(k), nil)
			}
		})}
	case tatpUpdateSubscriberData:
		return []Op{lookup(2, func(tp *tatpPartition) {
			if row, ok := subRow(tp); ok {
				if err := tp.subscriber.Update(row, "bit1", rng.Int63n(2)); err != nil {
					panic(err)
				}
			}
		})}
	case tatpUpdateLocation:
		ops := []Op{lookup(1, func(tp *tatpPartition) {
			if row, ok := subRow(tp); ok {
				if err := tp.subscriber.Update(row, "vlr_location", rng.Int63()); err != nil {
					panic(err)
				}
			}
		})}
		// The visited-location registry of the new location lives on
		// another partition: inter-partition communication.
		if parts > 1 {
			remote := rng.Intn(parts)
			for remote == home {
				remote = rng.Intn(parts)
			}
			ops = append(ops, Op{Partition: remote, Instr: w.opInstr(0.5)})
		}
		return ops
	case tatpInsertCallForwarding, tatpDeleteCallForwarding:
		ops := []Op{lookup(1.5, func(tp *tatpPartition) {
			if tx == tatpInsertCallForwarding {
				tp.nextCF++
				k := sid<<20 | tp.nextCF&0xfffff // unique composite key
				row, err := tp.callFwd.Insert([]int64{k, rng.Int63n(24), rng.Int63()})
				if err != nil {
					panic(err) // unindexed table: inserts cannot collide
				}
				if indexed {
					tp.cfTree.Put(k, uint64(row))
				}
			} else if indexed {
				// Delete the first forwarding entry in the window.
				var victim int64
				found := false
				tp.cfTree.Range(sid<<20, sid<<20|0xfffff, func(k int64, _ uint64) bool {
					victim, found = k, true
					return false
				})
				if found {
					tp.cfTree.Delete(victim)
				}
			} else {
				tp.callFwd.Column("k").Scan(storage.EqualTo(sid<<20), nil)
			}
		})}
		// Routing table update on a second partition.
		if parts > 1 {
			remote := (home + 1 + rng.Intn(parts-1)) % parts
			ops = append(ops, Op{Partition: remote, Instr: w.opInstr(0.3)})
		}
		return ops
	}
	return nil
}
