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
	// tatpFacilityRows is the row reserve of access_info and
	// special_facility. Each subscriber has one or two rows with equal
	// chance, so a partition holds 4,096 + Binomial(4,096, ½) rows: mean
	// 6,144, standard deviation 32. The reserve is the mean plus 6 σ
	// (192 rows); a partition past it has odds of about 10⁻⁹ and only
	// regrows its columns. Each table's hash index (NewHashIndex32) then
	// takes 8,192 buckets, which hold 7,168 entries before growing.
	tatpFacilityRows = tatpSubscribersPerPartition*3/2 + 6*32
	// tatpCallForwardingRows is the row reserve of call_forwarding,
	// which is empty at build and grows by the run's inserts (a delete
	// removes only the index entry). In a tatp-spike rep the fullest
	// partition reaches 489 to 513 rows (seeds 1 to 8); the reserve is
	// that peak plus a quarter.
	tatpCallForwardingRows = 640
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
	indexed    bool
	subscriber *storage.Table // s_id, bit1, msc_location, vlr_location
	accessInfo *storage.Table // key = s_id*4+ai_type, data1
	specialFac *storage.Table // key = s_id*4+sf_type, is_active, data_a
	callFwd    *storage.Table // key = s_id*16+sf_type*4+start, end, number
	// cfTree is the ordered index over call_forwarding keys (indexed
	// variant only): GetNewDestination and DeleteCallForwarding are
	// range queries over a subscriber's forwarding window.
	cfTree *storage.BTree
	nextCF int64

	// Column handles the transactions read and write, resolved once so
	// execution does no lookup by name.
	subKey, subBit1, subVLR *storage.Column
	sfKey, cfKey, cfEnd     *storage.Column

	// Reused execution scratch: rowBuf takes subscriber-row reads, rows
	// the matches of non-indexed key scans, and cfRow a call_forwarding
	// row being inserted.
	rowBuf []int64
	rows   []int
	cfRow  [3]int64
	// visitEnd and firstKey are the B-tree range callbacks, bound to
	// this partition once; firstKey leaves the first key of a range in
	// victim and sets found.
	visitEnd, firstKey func(key int64, row uint64) bool
	victim             int64
	found              bool
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
		indexed:    w.indexed,
		subscriber: mustTable("subscriber", []string{"k", "bit1", "msc_location", "vlr_location"}, key, tatpSubscribersPerPartition),
		accessInfo: mustTable("access_info", []string{"k", "data1"}, key, tatpFacilityRows),
		specialFac: mustTable("special_facility", []string{"k", "is_active", "data_a"}, key, tatpFacilityRows),
		// call_forwarding is queried by key *ranges* (a subscriber's
		// forwarding window), so the indexed variant maintains an
		// ordered B+-tree instead of the hash index.
		callFwd: mustTable("call_forwarding", []string{"k", "end_time", "number"}, "", tatpCallForwardingRows),
	}
	if w.indexed {
		st.cfTree = storage.NewBTree()
	}
	st.subKey, st.subBit1, st.subVLR = st.subscriber.Column("k"), st.subscriber.Column("bit1"), st.subscriber.Column("vlr_location")
	st.sfKey, st.cfKey, st.cfEnd = st.specialFac.Column("k"), st.callFwd.Column("k"), st.callFwd.Column("end_time")
	st.visitEnd, st.firstKey = st.readEndTime, st.takeFirstKey
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

// AppendQuery implements Workload: one TATP transaction. Its home-partition
// op runs execTATP with the transaction type and subscriber id packed into
// ExecCtx; the remote op of a two-partition transaction is pure modeled
// cost.
func (w *TATP) AppendQuery(dst []Op, rng *rand.Rand, parts int) []Op {
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

	steps := 1.0
	switch tx {
	case tatpGetNewDestination, tatpUpdateSubscriberData:
		steps = 2
	case tatpInsertCallForwarding, tatpDeleteCallForwarding:
		steps = 1.5
	}
	var ops [2]Op
	ops[0] = Op{Partition: home, Instr: w.opInstr(steps), ExecFn: execTATP, ExecCtx: uint64(sid)<<3 | uint64(tx)}
	n := 1
	if parts > 1 {
		switch tx {
		case tatpUpdateLocation:
			// The visited-location registry of the new location lives
			// on another partition: inter-partition communication.
			remote := rng.Intn(parts)
			for remote == home {
				remote = rng.Intn(parts)
			}
			ops[1], n = Op{Partition: remote, Instr: w.opInstr(0.5)}, 2
		case tatpInsertCallForwarding, tatpDeleteCallForwarding:
			// Routing table update on a second partition.
			remote := (home + 1 + rng.Intn(parts-1)) % parts
			ops[1], n = Op{Partition: remote, Instr: w.opInstr(0.3)}, 2
		}
	}
	//ecllint:allow hotpath appends into the caller's reused op scratch; grows only until it holds the largest query
	return append(dst, ops[:n]...)
}

// execTATP performs the sampled work of one TATP transaction on its home
// partition. ctx packs the subscriber id above the three low bits of the
// transaction type; the written values are drawn from rng at execution
// time.
func execTATP(st PartitionState, rng *rand.Rand, ctx uint64) {
	tp := st.(*tatpPartition)
	tx, sid := tatpTxType(ctx&7), int64(ctx>>3)
	switch tx {
	case tatpGetSubscriberData, tatpGetAccessData:
		if row, ok := tp.subscriberRow(sid); ok {
			tp.rowBuf = tp.subscriber.GetRow(row, tp.rowBuf[:0])
		}
	case tatpGetNewDestination:
		k := sid*4 + rng.Int63n(4)
		if tp.indexed {
			tp.specialFac.LookupRow(k)
			// Range over the subscriber's forwarding window.
			tp.cfTree.Range(sid<<20, sid<<20|0xfffff, tp.visitEnd)
		} else {
			tp.rows = tp.sfKey.Scan(storage.EqualTo(k), tp.rows[:0])
		}
	case tatpUpdateSubscriberData:
		if row, ok := tp.subscriberRow(sid); ok {
			tp.subBit1.Set(row, rng.Int63n(2))
		}
	case tatpUpdateLocation:
		if row, ok := tp.subscriberRow(sid); ok {
			tp.subVLR.Set(row, rng.Int63())
		}
	case tatpInsertCallForwarding:
		tp.nextCF++
		k := sid<<20 | tp.nextCF&0xfffff // unique composite key
		tp.cfRow = [3]int64{k, rng.Int63n(24), rng.Int63()}
		//ecllint:allow hotpath the table grows by the inserted row (amortized column doubling); its error paths are unreachable for an unindexed table
		row, err := tp.callFwd.Insert(tp.cfRow[:])
		if err != nil {
			panic(err) // unindexed table: inserts cannot collide
		}
		if tp.indexed {
			//ecllint:allow hotpath the forwarding index grows with the table; a node split allocates once per half-node of inserts
			tp.cfTree.Put(k, uint64(row))
		}
	case tatpDeleteCallForwarding:
		if tp.indexed {
			// Delete the first forwarding entry in the window.
			tp.found = false
			tp.cfTree.Range(sid<<20, sid<<20|0xfffff, tp.firstKey)
			if tp.found {
				tp.cfTree.Delete(tp.victim)
			}
		} else {
			// Scan for the subscriber's forwarding window, the range
			// the indexed variant walks.
			tp.rows = tp.cfKey.Scan(storage.Between(sid<<20, sid<<20|0xfffff), tp.rows[:0])
		}
	}
}

// subscriberRow finds a subscriber's row: an index probe in the indexed
// variant, a full key-column scan otherwise.
func (tp *tatpPartition) subscriberRow(sid int64) (int, bool) {
	if tp.indexed {
		return tp.subscriber.LookupRow(sid)
	}
	tp.rows = tp.subKey.Scan(storage.EqualTo(sid), tp.rows[:0])
	if len(tp.rows) == 0 {
		return 0, false
	}
	return tp.rows[0], true
}

// readEndTime is the GetNewDestination range callback: it reads the
// forwarding entry's end time.
func (tp *tatpPartition) readEndTime(_ int64, row uint64) bool {
	tp.cfEnd.Get(int(row))
	return true
}

// takeFirstKey is the DeleteCallForwarding range callback: it records the
// first key of the window and stops the scan.
func (tp *tatpPartition) takeFirstKey(k int64, _ uint64) bool {
	tp.victim, tp.found = k, true
	return false
}
