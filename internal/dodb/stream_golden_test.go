package dodb

import (
	"hash/fnv"
	"reflect"
	"sort"
	"testing"
	"time"

	"ecldb/internal/storage"
	"ecldb/internal/workload"
)

// streamGolden is one workload's recorded outcome of streamRun: the
// lifetime submitted and completed counts, the engine rng's next Int63
// after the run, and a digest of the partition state the sampled writes
// touch. The values were recorded from the engine whose sampled work was
// still built from per-query closures; they must not move while the
// exec-time draws keep their order. The exceptions are state words
// re-recorded under a new digest of unchanged contents, with counts and
// nextRand unmoved: hashtable-insert's, when its index came to store
// 32-bit values, and the KV store's (ycsb-A, the split), when the digest
// came to read the (key, value) pairs in key order instead of the value
// array the store used to keep.
type streamGolden struct {
	submitted, completed int64
	nextRand             int64
	state                uint64
}

// streamCase is one workload of the stream golden with the per-thread
// step budget that drains about half of its standing backlog per step
// (about twice the workload's mean op cost).
type streamCase struct {
	wl     workload.Workload
	budget float64
}

// streamWorkloads lists the workloads the stream golden covers: every
// workload whose sampled work draws from the engine rng at execution
// time, the closure-free KV/YCSB path, and a two-workload split.
func streamWorkloads() []streamCase {
	ycsbA, err := workload.NewYCSB('A')
	if err != nil {
		panic(err)
	}
	micros := workload.Micros()
	return []streamCase{
		{workload.NewTATP(true), 1.7e6},
		{workload.NewTATP(false), 5.4e6},
		{workload.NewSSB(true), 12e3},
		{workload.NewSSB(false), 3e5},
		{micros[0], 4e5},   // compute-bound
		{micros[1], 8e5},   // memory-scan
		{micros[2], 1.2e5}, // atomic-contention
		{micros[3], 3e5},   // hashtable-insert
		{micros[4], 1e6},   // full-load
		{ycsbA, 2.4e6},
		{workload.NewSplit(workload.NewKV(true), workload.NewTATP(true), smallTopo.Sockets), 2e6},
	}
}

// streamRun drives a seeded engine for a fixed number of 1 ms steps
// under a standing load: before every step the engine is topped up to a
// fixed number of pending messages, and every thread gets the same
// budget, which drains a share of them.
func streamRun(t testing.TB, c streamCase) streamGolden {
	t.Helper()
	e, err := New(Config{Topo: smallTopo, Workload: c.wl, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const (
		steps   = 300
		backlog = 32
	)
	now := time.Duration(0)
	for i := 0; i < steps; i++ {
		for e.PendingMessages() < backlog {
			if err := e.SubmitQuery(now); err != nil {
				t.Fatal(err)
			}
		}
		now += time.Millisecond
		act, bud := allActive(smallTopo, c.budget)
		e.Step(now, time.Millisecond, act, bud)
	}
	h := fnv.New64a()
	for _, st := range e.parts {
		digestPartition(h, st)
	}
	return streamGolden{
		submitted: e.SubmittedQueries(),
		completed: e.CompletedQueries(),
		nextRand:  e.rng.Int63(),
		state:     h.Sum64(),
	}
}

// digestPartition folds the written fields of one partition into h. A KV
// partition is a storage.HashIndex32, read through its exported Range;
// for the other workloads it reads the unexported state by field name, so
// the digest needs no accessor in the workload package:
//   - TATP: the subscriber bit1 and vlr_location columns, every
//     call_forwarding column and its row count, and the forwarding
//     B-tree's size;
//   - KV/YCSB: the entry count, then each (key, value) pair in ascending
//     key order;
//   - micro: the compute counter and the hash partition's insert cursor,
//     entry count and bucket slots (key and value words).
func digestPartition(h interface{ Write([]byte) (int, error) }, state workload.PartitionState) {
	word := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	ints := func(v reflect.Value) {
		word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			word(uint64(v.Index(i).Int()))
		}
	}
	if kv, ok := state.(*storage.HashIndex32); ok {
		pairs := make([]uint64, 0, kv.Len())
		kv.Range(func(key, val uint32) { pairs = append(pairs, uint64(key)<<32|uint64(val)) })
		sort.Slice(pairs, func(i, j int) bool { return pairs[i] < pairs[j] })
		word(uint64(len(pairs)))
		for _, p := range pairs {
			word(p >> 32)
			word(uint64(uint32(p)))
		}
		return
	}
	st := reflect.ValueOf(state)
	if !st.IsValid() || (st.Kind() == reflect.Interface || st.Kind() == reflect.Pointer) && st.IsNil() {
		return
	}
	p := st
	for p.Kind() == reflect.Interface || p.Kind() == reflect.Pointer {
		p = p.Elem()
	}
	column := func(table reflect.Value, i int) reflect.Value {
		return table.Elem().FieldByName("columns").Index(i).Elem().FieldByName("data")
	}
	switch p.Type().Name() {
	case "tatpPartition":
		sub := p.FieldByName("subscriber")
		ints(column(sub, 1)) // bit1
		ints(column(sub, 3)) // vlr_location
		cf := p.FieldByName("callFwd")
		word(uint64(cf.Elem().FieldByName("rows").Int()))
		for i := 0; i < cf.Elem().FieldByName("columns").Len(); i++ {
			ints(column(cf, i))
		}
		if tree := p.FieldByName("cfTree"); !tree.IsNil() {
			word(uint64(tree.Elem().FieldByName("size").Int()))
		}
	case "computePartition":
		word(p.FieldByName("counter").Uint())
	case "hashPartition":
		word(p.FieldByName("next").Uint())
		idx := p.FieldByName("idx").Elem()
		word(uint64(idx.FieldByName("live").Int()))
		slots := idx.FieldByName("slots")
		for i := 0; i < slots.Len(); i++ {
			slot := slots.Index(i).Uint()
			word(slot >> 32)
			word(uint64(uint32(slot)))
		}
	}
}

// TestQueryStreamIdentity pins, per workload, the query stream and every
// rng draw made at execution time: how many queries a fixed standing load
// admits and completes, where the engine rng stands afterwards, and what
// the sampled writes left in the partitions. Adding or dropping a draw in
// query generation or in an exec function, or reordering the draws that
// feed a query's shape or a write, moves at least one of the four values.
func TestQueryStreamIdentity(t *testing.T) {
	want := map[string]streamGolden{
		"tatp-indexed":                  {3981, 3964, 1532537070865793326, 0xf63bab2f797f499b},
		"tatp-nonindexed":               {3958, 3945, 4103508200847492222, 0x73c167ea9d30937f},
		"ssb-indexed":                   {339, 331, 3351612474784071852, 0xcbf29ce484222325},
		"ssb-nonindexed":                {636, 630, 3897450778235885588, 0xcbf29ce484222325},
		"compute-bound":                 {4724, 4708, 8943790140071731039, 0xe4bc7d24e84f5053},
		"memory-scan":                   {4620, 4604, 185856191951975289, 0xcbf29ce484222325},
		"atomic-contention":             {4715, 4699, 2062715020408285889, 0xcbf29ce484222325},
		"hashtable-insert":              {4661, 4644, 7217012782275668654, 0xe955c49a94862992},
		"full-load":                     {4667, 4651, 7710411114329372735, 0xcbf29ce484222325},
		"ycsb-A":                        {4648, 4631, 6583365134028755665, 0xcd6a8aab0b011cbd},
		"split:kv-indexed+tatp-indexed": {3927, 3909, 3251749303108698073, 0x642c12e88ce1af8e},
	}
	for _, c := range streamWorkloads() {
		c := c
		t.Run(c.wl.Name(), func(t *testing.T) {
			got := streamRun(t, c)
			w, ok := want[c.wl.Name()]
			if !ok {
				t.Fatalf("no golden for %s; got %#v", c.wl.Name(), got)
			}
			if got != w {
				t.Fatalf("stream moved:\n got %#v\nwant %#v", got, w)
			}
		})
	}
}
