package dodb

import (
	"testing"
	"time"
	"unsafe"

	"ecldb/internal/workload"
)

// The steady-state step path must not allocate: the step loop runs ~10^5
// times per experiment, and the per-step stats/origBudget slices used to
// dominate the simulator's allocation profile. The engine-owned scratch
// buffers (stepStats, stepOrigBudget) lock that at 0 allocs/op.
func TestStepSteadyStateAllocatesNothing(t *testing.T) {
	e := newEngine(t, workload.NewKV(true), false)
	act, bud := allActive(smallTopo, 1e6)
	// Warm up: drain any startup work so the measured steps are pure
	// bookkeeping.
	now := time.Millisecond
	for i := 0; i < 4; i++ {
		e.Step(now, time.Millisecond, act, bud)
		now += time.Millisecond
		act, bud = allActive(smallTopo, 1e6)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for s := range bud {
			for i := range bud[s] {
				bud[s][i] = 1e6
			}
		}
		e.Step(now, time.Millisecond, act, bud)
		now += time.Millisecond
	})
	if allocs != 0 {
		t.Fatalf("idle steady-state Step allocates %.1f allocs/op, want 0", allocs)
	}
}

// The submit+drain cycle allocates nothing under a standing backlog, for
// every workload: queries are generated into the engine's op scratch with
// closure-free exec functions, query records come from the engine's
// freelist, messages are stored by value in the hubs' pooled blocks
// (partition queues and outbound buffers alike), the latency window
// reuses its blocks, and the sampled exec work scans into partition-owned scratch.
// Every cycle tops the engine up to a fixed number of pending messages,
// so the queues never run empty, and then runs one step whose budget
// drains a fraction of them.
//
// The measured cycles are 4,500–4,999 (AllocsPerRun runs its function
// once unmeasured first). By then no TATP partition's call_forwarding
// table holds more than 196 rows of its 640-row reserve. Written state
// keeps growing after that. With a warm-up of 100,000 cycles instead of
// 4,000, split:kv-indexed+tatp-indexed allocates 3 times in its measured
// cycles, and a memory profile at MemProfileRate=1 shows these sites
// allocating once a table outgrows its reserve:
//   - storage.(*BTree).newNode and its carves, from execTATP's
//     tp.cfTree.Put once the call-forwarding index has used up the slab
//     it was built with: the 3 measured allocations;
//   - storage.(*Column).Append, from execTATP's tp.callFwd.Insert once
//     the table passes its 640 rows: during the warm-up only, which
//     leaves each table between 3,072 and 4,096 rows;
//   - storage.(*HashIndex32).grow, from execKVPut's Upsert of a fresh
//     key: during the warm-up, since a kv index first grows at 86,016
//     entries (8 growths in kv-indexed, 3 in the split's kv half; none
//     in AllocsPerRun's two runs).
//
// Each is a table growing by its inserts, not a buffer of the
// submit+drain cycle.
func TestStepDrainAllocationBudget(t *testing.T) {
	cases := append([]streamCase{{workload.NewKV(true), 2 * 2400 * 512}}, streamWorkloads()...)
	for _, c := range cases {
		c := c
		t.Run(c.wl.Name(), func(t *testing.T) {
			e := newEngine(t, c.wl, false)
			const backlog = 64
			now := time.Millisecond
			act, bud := allActive(smallTopo, c.budget)
			cycle := func() {
				for e.PendingMessages() < backlog {
					if err := e.SubmitQuery(now); err != nil {
						t.Fatal(err)
					}
				}
				for s := range bud {
					for j := range bud[s] {
						bud[s][j] = c.budget
					}
				}
				e.Step(now, time.Millisecond, act, bud)
				now += time.Millisecond
			}
			// Warm up past the latency window's first second and until
			// every queue and scratch buffer has reached its steady
			// capacity.
			for i := 0; i < 4000; i++ {
				cycle()
			}
			before := e.CompletedQueries()
			// One measured run of 500 cycles: AllocsPerRun floors the
			// per-run mean, so per-cycle runs would round a rare block
			// allocation away. Here a single allocation anywhere fails.
			allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < 500; i++ {
					cycle()
				}
			})
			if allocs != 0 {
				t.Fatalf("500 submit+drain cycles under a backlog allocate %.0f times, want 0", allocs)
			}
			if e.CompletedQueries() == before {
				t.Fatal("no queries completed; drain path not exercised")
			}
			if e.PendingMessages() == 0 {
				t.Fatal("backlog drained; the cycle must keep messages queued")
			}
		})
	}
}

// Step returns engine-owned scratch: the same backing buffers every call,
// fully reset between steps.
func TestStepStatsAreReusedScratch(t *testing.T) {
	e := newEngine(t, workload.NewKV(true), false)
	if err := e.SubmitQuery(0); err != nil {
		t.Fatal(err)
	}
	act, bud := allActive(smallTopo, 1e9)
	first := e.Step(time.Millisecond, time.Millisecond, act, bud)
	busy := false
	for s := range first {
		for _, f := range first[s].BusyFrac {
			if f > 0 {
				busy = true
			}
		}
	}
	act, bud = noneActive(smallTopo)
	second := e.Step(2*time.Millisecond, time.Millisecond, act, bud)
	if &first[0] != &second[0] {
		t.Fatal("Step allocated a fresh stats slice instead of reusing scratch")
	}
	if !busy {
		t.Fatal("first step did no work; reset not exercised")
	}
	for s := range second {
		if second[s].Utilization != 0 && e.PendingMessages() == 0 {
			t.Fatalf("socket %d stale utilization %v", s, second[s].Utilization)
		}
		for lt, f := range second[s].BusyFrac {
			if f != 0 {
				t.Fatalf("socket %d thread %d stale busy fraction %v", s, lt, f)
			}
		}
		for lt, u := range second[s].UsedInstr {
			if u != 0 {
				t.Fatalf("socket %d thread %d stale used instructions %v", s, lt, u)
			}
		}
	}
}

// An in-flight query record fits in one 64-byte cache line (the
// allocator's 64-byte size class).
func TestQueryFits64Bytes(t *testing.T) {
	if got := unsafe.Sizeof(query{}); got > 64 {
		t.Fatalf("query is %d bytes, want at most 64", got)
	}
}
