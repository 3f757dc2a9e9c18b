package dodb

import (
	"testing"
	"time"

	"ecldb/internal/hw"
	"ecldb/internal/workload"
)

// smallTopo keeps the per-test setup cheap: 2 sockets x 2 cores x 2 HT.
var smallTopo = hw.Topology{Sockets: 2, CoresPerSocket: 2, ThreadsPerCore: 2}

func newEngine(t *testing.T, wl workload.Workload, static bool) *Engine {
	t.Helper()
	e, err := New(Config{Topo: smallTopo, Workload: wl, StaticBinding: static, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// allActive builds an activity mask with every thread active at the given
// per-thread instruction budget.
func allActive(topo hw.Topology, budget float64) ([][]bool, [][]float64) {
	act := make([][]bool, topo.Sockets)
	bud := make([][]float64, topo.Sockets)
	for s := range act {
		act[s] = make([]bool, topo.ThreadsPerSocket())
		bud[s] = make([]float64, topo.ThreadsPerSocket())
		for i := range act[s] {
			act[s][i] = true
			bud[s][i] = budget
		}
	}
	return act, bud
}

func noneActive(topo hw.Topology) ([][]bool, [][]float64) {
	act := make([][]bool, topo.Sockets)
	bud := make([][]float64, topo.Sockets)
	for s := range act {
		act[s] = make([]bool, topo.ThreadsPerSocket())
		bud[s] = make([]float64, topo.ThreadsPerSocket())
	}
	return act, bud
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Topo: smallTopo}); err == nil {
		t.Error("missing workload should fail")
	}
	if _, err := New(Config{Topo: hw.Topology{}, Workload: workload.NewKV(true)}); err == nil {
		t.Error("invalid topology should fail")
	}
}

func TestDefaultsOnePartitionPerThread(t *testing.T) {
	e := newEngine(t, workload.NewKV(true), false)
	if got := e.Partitions(); got != smallTopo.TotalThreads() {
		t.Errorf("Partitions = %d, want %d", got, smallTopo.TotalThreads())
	}
}

func TestSubmitAndCompleteQuery(t *testing.T) {
	e := newEngine(t, workload.NewKV(true), false)
	if err := e.SubmitQuery(0); err != nil {
		t.Fatal(err)
	}
	if e.InFlight() != 1 || e.SubmittedQueries() != 1 {
		t.Fatalf("in flight = %d, submitted = %d", e.InFlight(), e.SubmittedQueries())
	}
	act, bud := allActive(smallTopo, 1e9)
	e.Step(time.Millisecond, time.Millisecond, act, bud)
	// Remote-routed queries need a second step after the comm endpoint
	// delivered them.
	act, bud = allActive(smallTopo, 1e9)
	e.Step(2*time.Millisecond, time.Millisecond, act, bud)
	if e.CompletedQueries() != 1 {
		t.Fatalf("completed = %d, want 1", e.CompletedQueries())
	}
	if e.InFlight() != 0 {
		t.Fatalf("in flight = %d after completion", e.InFlight())
	}
	if e.Latency().Total() != 1 {
		t.Fatal("latency sample not recorded")
	}
}

func TestOfferLoadCarriesFractions(t *testing.T) {
	e := newEngine(t, workload.NewKV(true), false)
	// 250 qps for 2 ms per call: 0.5 queries per call.
	for i := 0; i < 10; i++ {
		if err := e.OfferLoad(250, 2*time.Millisecond, time.Duration(i)*2*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.SubmittedQueries(); got != 5 {
		t.Errorf("submitted = %d, want 5 (0.5 per call, 10 calls)", got)
	}
	if err := e.OfferLoad(-1, time.Millisecond, 0); err == nil {
		t.Error("negative load should fail")
	}
}

func TestUtilizationReporting(t *testing.T) {
	e := newEngine(t, workload.NewKV(true), false)
	act, bud := allActive(smallTopo, 1e9)
	// No work: utilization 0.
	e.Step(time.Millisecond, time.Millisecond, act, bud)
	if e.Utilization(0) != 0 || e.Utilization(1) != 0 {
		t.Fatalf("idle utilization = %v/%v, want 0", e.Utilization(0), e.Utilization(1))
	}
	// Saturating work: utilization ~1 on at least one socket.
	for i := 0; i < 20000; i++ {
		if err := e.SubmitQuery(0); err != nil {
			t.Fatal(err)
		}
	}
	act, bud = allActive(smallTopo, 1e5) // tiny budget: overload
	e.Step(2*time.Millisecond, time.Millisecond, act, bud)
	if e.Utilization(0) < 0.9 && e.Utilization(1) < 0.9 {
		t.Fatalf("overloaded utilization = %v/%v, want ~1", e.Utilization(0), e.Utilization(1))
	}
}

// The elasticity property (paper Section 3): work on a socket whose
// workers all sleep is not lost — it queues, reports demand, and drains
// once any worker wakes, regardless of which worker it is.
func TestPartitionsSurviveWorkerShutdown(t *testing.T) {
	e := newEngine(t, workload.NewKV(true), false)
	for i := 0; i < 50; i++ {
		if err := e.SubmitQuery(0); err != nil {
			t.Fatal(err)
		}
	}
	// All workers asleep: nothing processes, demand is signaled.
	act, bud := noneActive(smallTopo)
	e.Step(time.Millisecond, time.Millisecond, act, bud)
	if e.CompletedQueries() != 0 {
		t.Fatal("queries completed without active workers")
	}
	pend := e.PendingMessages()
	if pend == 0 {
		t.Fatal("messages vanished while workers slept")
	}
	if e.Utilization(0) != 1 && e.Utilization(1) != 1 {
		t.Fatal("sleeping sockets with pending work should report demand")
	}
	// Wake a single worker per socket — a *different* one than any
	// static mapping would use (the last thread).
	act, bud = noneActive(smallTopo)
	for s := range act {
		act[s][smallTopo.ThreadsPerSocket()-1] = true
		bud[s][smallTopo.ThreadsPerSocket()-1] = 1e9
	}
	for step := 0; step < 5; step++ {
		e.Step(time.Duration(step+2)*time.Millisecond, time.Millisecond, act, bud)
	}
	if e.CompletedQueries() != 50 {
		t.Fatalf("completed = %d, want all 50 via the single awake worker", e.CompletedQueries())
	}
}

// Under static binding, the same scenario stalls: partitions bound to
// sleeping threads are unreachable (the original architecture's problem).
func TestStaticBindingStallsOnShutdown(t *testing.T) {
	e := newEngine(t, workload.NewKV(true), true)
	for i := 0; i < 50; i++ {
		if err := e.SubmitQuery(0); err != nil {
			t.Fatal(err)
		}
	}
	act, bud := noneActive(smallTopo)
	for s := range act {
		act[s][smallTopo.ThreadsPerSocket()-1] = true
		bud[s][smallTopo.ThreadsPerSocket()-1] = 1e9
	}
	for step := 0; step < 5; step++ {
		e.Step(time.Duration(step+1)*time.Millisecond, time.Millisecond, act, bud)
	}
	if e.CompletedQueries() == 50 {
		t.Fatal("static binding should leave foreign partitions unserved")
	}
	if e.PendingMessages() == 0 {
		t.Fatal("stalled messages should remain pending")
	}
	// With all workers awake, everything drains.
	act, bud = allActive(smallTopo, 1e9)
	for step := 0; step < 5; step++ {
		e.Step(time.Duration(step+10)*time.Millisecond, time.Millisecond, act, bud)
	}
	if e.CompletedQueries() != 50 {
		t.Fatalf("completed = %d with all workers awake, want 50", e.CompletedQueries())
	}
}

func TestWorkloadSwitchDropsInFlight(t *testing.T) {
	e := newEngine(t, workload.NewKV(true), false)
	for i := 0; i < 10; i++ {
		if err := e.SubmitQuery(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.SwitchWorkload(workload.NewKV(false)); err != nil {
		t.Fatal(err)
	}
	if e.DroppedQueries() != 10 || e.InFlight() != 0 {
		t.Fatalf("dropped = %d, in flight = %d", e.DroppedQueries(), e.InFlight())
	}
	if e.Workload().Name() != "kv-nonindexed" {
		t.Fatalf("workload = %s", e.Workload().Name())
	}
	// The new workload runs cleanly.
	if err := e.SubmitQuery(time.Second); err != nil {
		t.Fatal(err)
	}
	act, bud := allActive(smallTopo, 1e9)
	e.Step(time.Second+time.Millisecond, time.Millisecond, act, bud)
	act, bud = allActive(smallTopo, 1e9)
	e.Step(time.Second+2*time.Millisecond, time.Millisecond, act, bud)
	if e.CompletedQueries() != 1 {
		t.Fatalf("completed = %d after switch", e.CompletedQueries())
	}
}

func TestLatencyGrowsUnderBacklog(t *testing.T) {
	e := newEngine(t, workload.NewKV(true), false)
	// Build a backlog, then drain slowly: later completions have larger
	// latency.
	for i := 0; i < 2000; i++ {
		if err := e.SubmitQuery(0); err != nil {
			t.Fatal(err)
		}
	}
	var firstAvg, lastAvg time.Duration
	for step := 1; step <= 100; step++ {
		now := time.Duration(step) * time.Millisecond
		act, bud := allActive(smallTopo, 1.5e6)
		e.Step(now, time.Millisecond, act, bud)
		if step == 10 {
			firstAvg = e.Latency().Average(now)
		}
	}
	lastAvg = e.Latency().Average(100 * time.Millisecond)
	if e.CompletedQueries() == 0 {
		t.Fatal("nothing completed")
	}
	if lastAvg <= firstAvg {
		t.Errorf("latency should grow with backlog: %v -> %v", firstAvg, lastAvg)
	}
}

// SSB fan-out queries exercise cross-socket communication: completion
// requires the comm endpoints to run.
func TestSSBQueryCrossesSockets(t *testing.T) {
	e := newEngine(t, workload.NewSSB(false), false)
	if err := e.SubmitQuery(0); err != nil {
		t.Fatal(err)
	}
	completed := false
	for step := 1; step <= 10 && !completed; step++ {
		act, bud := allActive(smallTopo, 1e9)
		e.Step(time.Duration(step)*time.Millisecond, time.Millisecond, act, bud)
		completed = e.CompletedQueries() == 1
	}
	if !completed {
		t.Fatal("SSB query did not complete within 10 steps")
	}
}

func TestBudgetLimitsThroughput(t *testing.T) {
	e := newEngine(t, workload.NewKV(false), false) // ~786k instr per op
	for i := 0; i < 100; i++ {
		if err := e.SubmitQuery(0); err != nil {
			t.Fatal(err)
		}
	}
	// A budget of ~2 ops per thread per step.
	const budget = 1_600_000
	const opCost = 790_000
	act, bud := allActive(smallTopo, budget)
	stats := e.Step(time.Millisecond, time.Millisecond, act, bud)
	done := e.CompletedQueries()
	if done == 0 {
		t.Fatal("no progress under small budget")
	}
	if done == 100 {
		t.Fatal("whole backlog done despite small budget")
	}
	for s := range stats {
		for lt, used := range stats[s].UsedInstr {
			// Overshoot is bounded by one message.
			if used > budget+opCost {
				t.Fatalf("thread (%d,%d) used %.0f instructions, budget %d", s, lt, used, budget)
			}
		}
	}
}

// NUMA-aware routing admits single-partition queries at their home
// socket: no inter-socket transfers for the KV workload.
func TestNUMARoutingAvoidsTransfers(t *testing.T) {
	run := func(numa bool) int64 {
		e, err := New(Config{Topo: smallTopo, Workload: workload.NewKV(true), NUMARouting: numa, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if err := e.SubmitQuery(0); err != nil {
				t.Fatal(err)
			}
		}
		for step := 1; step <= 10; step++ {
			act, bud := allActive(smallTopo, 1e9)
			e.Step(time.Duration(step)*time.Millisecond, time.Millisecond, act, bud)
		}
		if e.CompletedQueries() != 200 {
			t.Fatalf("numa=%v: completed %d of 200", numa, e.CompletedQueries())
		}
		return e.CommMessages()
	}
	random := run(false)
	numa := run(true)
	if numa != 0 {
		t.Errorf("NUMA routing produced %d transfers, want 0", numa)
	}
	if random == 0 {
		t.Error("random routing should produce transfers")
	}
}

func TestMemTrafficReported(t *testing.T) {
	e := newEngine(t, workload.NewKV(false), false) // bandwidth-heavy
	for i := 0; i < 10; i++ {
		if err := e.SubmitQuery(0); err != nil {
			t.Fatal(err)
		}
	}
	act, bud := allActive(smallTopo, 1e9)
	stats := e.Step(time.Millisecond, time.Millisecond, act, bud)
	total := 0.0
	for _, st := range stats {
		total += st.MemBytes
	}
	if total <= 0 {
		t.Fatal("no memory traffic reported for scan workload")
	}
}
