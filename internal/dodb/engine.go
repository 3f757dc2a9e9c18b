// Package dodb implements the elastic data-oriented in-memory database
// runtime of the paper's Section 3: data partitions with single-owner
// access, an elastic worker pool pinned to (simulated) hardware threads,
// hierarchical message passing, per-query latency tracking, and
// utilization reporting toward the Energy-Control Loop.
//
// The engine is driven in discrete steps by the simulation: each step it
// receives, per hardware thread, whether the thread's worker is active and
// how many instructions it can retire (from the performance model under
// the machine's effective configuration), processes messages accordingly,
// and reports the activity the machine integrates into power and
// performance counters.
package dodb

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"ecldb/internal/hw"
	"ecldb/internal/msg"
	"ecldb/internal/obs"
	"ecldb/internal/obs/energyattr"
	qtrace "ecldb/internal/obs/trace"
	"ecldb/internal/perfmodel"
	"ecldb/internal/units"
	"ecldb/internal/workload"
)

const (
	// batchSize is the number of messages a worker processes per
	// partition ownership.
	batchSize = 64
	// latencyWindow is the sliding window of the latency tracker.
	latencyWindow = time.Second
)

// Config configures the engine.
type Config struct {
	// Topo is the machine topology workers are pinned to. The engine
	// holds one data partition per hardware thread (the paper's 1:1
	// worker-partition ratio at the full configuration).
	Topo hw.Topology
	// Workload drives data population and query generation.
	Workload workload.Workload
	// StaticBinding disables the elasticity extension: each partition
	// is served exclusively by its statically assigned hardware thread,
	// as in the original data-oriented architecture. Used by the
	// ablation benchmarks to demonstrate why elasticity is a
	// prerequisite for worker shutdown.
	StaticBinding bool
	// NUMARouting admits queries at the home socket of their first
	// target partition instead of a random socket, so single-partition
	// queries never cross the interconnect. Models a NUMA-aware client
	// connection router in front of the DBMS.
	NUMARouting bool
	// Seed makes query generation deterministic.
	Seed int64
}

// query tracks one in-flight query. Queries live on an intrusive doubly
// linked list (the in-flight set) and are recycled through a freelist once
// every operation has completed, so the steady-state submit/complete cycle
// performs no map operations and no query allocations. The fields are
// ordered so a record fits in 64 bytes.
type query struct {
	submitted time.Duration
	remaining int32
	// Tracing identity (meaningful only when traced is set): the operation
	// count (always set when energy attribution is on), the 1-based
	// admission index and the admitting socket.
	ops    int32
	qid    uint64
	origin int32
	traced bool
	// dropped marks a query abandoned by a workload switch.
	dropped bool
	// Energy attribution (meaningful only when the meter is attached):
	// whether the query violated the latency threshold, joules attributed
	// so far, and completion instant. A completed query is finalized —
	// observed and recycled — only after the step that finished it has
	// been attributed (see DistributeEnergy).
	violated bool
	energyJ  units.Joule
	done     time.Duration
	prev     *query
	next     *query
}

// SocketStats is the per-socket outcome of one engine step.
type SocketStats struct {
	// BusyFrac is the fraction of the step each local thread spent on
	// useful work (message processing / communication).
	BusyFrac []float64
	// UsedInstr is the number of instructions each local thread retired
	// on useful work.
	UsedInstr []float64
	// MemBytes is the DRAM traffic of the socket during the step.
	MemBytes float64
	// Utilization is the socket's demand-relative utilization as
	// reported to the socket-level ECL: work done relative to the
	// active workers' capacity, or 1.0 if work is pending while no
	// worker is active.
	Utilization float64
}

// Engine is the database runtime.
type Engine struct {
	cfg  Config
	topo hw.Topology
	wl   workload.Workload
	// perSocket is wl's optional interface, asserted once per install:
	// an assertion to an interface type on the step path fills a
	// per-site runtime cache, which allocates at random calls until
	// every dynamic type seen there is cached.
	perSocket workload.PerSocketWorkload
	// opScratch is the op buffer query generation appends into; it is
	// reused for every query.
	opScratch []workload.Op
	rng       *rand.Rand
	router    *msg.Router
	parts     []workload.PartitionState
	latency   *LatencyTracker
	loadCarry float64
	// budgetDebt carries per-thread instruction overshoot into the next
	// step: a worker finishing a message larger than its remaining
	// budget pays the excess off before taking new work, so throughput
	// matches the modeled capacity even when one message costs about a
	// step's budget.
	budgetDebt [][]float64
	// inFlight is the intrusive doubly linked list of live queries;
	// inFlightLen tracks its length. freeQuery chains recycled query
	// records (via next), so the steady-state submit/complete cycle reuses
	// them instead of allocating per query. Messages need no pool of
	// their own: the hubs hold them by value in blocks from per-hub free
	// lists.
	inFlight    *query
	inFlightLen int
	freeQuery   *query
	completed   int64
	submitted   int64
	dropped     int64
	lastUtil    []float64
	// busy/active accumulate per-socket busy and active worker thread
	// time; their ratio over a window tells the ECL whether a measurement
	// window ran at full tilt (profile scores must be full-load
	// capacities). Both are whole nanoseconds, so a fully busy window
	// reads a ratio of exactly 1.
	busy   []time.Duration
	active []time.Duration
	// commMessages counts inter-socket message transfers.
	commMessages int64
	// charEpoch counts workload installs; see CharacteristicsEpoch.
	charEpoch uint64

	// Per-step scratch buffers, reused so the steady-state step path
	// allocates nothing (the step loop runs ~10^5 times per experiment;
	// see TestStepSteadyStateAllocatesNothing). stepStats is what Step
	// returns — the engine owns it, and its contents are valid only
	// until the next Step call. stepOrigBudget snapshots the per-thread
	// budgets at the start of each step's worker phase.
	stepStats      []SocketStats
	stepOrigBudget [][]float64

	// Observability (nil/empty when disabled; see internal/obs).
	obsLog        *obs.Log
	obsSubmitted  *obs.Counter
	obsCompleted  *obs.Counter
	obsDropped    *obs.Counter
	obsLatency    *obs.Histogram
	obsWorkerMove []*obs.Counter // per socket
	// prevActive tracks the per-socket active worker count of the
	// previous step for sleep/wake transition events; stepActive is
	// Step's reused buffer of the current counts.
	prevActive []int
	stepActive []int
	obsOn      bool

	// Query tracing (nil tracer = disabled; see internal/obs/trace).
	// asleepNS accumulates, per socket, virtual time during which the
	// socket had no active worker; differencing two readings bounds the
	// wake-from-sleep share of a wait interval. stepStart/stepEnd frame
	// the step currently executing (valid only while tracing is on).
	tracer      *qtrace.Tracer
	deliverHook func(home int, m *msg.Message)
	asleepNS    []time.Duration
	stepStart   time.Duration
	stepEnd     time.Duration

	// Energy attribution (nil meter = disabled; see
	// internal/obs/energyattr). Per step, the worker loop buffers one
	// (query, weight) pair per processed op message and sums the weights
	// per socket; after the machine integrates the step and the meter
	// settles it, DistributeEnergy applies the per-weight joules to the
	// buffered pairs and finalizes the queries that completed — energy
	// attribution runs one machine-integration behind execution, which is
	// the earliest instant the step's joules exist.
	energy    *energyattr.Meter
	energyCls int
	attrW     []float64
	attrPairs []attrPair
	attrDone  []*query
}

// attrPair is one op message's claim on its step's query energy share:
// the query it belongs to and the work weight it earned (instructions
// executed over the thread's step budget).
type attrPair struct {
	q    *query
	w    float64
	sock int32
}

// New builds an engine, populating every partition's data.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Topo.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workload == nil {
		return nil, fmt.Errorf("dodb: no workload")
	}
	e := &Engine{
		cfg:      cfg,
		topo:     cfg.Topo,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		latency:  NewLatencyTracker(latencyWindow),
		lastUtil: make([]float64, cfg.Topo.Sockets),
	}
	e.budgetDebt = make([][]float64, cfg.Topo.Sockets)
	for s := range e.budgetDebt {
		e.budgetDebt[s] = make([]float64, cfg.Topo.ThreadsPerSocket())
	}
	e.busy = make([]time.Duration, cfg.Topo.Sockets)
	e.active = make([]time.Duration, cfg.Topo.Sockets)
	e.asleepNS = make([]time.Duration, cfg.Topo.Sockets)
	e.stepStats = make([]SocketStats, cfg.Topo.Sockets)
	e.stepOrigBudget = make([][]float64, cfg.Topo.Sockets)
	for s := range e.stepStats {
		e.stepStats[s].BusyFrac = make([]float64, cfg.Topo.ThreadsPerSocket())
		e.stepStats[s].UsedInstr = make([]float64, cfg.Topo.ThreadsPerSocket())
		e.stepOrigBudget[s] = make([]float64, cfg.Topo.ThreadsPerSocket())
	}
	if err := e.install(cfg.Workload); err != nil {
		return nil, err
	}
	return e, nil
}

// install wires a workload: partition data, homes, and the message router.
func (e *Engine) install(wl workload.Workload) error {
	e.wl = wl
	e.perSocket, _ = wl.(workload.PerSocketWorkload)
	e.charEpoch++
	n := e.topo.TotalThreads()
	e.parts = make([]workload.PartitionState, n)
	homes := make([][]int, e.topo.Sockets)
	for p := 0; p < n; p++ {
		e.parts[p] = wl.NewPartition(p, e.rng)
		s := p % e.topo.Sockets // round-robin partition placement
		homes[s] = append(homes[s], p)
	}
	router, err := msg.NewRouter(homes)
	if err != nil {
		return err
	}
	e.router = router
	// A workload switch rebuilds the router, so the tracing hook must
	// follow it (nil when tracing is off).
	e.router.SetDeliverHook(e.deliverHook)
	return nil
}

// Workload returns the current workload.
func (e *Engine) Workload() workload.Workload { return e.wl }

// SocketCharacteristics returns the hardware characteristics of the work
// homed on one socket: per-socket when the workload differentiates (the
// paper's heterogeneous-processor case), the global characteristics
// otherwise.
func (e *Engine) SocketCharacteristics(socket int) perfmodel.Characteristics {
	if e.perSocket != nil {
		return e.perSocket.SocketCharacteristics(socket)
	}
	return e.wl.Characteristics()
}

// Partitions returns the partition count.
func (e *Engine) Partitions() int { return len(e.parts) }

// Latency returns the engine's latency tracker.
func (e *Engine) Latency() *LatencyTracker { return e.latency }

// CompletedQueries returns the lifetime completed query count.
func (e *Engine) CompletedQueries() int64 { return e.completed }

// SubmittedQueries returns the lifetime submitted query count.
func (e *Engine) SubmittedQueries() int64 { return e.submitted }

// DroppedQueries returns queries abandoned by a workload switch.
func (e *Engine) DroppedQueries() int64 { return e.dropped }

// InFlight returns the number of queries currently in the system.
func (e *Engine) InFlight() int { return e.inFlightLen }

// PendingMessages returns undelivered messages across all hubs.
func (e *Engine) PendingMessages() int { return e.router.PendingTotal() }

// CommMessages returns the lifetime count of inter-socket transfers.
func (e *Engine) CommMessages() int64 { return e.commMessages }

// Utilization returns the socket utilization the last step reported.
func (e *Engine) Utilization(socket int) float64 { return e.lastUtil[socket] }

// CharacteristicsEpoch returns a value that changes whenever the result
// of SocketCharacteristics can change: the count of workload installs
// (New, SwitchWorkload). Every workload's characteristics are static
// between installs. Callers key capacity caches on it; two equal values
// guarantee identical characteristics for every socket.
func (e *Engine) CharacteristicsEpoch() uint64 { return e.charEpoch }

// Quiescent reports whether the engine holds no work whatsoever: no
// queries in flight, no undelivered messages, no budget debt carried by
// any worker, and every socket's last reported utilization zero. In this
// state a Step with zero offered load has no effect beyond re-deriving the
// same zeros and the worker observation — which IdleStretch reproduces —
// so it licenses the simulation's quiescent fast-forward whether or not
// an observer is attached.
func (e *Engine) Quiescent() bool {
	if e.inFlightLen != 0 || e.router.PendingTotal() != 0 {
		return false
	}
	for s := range e.budgetDebt {
		for _, d := range e.budgetDebt[s] {
			if d != 0 {
				return false
			}
		}
		if e.lastUtil[s] != 0 {
			return false
		}
	}
	return true
}

// BusyTime returns the cumulative busy and active worker thread time of
// a socket. Differencing two readings tells how fully utilized the
// socket's active workers were over a window.
func (e *Engine) BusyTime(socket int) (busy, active time.Duration) {
	return e.busy[socket], e.active[socket]
}

// BusySeconds is BusyTime in seconds.
func (e *Engine) BusySeconds(socket int) (busy, active float64) {
	return e.busy[socket].Seconds(), e.active[socket].Seconds()
}

// SocketPending returns the undelivered messages queued at one socket's
// hub.
func (e *Engine) SocketPending(socket int) int {
	return e.router.Hub(socket).Pending()
}

// BudgetDebt returns the summed instruction debt of one socket's workers
// (overshoot carried into the next step).
func (e *Engine) BudgetDebt(socket int) float64 {
	sum := 0.0
	for _, d := range e.budgetDebt[socket] {
		sum += d
	}
	return sum
}

// QueryLatencyBuckets are the histogram bucket upper bounds (in
// milliseconds) for the query latency distribution. They straddle the
// paper's 100 ms latency limit so limit violations are visible directly
// in the exposition.
var QueryLatencyBuckets = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 1000}

// SetObserver attaches the observability sinks. A nil observer (the
// default) keeps every instrumentation site a no-op.
func (e *Engine) SetObserver(ob *obs.Observer) {
	e.obsLog = ob.EventLog()
	reg := ob.Reg()
	e.obsSubmitted = reg.Counter("dodb_queries_submitted_total")
	e.obsCompleted = reg.Counter("dodb_queries_completed_total")
	e.obsDropped = reg.Counter("dodb_queries_dropped_total")
	e.obsLatency = nil
	e.obsWorkerMove = nil
	if reg != nil {
		e.obsLatency = reg.Histogram("dodb_query_latency_ms", QueryLatencyBuckets)
		for s := 0; s < e.topo.Sockets; s++ {
			e.obsWorkerMove = append(e.obsWorkerMove,
				reg.Counter(`dodb_worker_transitions_total{socket="`+strconv.Itoa(s)+`"}`))
		}
	}
	e.prevActive = make([]int, e.topo.Sockets)
	e.stepActive = make([]int, e.topo.Sockets)
	e.obsOn = ob != nil
	e.tracer = ob.Tracer()
	e.deliverHook = nil
	if e.tracer != nil {
		// Stamp delivery metadata on traced queries' messages as the
		// communication endpoints hand them to their home hubs. The hub
		// enqueue itself stays tracing-free.
		e.deliverHook = func(home int, m *msg.Message) {
			if q, ok := m.Ctx.(*query); ok && q.traced {
				m.DeliveredAt = e.stepEnd
				m.SleepAtDeliver = e.asleepNS[home]
				m.Hop = true
			}
		}
	}
	e.router.SetDeliverHook(e.deliverHook)
	e.energy = ob.EnergyMeter()
	if e.energy.Enabled() {
		e.energyCls = e.energy.ClassIndex(e.wl.Name())
		e.attrW = make([]float64, e.topo.Sockets)
	}
}

// SwitchWorkload replaces the workload at runtime (the paper's Section 6.3
// workload-change experiment). Partition data is rebuilt; in-flight
// queries of the old workload are dropped (counted in DroppedQueries).
func (e *Engine) SwitchWorkload(wl workload.Workload) error {
	// Drop every in-flight query. Dropped records are not recycled: their
	// unprocessed messages (discarded with the old router below) still
	// point at them via Ctx, so the records must stay dead rather than be
	// reused for new queries.
	for q := e.inFlight; q != nil; {
		next := q.next
		q.dropped = true
		q.prev, q.next = nil, nil
		e.dropped++
		e.obsDropped.Inc()
		e.energy.ObserveDropped(e.energyCls, q.energyJ)
		q = next
	}
	e.inFlight = nil
	e.inFlightLen = 0
	if err := e.install(wl); err != nil {
		return err
	}
	if e.energy.Enabled() {
		e.energyCls = e.energy.ClassIndex(e.wl.Name())
	}
	return nil
}

// OfferLoad submits load according to a query rate sustained over dt,
// carrying fractional queries across calls so low rates are exact.
//
//ecllint:hotpath the admission path, runs every ground quantum of the run loop
func (e *Engine) OfferLoad(qps units.Hertz, dt time.Duration, now time.Duration) error {
	if qps < 0 {
		//ecllint:allow hotpath error path, never taken for a well-formed load profile
		return fmt.Errorf("dodb: negative load %v", qps.PerSecond())
	}
	e.loadCarry += qps.Over(dt)
	for e.loadCarry >= 1 {
		e.loadCarry--
		if err := e.SubmitQuery(now); err != nil {
			return err
		}
	}
	return nil
}

// SubmitQuery generates and routes one query.
func (e *Engine) SubmitQuery(now time.Duration) error {
	e.opScratch = e.wl.AppendQuery(e.opScratch[:0], e.rng, len(e.parts))
	ops := e.opScratch
	if len(ops) == 0 {
		//ecllint:allow hotpath error path, never taken by a well-formed workload
		return fmt.Errorf("dodb: workload %s generated an empty query", e.wl.Name())
	}
	q := e.freeQuery
	if q != nil {
		e.freeQuery = q.next
		*q = query{submitted: now, remaining: int32(len(ops)), ops: int32(len(ops))}
	} else {
		//ecllint:allow hotpath freelist growth is amortized; completed queries recycle their nodes
		q = &query{submitted: now, remaining: int32(len(ops)), ops: int32(len(ops))}
	}
	if e.inFlight != nil {
		e.inFlight.prev = q
	}
	q.next = e.inFlight
	e.inFlight = q
	e.inFlightLen++
	e.submitted++
	// Deterministic 1-in-N span sampling, keyed on the admission index
	// (never on wall clock or randomness): the sampled set is identical
	// across same-seed runs. Nil-safe no-op when tracing is off.
	if e.tracer.Sample(uint64(e.submitted)) {
		q.traced = true
		q.qid = uint64(e.submitted)
	}
	// Client connection placement: random socket, or the first target
	// partition's home under NUMA-aware routing.
	origin := e.rng.Intn(e.topo.Sockets)
	if e.cfg.NUMARouting {
		origin, _ = e.router.Home(ops[0].Partition)
	}
	if q.traced {
		q.origin = int32(origin)
	}
	e.obsSubmitted.Inc()
	e.obsLog.Emit(obs.Event{
		At:     units.Virtual(now),
		Type:   obs.EvQueryAdmit,
		Socket: origin,
		A:      float64(e.inFlightLen),
	})
	for i := range ops {
		op := &ops[i]
		m, err := e.router.Send(origin, op.Partition)
		if err != nil {
			return err
		}
		m.Instr = op.Instr
		m.ExecCtxFn = op.ExecFn
		m.ExecCtx = op.ExecCtx
		m.Ctx = q
		if !q.traced {
			continue
		}
		if home, _ := e.router.Home(op.Partition); home == origin {
			// Locally admitted: delivered to the home hub at submit time.
			// Remote messages are stamped by the router's deliver hook
			// when a communication endpoint transfers them.
			m.DeliveredAt = now
			m.SleepAtDeliver = e.asleepNS[origin]
		}
	}
	return nil
}

// completeOp accounts one finished operation of a query, finalizing the
// query when its last operation completes. The worker loop recovers the
// query from the message's Ctx. m is the just-processed message and lt
// the home-local worker thread that processed it — for a finishing query
// that message is its critical path, and the span phases are attributed
// from its timestamps.
func (e *Engine) completeOp(q *query, m *msg.Message, done time.Duration, lt int) {
	if q.dropped {
		return
	}
	q.remaining--
	if q.remaining != 0 {
		return
	}
	// Unlink from the in-flight list.
	if q.prev != nil {
		q.prev.next = q.next
	} else {
		e.inFlight = q.next
	}
	if q.next != nil {
		q.next.prev = q.prev
	}
	e.inFlightLen--
	e.completed++
	lat := done - q.submitted
	e.latency.Record(lat, done)
	if q.traced {
		e.emitQuerySpan(q, m, done, lt)
	}
	latMS := float64(lat) / float64(time.Millisecond)
	e.obsCompleted.Inc()
	e.obsLatency.Observe(latMS)
	e.obsLog.Emit(obs.Event{
		At:     units.Virtual(done),
		Type:   obs.EvQueryComplete,
		Socket: -1,
		A:      latMS,
		B:      float64(e.inFlightLen),
	})
	// All of the query's messages have been processed, so nothing aliases
	// the record anymore. With energy attribution on, the record must
	// survive until the step's joules are distributed (the finishing
	// step's energy is part of the query's total), so recycling defers to
	// DistributeEnergy; otherwise recycle now.
	if e.energy != nil {
		q.done = done
		q.violated = e.latency.Threshold() > 0 && lat > e.latency.Threshold()
		//ecllint:allow hotpath amortized completion-buffer growth; DistributeEnergy rewinds onto the backing array every step
		e.attrDone = append(e.attrDone, q)
		return
	}
	*q = query{next: e.freeQuery}
	e.freeQuery = q
}

// AttrWeights returns the per-socket summed query work weights of the
// step currently awaiting energy distribution. The slice is the engine's
// scratch, valid until the next Step; nil when attribution is off.
func (e *Engine) AttrWeights() []float64 { return e.attrW }

// DistributeEnergy applies the per-socket joules-per-weight the meter
// returned for the just-integrated step to the queries that earned
// weight in it, then finalizes the queries the step completed: their
// attributed totals are observed under the workload class and, for
// traced queries, recorded as energy spans. Runs once per machine
// integration, right after the meter settles.
//
//ecllint:hotpath
func (e *Engine) DistributeEnergy(perWeightJ []units.Joule) {
	if e.energy == nil {
		return
	}
	for i := range e.attrPairs {
		p := &e.attrPairs[i]
		p.q.energyJ += perWeightJ[p.sock].Scale(p.w)
		p.q = nil
	}
	e.attrPairs = e.attrPairs[:0]
	for s := range e.attrW {
		e.attrW[s] = 0
	}
	for i, q := range e.attrDone {
		e.energy.ObserveQuery(e.energyCls, int(q.ops), q.energyJ, q.violated)
		if q.traced {
			e.energy.AddSpan(energyattr.EnergySpan{
				QID:       q.qid,
				Class:     e.energy.ClassName(e.energyCls),
				Submitted: q.submitted,
				Done:      q.done,
				Ops:       int(q.ops),
				EnergyJ:   q.energyJ,
				Violated:  q.violated,
			})
		}
		*q = query{next: e.freeQuery}
		e.freeQuery = q
		e.attrDone[i] = nil
	}
	e.attrDone = e.attrDone[:0]
}

// emitQuerySpan assembles a sampled query's span from its critical
// message (the one whose completion finished the query) and records it.
//
// The phase partition is exact integer arithmetic over four instants
// t0 = admission, deliver = arrival at the home hub, execStart =
// max(deliver, start of the completing step), done = completion:
//
//	route = deliver - t0
//	wake + queue = execStart - deliver   (split by the asleep-time delta)
//	exec  = done - execStart
//
// so route+wake+queue+exec == done-t0, the exact LatencyTracker sample —
// the conservation invariant TestQueryPhaseConservation locks. The wake
// share is the home socket's asleep-time accrual between delivery and the
// completing step; the accrual happens at the top of Step, so the delta
// counts precisely the no-active-worker quanta the message sat through.
func (e *Engine) emitQuerySpan(q *query, m *msg.Message, done time.Duration, lt int) {
	home, _ := e.router.Home(int(m.Partition))
	deliver := m.DeliveredAt
	execStart := e.stepStart
	if execStart < deliver {
		execStart = deliver
	}
	window := execStart - deliver
	wake := e.asleepNS[home] - m.SleepAtDeliver
	if wake > window {
		wake = window
	}
	if wake < 0 {
		wake = 0
	}
	e.tracer.AddQuery(qtrace.QuerySpan{
		QID:    q.qid,
		Start:  q.submitted,
		End:    done,
		Route:  deliver - q.submitted,
		Wake:   wake,
		Queue:  window - wake,
		Exec:   done - execStart,
		Origin: int(q.origin),
		Home:   home,
		Worker: lt,
		Hop:    m.Hop,
		Ops:    int(q.ops),
	})
}

// Step runs the database for one step ending at now (the step covers
// [now-dt, now)). active and budget give, per socket and local thread,
// whether the worker is active and its instruction capacity for the step.
// The returned stats feed the machine's power/counter integration and the
// ECL's utilization input.
//
// The returned slice and its per-socket sub-slices are scratch buffers
// owned by the engine: they are valid until the next Step call, which
// overwrites them in place. Callers that need the values across steps
// must copy them.
//
//ecllint:hotpath the operation-dispatch loop, runs every simulation quantum
func (e *Engine) Step(now, dt time.Duration, active [][]bool, budget [][]float64) []SocketStats {
	nSock := e.topo.Sockets
	tps := e.topo.ThreadsPerSocket()
	stats := e.stepStats
	for s := 0; s < nSock; s++ {
		bf, ui := stats[s].BusyFrac, stats[s].UsedInstr
		for i := range bf {
			bf[i], ui[i] = 0, 0
		}
		stats[s] = SocketStats{BusyFrac: bf, UsedInstr: ui}
	}

	// Worker elasticity events: one per socket whose active worker count
	// changed since the previous step (not per thread — RTI switching
	// would otherwise flood the log).
	if e.obsOn {
		for s := 0; s < nSock; s++ {
			n := 0
			for _, a := range active[s] {
				if a {
					n++
				}
			}
			e.stepActive[s] = n
		}
		e.observeWorkers(now, e.stepActive)
	}

	// Query tracing: frame the step and accrue per-socket asleep time
	// BEFORE the communication endpoints run, so a delivery snapshot of
	// asleepNS already includes this step's accrual (sleep before
	// delivery belongs to the route phase, not the wake phase).
	if e.tracer.Enabled() {
		e.stepStart, e.stepEnd = now-dt, now
		for s := 0; s < nSock; s++ {
			if firstActive(active[s]) < 0 {
				e.asleepNS[s] += dt
			}
		}
	}

	// Communication endpoints first: they run on the first active
	// thread of each socket and deliver remote messages.
	for s := 0; s < nSock; s++ {
		commThread := firstActive(active[s])
		if commThread < 0 {
			continue // socket asleep: outbound messages wait
		}
		rep, err := e.router.RunCommEndpoint(s)
		if err != nil {
			panic(err) // internal invariant: partitions are registered
		}
		e.commMessages += int64(rep.Messages)
		if rep.Instr > 0 {
			used := rep.Instr
			if used > budget[s][commThread] {
				used = budget[s][commThread]
			}
			budget[s][commThread] -= used
			stats[s].UsedInstr[commThread] += rep.Instr
			stats[s].MemBytes += rep.Bytes
		}
	}

	// Workers drain partition queues within their budgets. Each
	// ownership processes at most batchSize messages, so partitions are
	// served fairly; a worker may overshoot its budget by at most one
	// message.
	for s := 0; s < nSock; s++ {
		bpi := e.SocketCharacteristics(s).BytesPerInstr
		hub := e.router.Hub(s)
		remainingBudget := budget[s]
		origBudget := e.stepOrigBudget[s]
		copy(origBudget, remainingBudget)
		// Pay down debt from previous steps' overshoot.
		for lt := 0; lt < tps; lt++ {
			if d := e.budgetDebt[s][lt]; d > 0 {
				pay := minF(d, remainingBudget[lt])
				remainingBudget[lt] -= pay
				e.budgetDebt[s][lt] -= pay
			}
		}
		for {
			progressed := false
			for lt := 0; lt < tps; lt++ {
				if !active[s][lt] || remainingBudget[lt] <= 0 {
					continue
				}
				token := workerToken(s, lt)
				part, ok := e.acquireFor(hub, s, lt)
				if !ok {
					continue
				}
				for n := 0; n < batchSize && remainingBudget[lt] > 0; n++ {
					m, err := hub.DequeueOne(token, part)
					if err != nil {
						panic(err)
					}
					if m == nil {
						break
					}
					if m.ExecCtxFn != nil {
						// The op draws from the engine rng at execution
						// time, the source its query was generated from.
						m.ExecCtxFn(e.parts[m.Partition], e.rng, m.ExecCtx)
					}
					remainingBudget[lt] -= m.Instr
					stats[s].UsedInstr[lt] += m.Instr
					stats[s].MemBytes += m.Instr * bpi
					if e.energy != nil && m.Ctx != nil {
						if ob := origBudget[lt]; ob > 0 {
							w := m.Instr / ob
							e.attrW[s] += w
							//ecllint:allow hotpath amortized pair-buffer growth; DistributeEnergy rewinds onto the backing array every step
							e.attrPairs = append(e.attrPairs, attrPair{q: m.Ctx.(*query), w: w, sock: int32(s)})
						}
					}
					if m.Ctx != nil {
						e.completeOp(m.Ctx.(*query), m, now, lt)
					}
					progressed = true
				}
				if err := hub.Release(token, part); err != nil {
					panic(err)
				}
			}
			if !progressed {
				break
			}
		}
		// Record fresh overshoot as debt, then busy fractions and
		// utilization (debt paydown counts as busy time: the thread
		// was finishing a message).
		var usedSum, budgetSum float64
		for lt := 0; lt < tps; lt++ {
			if !active[s][lt] || origBudget[lt] <= 0 {
				continue
			}
			if over := -remainingBudget[lt]; over > 0 {
				e.budgetDebt[s][lt] += over
			}
			busyInstr := origBudget[lt] - maxF(remainingBudget[lt], 0)
			frac := busyInstr / origBudget[lt]
			if frac > 1 {
				frac = 1
			}
			stats[s].BusyFrac[lt] = frac
			usedSum += busyInstr
			budgetSum += origBudget[lt]
			e.busy[s] += time.Duration(frac*float64(dt) + 0.5) // rounded: frac ≥ 0
			e.active[s] += dt
		}
		switch {
		case budgetSum > 0:
			stats[s].Utilization = usedSum / budgetSum
		case hub.Pending() > 0:
			// Demand exists but no worker is awake: report full
			// utilization so the ECL ramps up.
			stats[s].Utilization = 1
		default:
			stats[s].Utilization = 0
		}
		e.lastUtil[s] = stats[s].Utilization
	}
	return stats
}

// observeWorkers emits the worker-elasticity observation: one wake/sleep
// event per socket whose active worker count moved since the previous
// step, with Step's exact payload.
func (e *Engine) observeWorkers(now time.Duration, activeCount []int) {
	for s, n := range activeCount {
		if prev := e.prevActive[s]; n != prev {
			t := obs.EvWorkerWake
			if n < prev {
				t = obs.EvWorkerSleep
			}
			e.obsLog.Emit(obs.Event{
				At:     units.Virtual(now),
				Type:   t,
				Socket: s,
				A:      float64(n),
				B:      float64(prev),
			})
			if s < len(e.obsWorkerMove) {
				e.obsWorkerMove[s].Inc()
			}
			e.prevActive[s] = n
		}
	}
}

// IdleStretch advances the engine's cumulative accounting by n
// consecutive quanta of length dt in which the engine provably does
// nothing; first is the `now` of the first quantum (quantum i of the
// stretch ends at first + i·dt). Preconditions (the caller's to
// guarantee): Quiescent() holds, no load is offered, and the eligible and
// activeCount inputs are constant across the stretch. Under them, a full
// Step degenerates to bookkeeping — the communication round is a no-op,
// no worker acquires a partition, every busy fraction is zero — and the
// only state n Steps would change is reproduced here:
//
//   - the worker-elasticity observation fires once, at first: a socket
//     whose active worker count (activeCount[s]) differs from the
//     previous step's emits one wake/sleep event and records the new
//     count, exactly as Step does. The counts are constant afterwards,
//     so the event stream is byte-identical. This matters in the window
//     right after a settle commit wakes or parks threads, before any
//     full Step observes it;
//   - active gains n·dt per active worker with a positive budget
//     (eligible[s] counts them), exactly the n dt terms Step would add
//     (Duration sums are exact integers);
//   - busy gains nothing (every busy fraction is zero);
//   - the tracer's per-socket asleep clocks accrue n·dt for sockets with
//     no active worker in one add (Duration sums are exact integers),
//     and the step frame moves to the last quantum's;
//   - utilization stays exactly zero (Step would recompute 0/budget).
//
// The simulation's run loop calls this for every engine-quiescent
// stretch, and with n = 1 for each quantum it grinds inside one,
// replacing Step's hub and budget scans.
//
//ecllint:hotpath runs once per fast-forwarded stretch or ground quantum
func (e *Engine) IdleStretch(first, dt time.Duration, n int, eligible, activeCount []int) {
	if n <= 0 {
		return
	}
	if e.obsOn {
		e.observeWorkers(first, activeCount)
	}
	if e.tracer.Enabled() {
		last := first + time.Duration(n-1)*dt
		e.stepStart, e.stepEnd = last-dt, last
		for s, c := range activeCount {
			if c == 0 {
				e.asleepNS[s] += time.Duration(n) * dt
			}
		}
	}
	for s, c := range eligible {
		e.active[s] += time.Duration(c*n) * dt
	}
}

// acquireFor acquires the next serveable partition for a worker. Under
// static binding (the non-elastic ablation) a worker may only serve its
// own statically mapped partition.
func (e *Engine) acquireFor(hub *msg.Hub, socket, lt int) (int, bool) {
	token := workerToken(socket, lt)
	if !e.cfg.StaticBinding {
		return hub.Acquire(token)
	}
	global := e.topo.GlobalThread(socket, lt)
	for _, p := range hub.Partitions() {
		if e.boundThread(p) == global && hub.AcquireSpecific(token, p) {
			return p, true
		}
	}
	return 0, false
}

// boundThread returns the global hardware thread a partition is statically
// mapped to in the non-elastic mode. With one partition per hardware
// thread this is a bijection within the partition's home socket.
func (e *Engine) boundThread(p int) int {
	s, _ := e.router.Home(p)
	tps := e.topo.ThreadsPerSocket()
	return e.topo.GlobalThread(s, (p/e.topo.Sockets)%tps)
}

// workerToken derives a unique ownership token for a worker.
func workerToken(socket, lt int) int { return socket*1024 + lt + 1 }

func firstActive(active []bool) int {
	for i, a := range active {
		if a {
			return i
		}
	}
	return -1
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
