package dodb

import (
	"testing"
	"time"

	"ecldb/internal/obs"
	qtrace "ecldb/internal/obs/trace"
	"ecldb/internal/workload"
)

// tracedEngine builds an engine with query tracing attached at the given
// sampling period.
func tracedEngine(t *testing.T, every int) (*Engine, *qtrace.Tracer) {
	t.Helper()
	e := newEngine(t, workload.NewKV(true), false)
	ob := obs.New(0)
	ob.Trace = qtrace.New(every)
	e.SetObserver(ob)
	return e, ob.Trace
}

// TestQueryPhaseConservation locks the conservation invariant: for every
// sampled query, route+wake+queue+exec equals End-Start exactly, which in
// turn equals the latency sample the tracker recorded — in integer
// nanosecond arithmetic, no tolerance. The scenario forces all phases to
// occur: socket 1 sleeps for the first steps (wake > 0 on its queries)
// and random-origin routing crosses the interconnect (Hop spans).
func TestQueryPhaseConservation(t *testing.T) {
	e, tr := tracedEngine(t, 1) // trace every query
	const n = 200
	for i := 0; i < n; i++ {
		if err := e.SubmitQuery(0); err != nil {
			t.Fatal(err)
		}
	}

	// Socket 1 fully asleep for 3 ms: its queries wait on a sleeping
	// socket, then everything drains with all workers awake.
	now := time.Duration(0)
	step := func(socket1Awake bool) {
		now += time.Millisecond
		act, bud := allActive(smallTopo, 1e9)
		if !socket1Awake {
			for i := range act[1] {
				act[1][i] = false
			}
		}
		e.Step(now, time.Millisecond, act, bud)
	}
	for i := 0; i < 3; i++ {
		step(false)
	}
	for i := 0; i < 50 && e.InFlight() > 0; i++ {
		step(true)
	}
	if e.InFlight() != 0 {
		t.Fatalf("%d queries still in flight", e.InFlight())
	}

	spans := tr.Queries()
	if len(spans) != int(e.CompletedQueries()) || len(spans) != n {
		t.Fatalf("spans = %d, completed = %d, want %d", len(spans), e.CompletedQueries(), n)
	}
	if tr.Seen() != uint64(e.SubmittedQueries()) {
		t.Fatalf("seen = %d, submitted = %d", tr.Seen(), e.SubmittedQueries())
	}

	// Spans are emitted in completion order, exactly when the tracker
	// records its sample — so span i corresponds to sample i.
	head, tail := e.latency.win.All()
	samples := append(append([]latencySample(nil), head...), tail...)
	if len(samples) != len(spans) {
		t.Fatalf("tracker holds %d samples, tracer %d spans", len(samples), len(spans))
	}
	var sawWake, sawHop bool
	for i, s := range spans {
		for pi, d := range s.Phases() {
			if d < 0 {
				t.Fatalf("span %d (qid %d): negative %s phase %v", i, s.QID, qtrace.PhaseNames[pi], d)
			}
		}
		// Phases nest within the parent span: consecutive from Start,
		// summing exactly to End.
		if sum := s.Route + s.Wake + s.Queue + s.Exec; s.Start+sum != s.End {
			t.Fatalf("span %d (qid %d): phases sum to %v, span is %v", i, s.QID, sum, s.Latency())
		}
		if s.Latency() != samples[i].latency || s.End != samples[i].at {
			t.Fatalf("span %d (qid %d): latency %v at %v, tracker sample %v at %v",
				i, s.QID, s.Latency(), s.End, samples[i].latency, samples[i].at)
		}
		if s.Home < 0 || s.Home >= smallTopo.Sockets || s.Origin < 0 || s.Origin >= smallTopo.Sockets {
			t.Fatalf("span %d: home %d origin %d out of range", i, s.Home, s.Origin)
		}
		if s.Wake > 0 {
			sawWake = true
		}
		if s.Hop {
			sawHop = true
		}
	}
	if !sawWake {
		t.Error("no span attributed wake time despite a sleeping socket")
	}
	if !sawHop {
		t.Error("no span crossed the interconnect despite random-origin routing")
	}

	// The windowed aggregates agree with the span set (same integer
	// division for the mean).
	if got := e.latency.Count(now); got != len(spans) {
		t.Fatalf("tracker window holds %d, want %d", got, len(spans))
	}
	var sum time.Duration
	for _, s := range spans {
		sum += s.Latency()
	}
	if avg := e.latency.Average(now); avg != sum/time.Duration(len(spans)) {
		t.Fatalf("tracker average %v, span average %v", avg, sum/time.Duration(len(spans)))
	}
}

// TestQuerySampling pins that 1-in-N sampling traces exactly the queries
// whose admission index is a multiple of N.
func TestQuerySampling(t *testing.T) {
	e, tr := tracedEngine(t, 4)
	const n = 40
	for i := 0; i < n; i++ {
		if err := e.SubmitQuery(0); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Duration(0)
	for i := 0; i < 50 && e.InFlight() > 0; i++ {
		now += time.Millisecond
		act, bud := allActive(smallTopo, 1e9)
		e.Step(now, time.Millisecond, act, bud)
	}
	spans := tr.Queries()
	if len(spans) != n/4 {
		t.Fatalf("sampled %d of %d at 1-in-4", len(spans), n)
	}
	for _, s := range spans {
		if s.QID%4 != 0 || s.QID == 0 || s.QID > n {
			t.Fatalf("sampled qid %d not a 1-in-4 admission index", s.QID)
		}
		if s.Ops < 1 {
			t.Fatalf("qid %d: ops = %d", s.QID, s.Ops)
		}
	}
}
