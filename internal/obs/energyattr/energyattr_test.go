package energyattr

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"ecldb/internal/units"
)

const q = time.Millisecond

// TestConservationIdentity checks the core contract on a hand-driven
// sequence: the derived residual closes the partition exactly, whatever
// mix of weights and windows the settles see.
func TestConservationIdentity(t *testing.T) {
	m := New(2)
	now := time.Duration(0)
	m.NoteReconfig(0, "cfgA", now)
	m.AddWindow(0, KindSettle, 0, 10*time.Microsecond)
	m.AddWindow(0, KindRTISleep, 500*time.Microsecond, 3*time.Millisecond)
	for i := 0; i < 5; i++ {
		m.Accrue(0, units.WattsOf(40+float64(i)).NanojoulesOver(q), units.WattsOf(8).NanojoulesOver(q))
		m.Accrue(1, units.WattsOf(25).NanojoulesOver(q), units.WattsOf(5).NanojoulesOver(q))
		m.Settle(0, now, q, 1, 8, 2.5, 0.02)
		m.Settle(1, now, q, 1, 0, 0, 0)
		now += q
	}
	m.CloseLedger(now)
	for s := 0; s < 2; s++ {
		for d := 0; d < NumDomains; d++ {
			st := &m.socks[s]
			if left := st.integ[d] - st.queries[d] - st.ctlNJ(d) - m.ResidualJ(s, d).Nanojoules(); left != 0 {
				t.Errorf("socket %d domain %d: partition leaks %d nJ", s, d, left)
			}
			if m.ResidualJ(s, d) < 0 {
				t.Errorf("socket %d domain %d: negative residual %v", s, d, m.ResidualJ(s, d))
			}
		}
	}
	if m.QueriesJ(0, DomainPackage) <= 0 {
		t.Error("socket 0 saw query weight but attributed no query energy")
	}
	if m.ControlKindJ(0, DomainPackage, KindSettle) <= 0 {
		t.Error("settle window claimed no energy")
	}
	if m.ControlKindJ(0, DomainPackage, KindRTISleep) <= 0 {
		t.Error("rti-sleep window claimed no energy")
	}
	if got := m.QueriesJ(1, DomainPackage); got != 0 {
		t.Errorf("idle socket attributed %v to queries", got)
	}
	if len(m.Ledger()) != 1 {
		t.Fatalf("ledger records = %d, want 1", len(m.Ledger()))
	}
	r := m.Ledger()[0]
	wantMeasured := m.Integrated(0, DomainPackage) + m.Integrated(0, DomainDRAM)
	if r.MeasuredJ != wantMeasured {
		t.Errorf("ledger measured %v, want %v", r.MeasuredJ, wantMeasured)
	}
}

// TestAccrueMirrorsCounterTerms checks the meter's integration mirror
// against an accumulator built from the same nanojoule terms — the
// property the machine hook relies on.
func TestAccrueMirrorsCounterTerms(t *testing.T) {
	m := New(1)
	var pkg, dram int64
	for i := 0; i < 1000; i++ {
		pj := units.WattsOf(30 + math.Sin(float64(i))*10).NanojoulesOver(q)
		dj := units.WattsOf(6 + math.Cos(float64(i))*2).NanojoulesOver(q)
		m.Accrue(0, pj, dj)
		pkg += pj
		dram += dj
	}
	if got, want := m.Integrated(0, DomainPackage), units.NanojoulesOf(pkg); got != want {
		t.Errorf("package mirror %v != reference %v", got, want)
	}
	if got, want := m.Integrated(0, DomainDRAM), units.NanojoulesOf(dram); got != want {
		t.Errorf("dram mirror %v != reference %v", got, want)
	}
}

// TestSettleStretchMatchesPerQuantum is the meter's half of the
// closed-form stretch: accruing and settling n equal quanta at once must
// leave every accumulator bit-identical to accruing and settling them one
// by one, for random shares, baselines and control windows — windows
// covering the whole stretch, none of it, or starting and ending inside
// it.
func TestSettleStretchMatchesPerQuantum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(300)
		start := time.Duration(rng.Intn(50)) * q
		pj, dj := rng.Int63n(1e8), rng.Int63n(2e7)
		active := rng.Intn(25)
		loop := rng.Float64() * 0.05
		used := 0.0
		if rng.Intn(2) == 0 {
			used = rng.Float64() * 2e6
		}
		build := func() *Meter {
			m := New(1)
			m.SetBaseline(0, units.WattsOf(60), units.WattsOf(4), units.WattsOf(120), units.WattsOf(12), 1e9)
			return m
		}
		batched, walked := build(), build()
		wrng := rand.New(rand.NewSource(int64(trial)))
		for k := KindSettle; k < numKinds; k++ {
			at := start - 2*q
			for w := 0; w < 3; w++ {
				a := at + time.Duration(wrng.Int63n(int64(time.Duration(n)*q/2)))
				b := a + time.Duration(1+wrng.Int63n(int64(time.Duration(n)*q)))
				if wrng.Intn(3) == 0 {
					a, b = start-q, start+time.Duration(n+1)*q // covers the stretch
				}
				batched.AddWindow(0, k, a, b)
				walked.AddWindow(0, k, a, b)
				at = b
			}
		}
		batched.Accrue(0, int64(n)*pj, int64(n)*dj)
		batched.AccrueBaseline(0, used, q, n)
		batched.Settle(0, start, q, n, active, 0, loop)
		for i := 0; i < n; i++ {
			walked.Accrue(0, pj, dj)
			walked.AccrueBaseline(0, used, q, 1)
			walked.Settle(0, start+time.Duration(i)*q, q, 1, active, 0, loop)
		}
		b, w := batched.socks[0], walked.socks[0]
		if b.integ != w.integ || b.queries != w.queries || b.ctl != w.ctl || b.baseNJ != w.baseNJ {
			t.Fatalf("trial %d (n %d, active %d): stretch settle diverged from the walk:\n batched integ %v queries %v ctl %v base %d\n walked  integ %v queries %v ctl %v base %d",
				trial, n, active, b.integ, b.queries, b.ctl, b.baseNJ, w.integ, w.queries, w.ctl, w.baseNJ)
		}
		for d := 0; d < NumDomains; d++ {
			if b.integ[d]-b.queries[d]-b.ctlNJ(d) < 0 {
				t.Fatalf("trial %d domain %d: carve-outs exceed the integrated energy", trial, d)
			}
		}
	}
}

// TestWindowConsumption drives a window across several settle spans and
// checks each span claims exactly its overlap, and cancellation clips
// the unelapsed tail.
func TestWindowConsumption(t *testing.T) {
	m := New(1)
	// Window covering [1ms, 2.5ms): spans [1,2) fully, [2,3) half.
	m.AddWindow(0, KindDiscovery, q, q*5/2)
	var claimed [4]int64
	for i := 0; i < 4; i++ {
		m.Accrue(0, units.WattsOf(10).NanojoulesOver(q), 0)
		m.Settle(0, time.Duration(i)*q, q, 1, 0, 0, 0)
		claimed[i] = m.socks[0].ctl[KindDiscovery][DomainPackage]
	}
	perQ := units.WattsOf(10).NanojoulesOver(q)
	if claimed[0] != 0 {
		t.Errorf("span 0 claimed %d nJ before the window", claimed[0])
	}
	if got, want := claimed[1]-claimed[0], perQ; got != want {
		t.Errorf("span 1 claimed %d nJ, want full quantum %d", got, want)
	}
	if got, want := claimed[2]-claimed[1], perQ/2; got != want {
		t.Errorf("span 2 claimed %d nJ, want half quantum %d", got, want)
	}
	if claimed[3] != claimed[2] {
		t.Errorf("span 3 claimed %d nJ after the window ended", claimed[3]-claimed[2])
	}

	// Cancellation: a future window never claims once canceled.
	m2 := New(1)
	m2.AddWindow(0, KindRTISleep, 0, 2*q)
	m2.CancelFrom(0, KindRTISleep, q)
	m2.Accrue(0, 2*units.WattsOf(10).NanojoulesOver(q), 0)
	m2.Settle(0, 0, q, 2, 0, 0, 0)
	if got, want := m2.ControlKindJ(0, DomainPackage, KindRTISleep), units.WattsOf(10).Over(q); got != want {
		t.Errorf("clipped window claimed %v, want %v", got, want)
	}
	m2.CancelFrom(0, KindRTISleep, 0)
	m2.AddWindow(0, KindRTISleep, 3*q, 4*q)
	m2.CancelFrom(0, KindRTISleep, 2*q)
	m2.Accrue(0, 2*units.WattsOf(10).NanojoulesOver(q), 0)
	m2.Settle(0, 2*q, q, 2, 0, 0, 0)
	if got := m2.ControlKindJ(0, DomainPackage, KindRTISleep); got != units.WattsOf(10).Over(q) {
		t.Errorf("canceled window claimed energy: %v", got)
	}
}

// TestShareClamping: weights can't claim more than the whole socket, and
// windows only claim from the remainder.
func TestShareClamping(t *testing.T) {
	m := New(1)
	m.AddWindow(0, KindRTISleep, 0, q)
	m.Accrue(0, units.WattsOf(10).NanojoulesOver(q), 0)
	// Oversubscribed weight (> active): clamps to the full socket, so the
	// window's claim must be zero.
	m.Settle(0, 0, q, 1, 2, 5, 0.02)
	total := units.WattsOf(10).Over(q)
	if got := m.QueriesJ(0, DomainPackage); got != total {
		t.Errorf("clamped query share %v, want full %v", got, total)
	}
	if got := m.ControlJ(0, DomainPackage); got != 0 {
		t.Errorf("control claimed %v from a fully query-attributed span", got)
	}
	if got := m.ResidualJ(0, DomainPackage); got != 0 {
		t.Errorf("residual %v on a fully attributed span", got)
	}
}

// TestFlushPendingToResidual: unsettled accruals stay integrated but
// unattributed.
func TestFlushPendingToResidual(t *testing.T) {
	m := New(1)
	m.Accrue(0, units.WattsOf(50).NanojoulesOver(time.Second), units.WattsOf(10).NanojoulesOver(time.Second))
	m.FlushPending()
	m.Settle(0, time.Second, q, 1, 4, 4, 0) // nothing pending
	if got := m.QueriesJ(0, DomainPackage); got != 0 {
		t.Errorf("flushed energy leaked to queries: %v", got)
	}
	if got, want := m.ResidualJ(0, DomainPackage), units.WattsOf(50).Over(time.Second); got != want {
		t.Errorf("residual %v, want %v", got, want)
	}
}

// TestBaselineInterp: the counterfactual interpolates between spin and
// full power on utilization.
func TestBaselineInterp(t *testing.T) {
	m := New(1)
	m.SetBaseline(0, units.WattsOf(60), units.WattsOf(4), units.WattsOf(120), units.WattsOf(12), 1e9)
	m.AccrueBaseline(0, 0, q, 1)                 // idle: spin power
	m.AccrueBaseline(0, 1e9*q.Seconds(), q, 1)   // full: full power
	m.AccrueBaseline(0, 0.5e9*q.Seconds(), q, 1) // half
	want := units.WattsOf(64).Over(q) + units.WattsOf(132).Over(q) + units.WattsOf(98).Over(q)
	if got := m.BaselineTotalJ(); math.Abs(got.Div(want)-1) > 1e-12 {
		t.Errorf("baseline %v, want %v", got, want)
	}
	m.Accrue(0, units.WattsOf(30).NanojoulesOver(q), 0)
	if m.SavedJ() <= 0 {
		t.Errorf("saved %v, want positive", m.SavedJ())
	}
}

// TestQuantile: bucket midpoints land within one bucket width of the
// observed population.
func TestQuantile(t *testing.T) {
	m := New(1)
	cls := m.ClassIndex("kv")
	for i := 0; i < 1000; i++ {
		m.ObserveQuery(cls, 3, units.JoulesOf(1e-3), false)
	}
	got := m.Quantile(0.5).Joules()
	if got < 1e-3/1.2 || got > 1e-3*1.2 {
		t.Errorf("p50 %g, want ~1e-3 within bucket resolution", got)
	}
	if m.Quantile(0.99) != m.Quantile(0.5) {
		t.Errorf("uniform population: p99 %v != p50 %v", m.Quantile(0.99), m.Quantile(0.5))
	}
	if m.QueryCount() != 1000 {
		t.Errorf("count %d, want 1000", m.QueryCount())
	}
	cs := m.Classes()
	if len(cs) != 1 || cs[0].Queries != 1000 || cs[0].Ops != 3000 {
		t.Errorf("class stats %+v", cs)
	}
	if got := cs[0].EnergyJ.PerOp(cs[0].Ops); math.Abs(got.Joules()/(1e-3/3)-1) > 1e-9 {
		t.Errorf("J/op %v", got)
	}
}

// TestNilMeterSafe: a nil meter must no-op through the whole API.
func TestNilMeterSafe(t *testing.T) {
	var m *Meter
	m.Accrue(0, 1, 1)
	m.AddWindow(0, KindSettle, 0, q)
	m.CancelFrom(0, KindSettle, 0)
	if m.Settle(0, 0, q, 1, 1, 1, 0) != 0 {
		t.Error("nil Settle returned nonzero")
	}
	m.FlushPending()
	m.SetBaseline(0, 1, 1, 2, 2, 1)
	m.AccrueBaseline(0, 1, q, 1)
	m.NoteReconfig(0, "x", 0)
	m.CloseLedger(q)
	m.ObserveQuery(m.ClassIndex("kv"), 1, 1, false)
	m.ObserveDropped(0, 1)
	m.AddSpan(EnergySpan{})
	if m.Enabled() || m.Sockets() != 0 || m.QueryCount() != 0 {
		t.Error("nil meter reported live state")
	}
	if m.IntegratedTotalJ() != 0 || m.SavedJ() != 0 || m.Quantile(0.5) != 0 {
		t.Error("nil meter reported nonzero totals")
	}
	if m.Report() != "" || m.WriteJSONL(nil) != nil || m.Snapshot() != nil {
		t.Error("nil meter exported state")
	}
}

// TestExports: the report and JSONL render the recorded state, and a
// snapshot is independent of later mutation.
func TestExports(t *testing.T) {
	m := New(1)
	cls := m.ClassIndex("tatp")
	m.Accrue(0, units.WattsOf(40).NanojoulesOver(q), units.WattsOf(8).NanojoulesOver(q))
	m.Settle(0, 0, q, 1, 8, 2, 0.02)
	m.ObserveQuery(cls, 5, units.JoulesOf(2e-4), true)
	m.AddSpan(EnergySpan{QID: 7, Class: "tatp", Done: q, Ops: 5, EnergyJ: units.JoulesOf(2e-4), Violated: true})
	m.NoteReconfig(0, "c8 2.3GHz", 0)
	m.CloseLedger(q)

	rep := m.Report()
	for _, want := range []string{"ENERGY ATTRIBUTION", "tatp", "audit ledger", "c8 2.3GHz"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	var sb strings.Builder
	if err := m.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	jl := sb.String()
	for _, want := range []string{`"type":"domain"`, `"type":"class"`, `"type":"span"`, `"type":"reconfig"`, `"type":"summary"`} {
		if !strings.Contains(jl, want) {
			t.Errorf("jsonl missing %q:\n%s", want, jl)
		}
	}

	snap := m.Snapshot()
	before := snap.IntegratedTotalJ()
	m.Accrue(0, units.WattsOf(40).NanojoulesOver(q), units.WattsOf(8).NanojoulesOver(q))
	if snap.IntegratedTotalJ() != before {
		t.Error("snapshot shares state with the live meter")
	}
}
