package ecl

import (
	"testing"
	"time"

	"ecldb/internal/energy"
	"ecldb/internal/hw"
	"ecldb/internal/perfmodel"
	"ecldb/internal/units"
	"ecldb/internal/vtime"
)

// world drives machine and clock with a synthetic load: every active
// thread of the effective configuration runs at full capacity scaled by
// load (0..1).
type world struct {
	m     *hw.Machine
	clock *vtime.Clock
	ch    perfmodel.Characteristics
	load  float64
}

func newWorld(load float64) *world {
	return &world{
		m:     hw.NewMachine(hw.HaswellEP(), hw.DefaultPowerParams(), 11),
		clock: vtime.NewClock(),
		ch:    perfmodel.ComputeBound(),
		load:  load,
	}
}

// advance steps the world in 1 ms quanta.
func (w *world) advance(dt time.Duration) {
	topo := w.m.Topology()
	for dt > 0 {
		q := time.Millisecond
		if q > dt {
			q = dt
		}
		acts := make([]hw.SocketActivity, topo.Sockets)
		for s := 0; s < topo.Sockets; s++ {
			eff := w.m.Effective(s)
			cap_ := perfmodel.SocketCapacity(topo, eff, w.ch, w.m.ThrottleFactor(s))
			n := topo.ThreadsPerSocket()
			acts[s] = hw.SocketActivity{
				Busy:     make([]float64, n),
				Spin:     make([]float64, n),
				Instr:    make([]float64, n),
				MemGBs:   cap_.MemGBsAtFull * w.load,
				DynScale: cap_.DynScale,
			}
			for i, r := range cap_.PerThread {
				if r > 0 {
					acts[s].Busy[i] = w.load
					acts[s].Spin[i] = 1 - w.load
					acts[s].Instr[i] = r * w.load * q.Seconds()
				}
			}
		}
		w.m.Step(q, acts)
		w.clock.Advance(q)
		dt -= q
	}
}

// prewarmedECL builds a socket ECL with a model-evaluated profile.
func prewarmedECL(t *testing.T, w *world, mode MaintenanceMode) *SocketECL {
	t.Helper()
	topo := w.m.Topology()
	cfgs, err := energy.Generate(topo, energy.DefaultGeneratorParams())
	if err != nil {
		t.Fatal(err)
	}
	prof := energy.NewProfile(topo, cfgs)
	if err := energy.EvaluateModel(prof, topo, w.m.Params(), w.ch, 0); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Maintenance = mode
	s := w.drive(NewSocketECL(0, opts, w.m, w.clock, prof))
	// The profile is fully evaluated: clear the bootstrap queue.
	s.adaptQueue = nil
	return s
}

// drive makes a standalone socket loop the clock's agenda, so advancing
// the world walks its plans' segment boundaries.
func (w *world) drive(s *SocketECL) *SocketECL {
	w.clock.SetAgenda(s)
	return s
}

// ---------- SystemECL ----------

type fakeLatency struct {
	avg   time.Duration
	slope float64
	n     int
}

func (f *fakeLatency) Average(time.Duration) time.Duration { return f.avg }
func (f *fakeLatency) Trend(time.Duration) float64         { return f.slope }
func (f *fakeLatency) Count(time.Duration) int             { return f.n }

func TestSystemECLViolated(t *testing.T) {
	sys := NewSystemECL(100*time.Millisecond, &fakeLatency{avg: 150 * time.Millisecond, n: 10})
	if got := sys.Tick(0); got != 0 {
		t.Errorf("Tick = %v, want 0 for violated limit", got)
	}
}

func TestSystemECLFlatTrend(t *testing.T) {
	sys := NewSystemECL(100*time.Millisecond, &fakeLatency{avg: 20 * time.Millisecond, slope: 0, n: 10})
	if got := sys.Tick(0); got != NoViolation {
		t.Errorf("Tick = %v, want NoViolation", got)
	}
}

func TestSystemECLRisingTrend(t *testing.T) {
	// 20 ms now, rising 10 ms/s toward a 100 ms limit: ~8 s to go.
	sys := NewSystemECL(100*time.Millisecond, &fakeLatency{avg: 20 * time.Millisecond, slope: 0.01, n: 10})
	got := sys.Tick(0)
	if got < 7*time.Second || got > 9*time.Second {
		t.Errorf("Tick = %v, want ~8s", got)
	}
	if sys.LastTimeToViolation() != got || sys.LastAverage() != 20*time.Millisecond {
		t.Error("telemetry accessors inconsistent")
	}
}

func TestSystemECLNoQueries(t *testing.T) {
	sys := NewSystemECL(100*time.Millisecond, &fakeLatency{avg: 0, n: 0})
	if got := sys.Tick(0); got != NoViolation {
		t.Errorf("Tick with no queries = %v, want NoViolation", got)
	}
}

// ---------- SocketECL ----------

func TestSocketECLSelectsOptimalUnderModerateLoad(t *testing.T) {
	w := newWorld(1.0)
	s := prewarmedECL(t, w, MaintainOnline)
	opt := s.Profile().MostEfficient(0)

	// Report a utilization that lands the demand in the under zone and
	// plenty of latency headroom: the loop must RTI against the optimal
	// configuration.
	s.Tick(1.0, NoViolation) // discovery from minimum
	for i := 0; i < 20; i++ {
		w.advance(time.Second)
		s.Tick(0.5, NoViolation)
	}
	active, duty, cycles := s.RTI()
	if !active {
		t.Fatal("expected RTI in the under-utilization zone")
	}
	if duty <= 0 || duty >= 1 {
		t.Errorf("duty = %v, want in (0,1)", duty)
	}
	if cycles < 1 {
		t.Errorf("cycles = %d", cycles)
	}
	// The running configuration is the optimal one.
	eff := w.m.Requested(0)
	if !eff.Idle() && !eff.Equal(opt.Config, w.m.Topology().ThreadsPerCore) {
		t.Errorf("requested config %s, want optimal %s or idle", eff, opt.Config)
	}
}

func TestSocketECLFormulaThree(t *testing.T) {
	w := newWorld(1.0)
	s := prewarmedECL(t, w, MaintainNone)
	// Establish a capacity, then report 70 % utilization: the demand
	// must become 0.7x the offered level (formula 3). 70 % of the
	// offered capacity stays above the decrease-rate clamp even with
	// the demand at its cap.
	s.Tick(1.0, NoViolation)
	w.advance(time.Second)
	s.Tick(1.0, NoViolation)
	w.advance(time.Second)
	base := s.lastCapacity
	if base <= 0 {
		t.Fatal("no capacity established")
	}
	s.Tick(0.7, NoViolation)
	if got, want := s.Demand(), 0.7*base; got < want*0.99 || got > want*1.01 {
		t.Errorf("demand = %g, want %g (formula 3)", got, want)
	}
}

func TestSocketECLDemandDecreaseClamped(t *testing.T) {
	w := newWorld(1.0)
	s := prewarmedECL(t, w, MaintainNone)
	s.Tick(1.0, NoViolation)
	w.advance(time.Second)
	before := s.Demand()
	// A nearly idle interval must not collapse the demand outright.
	s.Tick(0.01, NoViolation)
	if got := s.Demand(); got < before*0.49 || got > before*0.51 {
		t.Errorf("clamped demand = %g, want half of %g", got, before)
	}
}

func TestSocketECLColdStartsAtMax(t *testing.T) {
	w := newWorld(1.0)
	s := prewarmedECL(t, w, MaintainNone)
	s.Tick(1.0, NoViolation)
	if got, want := s.Demand(), s.Profile().MaxScore(); got < want {
		t.Errorf("cold-start demand = %g, want full performance %g", got, want)
	}
}

func TestSocketECLDiscoveryExponential(t *testing.T) {
	w := newWorld(1.0)
	s := prewarmedECL(t, w, MaintainNone)
	// Settle to a small capacity first (the decrease clamp allows 0.5x
	// per tick), then saturate: the discovery strategy must grow the
	// demand exponentially.
	s.Tick(1.0, NoViolation)
	w.advance(time.Second)
	for i := 0; i < 8; i++ {
		s.Tick(0.05, NoViolation)
		w.advance(time.Second)
	}
	var demands []units.Hertz
	for i := 0; i < 6; i++ {
		s.Tick(1.0, NoViolation)
		w.advance(time.Second)
		demands = append(demands, s.Demand())
	}
	for i := 1; i < len(demands); i++ {
		if demands[i] < demands[i-1] {
			t.Fatalf("discovery not monotone: %v", demands)
		}
	}
	// Growth is multiplicative (>1.3x per step) until the cap.
	grew := 0
	for i := 1; i < len(demands); i++ {
		if demands[i] > 1.3*demands[i-1] {
			grew++
		}
	}
	if grew < 2 {
		t.Errorf("discovery not exponential: %v", demands)
	}
}

func TestSocketECLLatencyPressureDisablesRTI(t *testing.T) {
	w := newWorld(1.0)
	s := prewarmedECL(t, w, MaintainNone)
	s.Tick(1.0, NoViolation)
	w.advance(time.Second)
	// Under-zone demand but the latency limit is about to be violated:
	// no RTI.
	s.Tick(0.3, time.Second)
	if active, _, _ := s.RTI(); active {
		t.Error("RTI must be disabled under latency pressure")
	}
	// With headroom it returns.
	s.Tick(0.3, NoViolation)
	if active, _, _ := s.RTI(); !active {
		t.Error("RTI should engage with latency headroom")
	}
}

func TestSocketECLViolationJumpsToMax(t *testing.T) {
	w := newWorld(1.0)
	s := prewarmedECL(t, w, MaintainNone)
	s.Tick(1.0, 0) // full utilization, limit already violated
	if got, want := s.Demand(), s.Profile().MaxScore(); got < want {
		t.Errorf("demand = %g under violation, want >= max score %g", got, want)
	}
	// The applied configuration must be a top performer, not idle/RTI.
	if active, _, _ := s.RTI(); active {
		t.Error("no RTI while the limit is violated")
	}
}

func TestSocketECLOnlineAdaptationMeasures(t *testing.T) {
	w := newWorld(1.0)
	s := prewarmedECL(t, w, MaintainOnline)
	// Perturb the optimal entry to look *better* than reality: the loop
	// keeps selecting it, so online adaptation re-measures it and pulls
	// it back toward truth. (Perturbing it to look worse would make the
	// loop stop applying it — the online strategy's known blind spot,
	// which multiplexed adaptation exists to cover.)
	opt := s.Profile().MostEfficient(0)
	truthPower, truthScore := opt.PowerW, opt.Score
	opt.PowerW *= 0.5
	// Steady (non-RTI) operation at a demand the optimal entry serves:
	// utilization at 85 % keeps demand (incl. provisioning headroom)
	// inside the optimal zone, with mild latency pressure blocking RTI.
	s.Tick(0.85, 3*time.Second/2)
	for i := 0; i < 12; i++ {
		w.advance(time.Second)
		s.Tick(0.85, 3*time.Second/2)
	}
	if relErrF(opt.PowerW.Watts(), truthPower.Watts()) > 0.1 || relErrF(opt.Score.PerSecond(), truthScore.PerSecond()) > 0.1 {
		t.Errorf("online adaptation did not converge: power %.1f (truth %.1f), score %.3g (truth %.3g)",
			opt.PowerW, truthPower, opt.Score, truthScore)
	}
}

func TestSocketECLMultiplexedDrainsQueue(t *testing.T) {
	w := newWorld(1.0)
	s := prewarmedECL(t, w, MaintainMultiplexed)
	// Queue every entry for re-evaluation (simulating detected drift).
	s.adaptQueue = s.Profile().Stale(w.clock.Now(), 0)
	queued := len(s.adaptQueue)
	if queued == 0 {
		t.Fatal("nothing queued")
	}
	ticks := 0
	for s.AdaptPending() > 0 && ticks < 200 {
		s.Tick(0.6, NoViolation)
		w.advance(time.Second)
		ticks++
	}
	if s.AdaptPending() != 0 {
		t.Fatalf("adaptation queue not drained after %d ticks (%d left of %d)", ticks, s.AdaptPending(), queued)
	}
	// Multiplexed re-evaluation must stamp fresh measurements.
	stale := s.Profile().Stale(w.clock.Now(), time.Duration(ticks)*time.Second+time.Second)
	if len(stale) != 0 {
		t.Errorf("%d entries still stale after full drain", len(stale))
	}
}

func TestSocketECLUnevaluatedProfileRunsAllMax(t *testing.T) {
	w := newWorld(1.0)
	topo := w.m.Topology()
	cfgs, err := energy.Generate(topo, energy.DefaultGeneratorParams())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Maintenance = MaintainNone // no adaptation possible
	s := w.drive(NewSocketECL(0, opts, w.m, w.clock, energy.NewProfile(topo, cfgs)))
	s.Tick(1.0, NoViolation)
	w.advance(10 * time.Millisecond)
	req := w.m.Requested(0)
	if req.ActiveThreads() != topo.ThreadsPerSocket() {
		t.Errorf("unevaluated profile should run all-max, got %s", req)
	}
}

func TestSocketECLBootstrapsViaMultiplexed(t *testing.T) {
	w := newWorld(1.0)
	topo := w.m.Topology()
	cfgs, err := energy.Generate(topo, energy.DefaultGeneratorParams())
	if err != nil {
		t.Fatal(err)
	}
	s := w.drive(NewSocketECL(0, DefaultOptions(), w.m, w.clock, energy.NewProfile(topo, cfgs)))
	if s.AdaptPending() == 0 {
		t.Fatal("fresh profile should queue all entries for evaluation")
	}
	// Moderate utilization leaves adaptation headroom.
	for i := 0; i < 250 && s.AdaptPending() > 0; i++ {
		s.Tick(0.4, NoViolation)
		w.advance(time.Second)
	}
	if s.AdaptPending() != 0 {
		t.Fatal("bootstrap did not complete")
	}
	if s.Profile().MostEfficient(0) == nil {
		t.Fatal("no optimal entry after bootstrap")
	}
}

// ---------- Baseline ----------

func TestBaselineAppliesAllMaxWithHardwareControl(t *testing.T) {
	w := newWorld(1.0)
	b := NewBaseline(w.m)
	b.Start()
	w.advance(10 * time.Millisecond)
	for s := 0; s < w.m.Topology().Sockets; s++ {
		if got := w.m.Requested(s).ActiveThreads(); got != w.m.Topology().ThreadsPerSocket() {
			t.Errorf("socket %d: %d active threads", s, got)
		}
	}
	if w.m.EPB() == hw.EPBPerformance {
		t.Error("baseline should leave EPB to the hardware default policy")
	}
	b.Stop()
}

// ---------- Controller ----------

// fakeStats reports a fixed utilization and always-full busy ratio.
type fakeStats struct{ util float64 }

func (f *fakeStats) Utilization(int) float64 { return f.util }
func (f *fakeStats) BusyTime(int) (busy, active time.Duration) {
	return 0, 0 // zero deltas: gating treats windows as unusable
}

func TestControllerWiring(t *testing.T) {
	w := newWorld(1.0)
	lat := &fakeLatency{avg: 10 * time.Millisecond, n: 5}
	c, err := NewController(w.m, w.clock, lat, &fakeStats{util: 0.5}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if c.Sockets() != 2 {
		t.Fatalf("Sockets = %d", c.Sockets())
	}
	if c.Socket(0).Profile() == c.Socket(1).Profile() {
		t.Error("sockets must own separate profiles")
	}
	c.Start()
	if w.m.EPB() != hw.EPBPerformance {
		t.Error("Start must pin EPB to performance (Section 2.3)")
	}
	w.advance(3 * time.Second)
	if c.Socket(0).ticks == 0 {
		t.Error("socket ECL did not tick")
	}
	c.Stop()
	before := c.Socket(0).ticks
	w.advance(3 * time.Second)
	if c.Socket(0).ticks != before {
		t.Error("ticks continued after Stop")
	}
	if c.Overhead() <= 0 || c.Overhead() > 0.05 {
		t.Errorf("Overhead = %v", c.Overhead())
	}
}

func TestControllerRejectsNilDeps(t *testing.T) {
	w := newWorld(1)
	if _, err := NewController(nil, w.clock, &fakeLatency{}, &fakeStats{}, DefaultOptions()); err == nil {
		t.Error("nil machine should fail")
	}
	if _, err := NewController(w.m, w.clock, nil, &fakeStats{}, DefaultOptions()); err == nil {
		t.Error("nil latency source should fail")
	}
	if _, err := NewController(w.m, w.clock, &fakeLatency{}, nil, DefaultOptions()); err == nil {
		t.Error("nil stats source should fail")
	}
}

// ---------- Meta-calibration ----------

func TestMetaCalibration(t *testing.T) {
	w := newWorld(1.0)
	cal := MetaCalibrate(w.m, 0, w.advance, 0.02)
	if len(cal.MeasureCurve) != len(calWindows) || len(cal.ApplyCurve) != len(calSettles) {
		t.Fatal("incomplete curves")
	}
	// The paper's finding: measuring needs ~100 ms, applying is accurate
	// down to ~1 ms.
	if cal.MeasureWindow < 20*time.Millisecond || cal.MeasureWindow > 500*time.Millisecond {
		t.Errorf("MeasureWindow = %v, want ~100ms", cal.MeasureWindow)
	}
	if cal.ApplySettle > 2*time.Millisecond {
		t.Errorf("ApplySettle = %v, want <= ~1ms", cal.ApplySettle)
	}
	// Short measurement windows deviate far more than long ones.
	shortest := cal.MeasureCurve[len(cal.MeasureCurve)-1]
	longest := cal.MeasureCurve[0]
	if shortest.Deviation < 3*longest.Deviation {
		t.Errorf("deviation should blow up at short windows: %v vs %v", shortest.Deviation, longest.Deviation)
	}
}

func relErrF(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := (a - b) / b
	if d < 0 {
		return -d
	}
	return d
}
