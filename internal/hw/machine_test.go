package hw

import (
	"math"
	"testing"
	"time"
)

func newTestMachine() *Machine {
	return NewMachine(HaswellEP(), DefaultPowerParams(), 42)
}

func idleActs(m *Machine) []SocketActivity {
	topo := m.Topology()
	acts := make([]SocketActivity, topo.Sockets)
	for s := range acts {
		acts[s] = SocketActivity{
			Busy:  make([]float64, topo.ThreadsPerSocket()),
			Spin:  make([]float64, topo.ThreadsPerSocket()),
			Instr: make([]float64, topo.ThreadsPerSocket()),
		}
	}
	return acts
}

func TestApplyTakesEffectAfterLatency(t *testing.T) {
	m := newTestMachine()
	cfg := NewConfiguration(m.Topology())
	cfg.Threads[0] = true
	cfg.CoreMHz[0] = MaxCoreMHz
	if err := m.Apply(0, cfg); err != nil {
		t.Fatal(err)
	}
	// Before the latency elapses, the effective state is still idle.
	if got := m.Effective(0).ActiveThreads(); got != 0 {
		t.Fatalf("effective threads before latency = %d, want 0", got)
	}
	m.Step(ApplyLatency, idleActs(m))
	if got := m.Effective(0).ActiveThreads(); got != 1 {
		t.Fatalf("effective threads after latency = %d, want 1", got)
	}
}

func TestApplyRejectsBadInput(t *testing.T) {
	m := newTestMachine()
	if err := m.Apply(7, NewConfiguration(m.Topology())); err == nil {
		t.Error("want error for out-of-range socket")
	}
	bad := NewConfiguration(m.Topology())
	bad.UncoreMHz = 99999
	if err := m.Apply(0, bad); err == nil {
		t.Error("want error for invalid configuration")
	}
}

func TestRequestedReturnsPendingConfig(t *testing.T) {
	m := newTestMachine()
	cfg := NewConfiguration(m.Topology())
	cfg.Threads[4] = true
	if err := m.Apply(1, cfg); err != nil {
		t.Fatal(err)
	}
	if got := m.Requested(1).ActiveThreads(); got != 1 {
		t.Fatalf("Requested after Apply = %d active threads, want 1", got)
	}
}

// Apply owns what it requested: the caller may reuse its configuration
// at once, and a warm apply-and-settle cycle allocates nothing.
func TestApplyCopiesWithoutAllocating(t *testing.T) {
	m := newTestMachine()
	acts := idleActs(m)
	busy, idle := NewConfiguration(m.Topology()), NewConfiguration(m.Topology())
	busy.Threads[2] = true
	for _, cfg := range []Configuration{busy, idle, busy} {
		if err := m.Apply(0, cfg); err != nil {
			t.Fatal(err)
		}
		m.Step(ApplyLatency, acts)
	}
	busy.Threads[2] = false
	if !m.Requested(0).Threads[2] || m.Effective(0).ActiveThreads() != 1 {
		t.Fatal("mutating the applied configuration reached the machine")
	}
	busy.Threads[2] = true
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.Apply(0, idle); err != nil {
			t.Fatal(err)
		}
		m.Step(ApplyLatency, acts)
		if err := m.Apply(0, busy); err != nil {
			t.Fatal(err)
		}
		m.Step(ApplyLatency, acts)
	})
	if allocs != 0 {
		t.Errorf("Apply+Step allocates %.1f times per cycle, want 0", allocs)
	}
}

// Figure 7(a)/(c): with EPB balanced or powersave, a turbo clock request
// is held at the highest non-turbo P-state for one second before the
// energy-efficient turbo engages.
func TestEETDelayUnderBalancedEPB(t *testing.T) {
	m := newTestMachine()
	m.SetEPB(EPBBalanced)
	cfg := NewConfiguration(m.Topology())
	cfg.Threads[0] = true
	cfg.CoreMHz[0] = TurboMHz
	if err := m.Apply(0, cfg); err != nil {
		t.Fatal(err)
	}
	m.Step(500*time.Millisecond, idleActs(m))
	if got := m.Effective(0).CoreMHz[0]; got != MaxCoreMHz {
		t.Fatalf("clock at 0.5 s = %d, want held at %d", got, MaxCoreMHz)
	}
	m.Step(600*time.Millisecond, idleActs(m))
	if got := m.Effective(0).CoreMHz[0]; got != TurboMHz {
		t.Fatalf("clock at 1.1 s = %d, want turbo %d", got, TurboMHz)
	}
}

// Figure 7(b): with EPB performance, turbo engages immediately.
func TestEETImmediateUnderPerformanceEPB(t *testing.T) {
	m := newTestMachine()
	m.SetEPB(EPBPerformance)
	cfg := NewConfiguration(m.Topology())
	cfg.Threads[0] = true
	cfg.CoreMHz[0] = TurboMHz
	if err := m.Apply(0, cfg); err != nil {
		t.Fatal(err)
	}
	m.Step(ApplyLatency, idleActs(m))
	if got := m.Effective(0).CoreMHz[0]; got != TurboMHz {
		t.Fatalf("clock = %d, want immediate turbo %d", got, TurboMHz)
	}
}

// Figure 8: automatic uncore frequency scaling drives the uncore to its
// maximum as soon as the cores are busy, regardless of whether the
// workload benefits.
func TestAutoUFSOvershootsUnderLoad(t *testing.T) {
	m := newTestMachine()
	m.SetAutoUFS(true)
	cfg := NewConfiguration(m.Topology())
	for i := range cfg.Threads {
		cfg.Threads[i] = true
	}
	cfg.UncoreMHz = MinUncoreMHz // request is overridden by auto UFS
	if err := m.Apply(0, cfg); err != nil {
		t.Fatal(err)
	}
	acts := idleActs(m)
	for i := range acts[0].Busy {
		acts[0].Busy[i] = 1
	}
	for i := 0; i < 10; i++ {
		m.Step(10*time.Millisecond, acts)
	}
	if got := m.Effective(0).UncoreMHz; got != MaxUncoreMHz {
		t.Fatalf("auto UFS uncore = %d, want %d", got, MaxUncoreMHz)
	}
	// When load disappears, the automatic governor decays the clock.
	for i := 0; i < 100; i++ {
		m.Step(10*time.Millisecond, idleActs(m))
	}
	if got := m.Effective(0).UncoreMHz; got > MinUncoreMHz+200 {
		t.Fatalf("auto UFS uncore after idle decay = %d, want near %d", got, MinUncoreMHz)
	}
}

func TestPinnedUncoreWithoutAutoUFS(t *testing.T) {
	m := newTestMachine()
	cfg := NewConfiguration(m.Topology())
	cfg.Threads[0] = true
	cfg.UncoreMHz = 2400
	if err := m.Apply(0, cfg); err != nil {
		t.Fatal(err)
	}
	m.Step(time.Second, idleActs(m))
	if got := m.Effective(0).UncoreMHz; got != 2400 {
		t.Fatalf("pinned uncore = %d, want 2400", got)
	}
}

// Section 2.2 inter-socket dependency: the uncore halts only when every
// socket of the machine is idle.
func TestUncoreHaltRequiresAllSocketsIdle(t *testing.T) {
	m := newTestMachine()
	if !m.UncoreHalted() {
		t.Fatal("fresh machine should have halted uncores")
	}
	cfg := NewConfiguration(m.Topology())
	cfg.Threads[0] = true
	if err := m.Apply(1, cfg); err != nil {
		t.Fatal(err)
	}
	m.Step(time.Millisecond, idleActs(m))
	if m.UncoreHalted() {
		t.Fatal("uncore should not halt while socket 1 has an active core")
	}
	if err := m.Apply(1, NewConfiguration(m.Topology())); err != nil {
		t.Fatal(err)
	}
	m.Step(time.Millisecond, idleActs(m))
	if !m.UncoreHalted() {
		t.Fatal("uncore should halt once all sockets are idle again")
	}
}

func TestEnergyAccumulatesAndRAPLTracksTruth(t *testing.T) {
	m := newTestMachine()
	cfg := NewConfiguration(m.Topology())
	cfg.Threads[0] = true
	cfg.CoreMHz[0] = MaxCoreMHz
	cfg.UncoreMHz = MaxUncoreMHz
	if err := m.Apply(0, cfg); err != nil {
		t.Fatal(err)
	}
	acts := idleActs(m)
	acts[0].Busy[0] = 1
	for i := 0; i < 1000; i++ {
		m.Step(time.Millisecond, acts)
	}
	trueJ := m.TrueEnergy(0, DomainPackage)
	readJ := m.ReadEnergy(0, DomainPackage)
	if trueJ <= 0 {
		t.Fatal("no package energy accumulated")
	}
	// Over one second the RAPL read should be within ~0.5 % of truth.
	if rel := math.Abs((readJ - trueJ).Div(trueJ)); rel > 0.005 {
		t.Errorf("RAPL read off by %.3f%% over 1 s, want < 0.5%%", rel*100)
	}
	if m.PSUEnergy() <= trueJ {
		t.Error("PSU energy should exceed RAPL package energy")
	}
}

// The RAPL read error over a short window is much larger (relatively)
// than over a long window — the basis of the paper's meta-calibration
// (Figure 12).
func TestRAPLShortWindowRelativeError(t *testing.T) {
	relErr := func(window time.Duration) float64 {
		m := newTestMachine()
		cfg := NewConfiguration(m.Topology())
		cfg.Threads[0] = true
		cfg.CoreMHz[0] = MaxCoreMHz
		cfg.UncoreMHz = MaxUncoreMHz
		if err := m.Apply(0, cfg); err != nil {
			t.Fatal(err)
		}
		acts := idleActs(m)
		acts[0].Busy[0] = 1
		m.Step(10*time.Millisecond, acts) // settle
		var worst float64
		for i := 0; i < 50; i++ {
			r0, t0 := m.ReadEnergy(0, DomainPackage), m.TrueEnergy(0, DomainPackage)
			m.Step(window, acts)
			r1, t1 := m.ReadEnergy(0, DomainPackage), m.TrueEnergy(0, DomainPackage)
			truth := t1 - t0
			if truth <= 0 {
				continue
			}
			if e := math.Abs(((r1 - r0) - truth).Div(truth)); e > worst {
				worst = e
			}
		}
		return worst
	}
	short := relErr(2 * time.Millisecond)
	long := relErr(100 * time.Millisecond)
	if short < 3*long {
		t.Errorf("short-window worst error %.4f should far exceed long-window %.4f", short, long)
	}
	if long > 0.02 {
		t.Errorf("100 ms window worst error %.4f, want < 2%%", long)
	}
}

func TestInstructionCountersAccumulate(t *testing.T) {
	m := newTestMachine()
	acts := idleActs(m)
	acts[0].Instr[0] = 1e6
	acts[1].Instr[3] = 2e6
	m.Step(time.Millisecond, acts)
	m.Step(time.Millisecond, acts)
	topo := m.Topology()
	if got := m.ReadInstructions(topo.GlobalThread(0, 0)); got != 2e6 {
		t.Errorf("thread (0,0) instructions = %g, want 2e6", got)
	}
	if got := m.ReadInstructions(topo.GlobalThread(1, 3)); got != 4e6 {
		t.Errorf("thread (1,3) instructions = %g, want 4e6", got)
	}
	if got := m.SocketInstructions(1); got != 4e6 {
		t.Errorf("socket 1 instructions = %g, want 4e6", got)
	}
}

// Sustained power above TDP must clamp to TDP and throttle performance
// after the turbo budget drains (the paper's 500 W peak endures ~1 s).
func TestTDPClampAfterTurboBudget(t *testing.T) {
	m := newTestMachine()
	cfg := AllMax(m.Topology())
	if err := m.Apply(0, cfg); err != nil {
		t.Fatal(err)
	}
	acts := idleActs(m)
	for i := range acts[0].Busy {
		acts[0].Busy[i] = 1
	}
	acts[0].DynScale = 1.3 // AVX-heavy FIRESTARTER load
	acts[0].MemGBs = PeakBandwidthGBs

	m.Step(100*time.Millisecond, acts)
	pkg0, _, _ := m.LastPower()
	if pkg0[0] <= m.Params().TDPWatts {
		t.Fatalf("initial turbo power %.1f W should exceed TDP %.1f W", pkg0[0], m.Params().TDPWatts)
	}
	if m.ThrottleFactor(0) != 1 {
		t.Fatal("should not throttle while turbo budget remains")
	}
	for i := 0; i < 50; i++ {
		m.Step(100*time.Millisecond, acts)
	}
	pkgN, _, _ := m.LastPower()
	if pkgN[0] > m.Params().TDPWatts+0.001 {
		t.Errorf("sustained power %.1f W exceeds TDP", pkgN[0])
	}
	if f := m.ThrottleFactor(0); f >= 1 || f <= 0 {
		t.Errorf("throttle factor = %v, want in (0,1)", f)
	}
}

func TestStepSplitsAtPendingApply(t *testing.T) {
	m := newTestMachine()
	cfg := AllMax(m.Topology())
	if err := m.Apply(0, cfg); err != nil {
		t.Fatal(err)
	}
	acts := idleActs(m)
	for i := range acts[0].Busy {
		acts[0].Busy[i] = 1
	}
	// One big step spanning the apply boundary: the energy must reflect
	// mostly the new (expensive) configuration, but not entirely.
	m.Step(time.Second, acts)
	fullStepJ := m.TrueEnergy(0, DomainPackage)

	// Reference: a machine where the config settled before stepping.
	ref := newTestMachine()
	if err := ref.Apply(0, cfg); err != nil {
		t.Fatal(err)
	}
	ref.Step(ApplyLatency, idleActs(ref))
	j0 := ref.TrueEnergy(0, DomainPackage)
	ref.Step(time.Second, acts)
	refJ := ref.TrueEnergy(0, DomainPackage) - j0

	if fullStepJ >= refJ {
		t.Errorf("step spanning apply (%.2f J) should cost slightly less than settled run (%.2f J)", fullStepJ, refJ)
	}
	if fullStepJ < refJ*0.99 {
		t.Errorf("step spanning apply (%.2f J) lost too much energy vs settled run (%.2f J)", fullStepJ, refJ)
	}
}

func TestBandwidthCapAndLatencyFollowUncore(t *testing.T) {
	m := newTestMachine()
	cfg := NewConfiguration(m.Topology())
	cfg.Threads[0] = true
	cfg.UncoreMHz = MinUncoreMHz
	if err := m.Apply(0, cfg); err != nil {
		t.Fatal(err)
	}
	m.Step(time.Millisecond, idleActs(m))
	lowBW, lowLat := m.BandwidthCap(0), m.MemLatency(0)
	cfg.UncoreMHz = MaxUncoreMHz
	if err := m.Apply(0, cfg); err != nil {
		t.Fatal(err)
	}
	m.Step(time.Millisecond, idleActs(m))
	highBW, highLat := m.BandwidthCap(0), m.MemLatency(0)
	if highBW <= lowBW {
		t.Errorf("bandwidth cap should grow with uncore: %.1f -> %.1f", lowBW, highBW)
	}
	if highLat >= lowLat {
		t.Errorf("memory latency should shrink with uncore: %.1f -> %.1f", lowLat, highLat)
	}
	if math.Abs(highBW-PeakBandwidthGBs) > 0.01 {
		t.Errorf("max-uncore bandwidth = %.1f, want %.1f", highBW, PeakBandwidthGBs)
	}
}

func TestResidencyAccounting(t *testing.T) {
	m := newTestMachine()
	// 100 ms deep sleep (everything idle).
	m.Step(100*time.Millisecond, idleActs(m))
	// Then socket 0 runs a core for 200 ms: socket 1 idles with a
	// running uncore (inter-socket dependency).
	cfg := NewConfiguration(m.Topology())
	cfg.Threads[0] = true
	if err := m.Apply(0, cfg); err != nil {
		t.Fatal(err)
	}
	m.Step(200*time.Millisecond, idleActs(m))

	a0, i0, deep := m.Residency(0)
	a1, i1, _ := m.Residency(1)
	approx := func(got, want float64) bool { return got > want-0.01 && got < want+0.01 }
	if !approx(deep, 0.1) {
		t.Errorf("deep sleep = %.3fs, want ~0.1", deep)
	}
	if !approx(a0, 0.2) || !approx(i0, 0) {
		t.Errorf("socket 0 residency = %.3f/%.3f, want 0.2 active", a0, i0)
	}
	if !approx(a1, 0) || !approx(i1, 0.2) {
		t.Errorf("socket 1 residency = %.3f/%.3f, want 0.2 idle-unhalted", a1, i1)
	}
}

func TestZeroAndNegativeStepIgnored(t *testing.T) {
	m := newTestMachine()
	m.Step(0, idleActs(m))
	m.Step(-time.Second, idleActs(m))
	if m.Now() != 0 {
		t.Errorf("Now = %v after zero/negative steps, want 0", m.Now())
	}
}
