package sim

import (
	"testing"
	"time"

	"ecldb/internal/hw"
	"ecldb/internal/loadprofile"
	"ecldb/internal/obs"
	"ecldb/internal/obs/energyattr"
	"ecldb/internal/obs/trace"
	"ecldb/internal/workload"
)

// allSinks returns an observer with every sink attached: the event log
// and metrics, query tracing (the Perfetto export and phase breakdown),
// and energy attribution.
func allSinks() *obs.Observer {
	ob := obs.New(0)
	ob.Trace = trace.New(3)
	ob.Energy = energyattr.New(hw.HaswellEP().Sockets)
	return ob
}

// stepEquivOptions builds the idle-heavy scenario of the production-vs-
// reference proof: an ECL run over a stepped profile whose zero plateaus
// give the quiescent fast-forward (stretches with every socket idle and
// with workers spinning, closed-form integration) real windows to claim,
// with every observability sink attached so all exports enter the
// comparison. Stretches require quiescence, so no traced query span can
// overlap one.
func stepEquivOptions(reference bool) Options {
	return Options{
		Workload: workload.NewKV(false),
		Load: loadprofile.Step{
			Levels:  []float64{5000, 0, 0, 0, 8000, 0, 0, 0, 2000},
			StepLen: 2 * time.Second,
		},
		Governor:  GovernorECL,
		Prewarm:   true,
		Seed:      7,
		Obs:       allSinks(),
		Reference: reference,
	}
}

// TestStepPathsByteIdentical proves the production step path (the
// sample-boundary loop, the epoch-keyed kernel cache, quiescent
// fast-forward, and closed-form stretch integration) against the
// per-quantum reference walk (Options.Reference): the two must digest
// bit for bit over the full observable surface (digestRun).
// scripts/check.sh runs it under the race detector.
//
//	busy: on a profile that never quiesces no fast-forward can engage,
//	      so this part proves the run loop and the kernel cache.
//	idle: on the idle-heavy stepped profile every fast path engages in
//	      production and none in the reference. Every accumulator a
//	      closed-form stretch advances is an integer, so the stretch adds
//	      exactly what its quanta would (DESIGN.md §16).
//
// Both runs of both parts must also conserve energy exactly.
func TestStepPathsByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name     string
		opts     func(reference bool) Options
		fastPath bool // production must engage every fast path
	}{
		{"busy", func(reference bool) Options {
			o := shortECLOpts(7, allSinks())
			o.Reference = reference
			return o
		}, false},
		{"idle", stepEquivOptions, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prodOpts, refOpts := tc.opts(false), tc.opts(true)
			prod, ps, _ := digestRun(t, prodOpts)
			ref, rs, _ := digestRun(t, refOpts)
			if rs.idleWindows != 0 || rs.awakeWindows != 0 || rs.batchQuanta != 0 {
				t.Errorf("reference engaged a fast path (idle %d, awake %d, batched quanta %d)",
					rs.idleWindows, rs.awakeWindows, rs.batchQuanta)
			}
			engaged := ps.idleWindows != 0 && ps.awakeWindows != 0 && ps.batchQuanta != 0
			idle := ps.idleWindows == 0 && ps.awakeWindows == 0 && ps.batchQuanta == 0
			if tc.fastPath && !engaged || !tc.fastPath && !idle {
				t.Errorf("production fast paths: idle %d, awake %d, batched quanta %d; want all engaged: %v",
					ps.idleWindows, ps.awakeWindows, ps.batchQuanta, tc.fastPath)
			}
			if prod != ref {
				t.Errorf("production digest diverged from the reference:\n  %x\n  %x", prod, ref)
			}
			assertEnergyConservation(t, "production", ps, prodOpts.Obs.Energy)
			assertEnergyConservation(t, "reference", rs, refOpts.Obs.Energy)
		})
	}
}

// assertEnergyConservation asserts the attribution meter's conservation
// contract after a run: the meter's integrated mirror equals the
// machine's true RAPL counters on every step path (Accrue receives the
// very nanojoules the counters add), and the attributed partition never
// claims more than was integrated (the residual, integ − queries −
// control in whole nanojoules, is non-negative). It also guards against
// vacuity: the run must actually have attributed query and control
// energy, observed queries, recorded spans, and closed ledger records.
func assertEnergyConservation(t *testing.T, name string, s *Sim, m *energyattr.Meter) {
	t.Helper()
	for sock := 0; sock < s.topo.Sockets; sock++ {
		for _, d := range []struct {
			meter int
			hw    hw.Domain
		}{{energyattr.DomainPackage, hw.DomainPackage}, {energyattr.DomainDRAM, hw.DomainDRAM}} {
			integ := m.Integrated(sock, d.meter)
			truth := s.machine.TrueEnergy(sock, d.hw)
			if integ != truth {
				t.Errorf("%s: socket %d %s meter integ %v != machine TrueEnergy %v",
					name, sock, energyattr.DomainName(d.meter), integ, truth)
			}
			if r := m.ResidualJ(sock, d.meter); r < 0 {
				t.Errorf("%s: socket %d %s residual %v: the carve-outs claim more than was integrated",
					name, sock, energyattr.DomainName(d.meter), r)
			}
		}
	}
	if m.QueriesTotalJ() <= 0 {
		t.Errorf("%s: no energy attributed to queries; the conservation proof is vacuous", name)
	}
	if m.ControlTotalJ() <= 0 {
		t.Errorf("%s: no energy attributed to control; the conservation proof is vacuous", name)
	}
	if m.QueryCount() == 0 {
		t.Errorf("%s: meter observed no completed queries", name)
	}
	if len(m.Spans()) == 0 {
		t.Errorf("%s: no energy spans recorded despite tracing being attached", name)
	}
	if len(m.Ledger()) == 0 {
		t.Errorf("%s: audit ledger is empty despite reconfigurations", name)
	}
	if !m.HasBaseline() || m.BaselineTotalJ() <= 0 {
		t.Errorf("%s: frozen baseline never accrued (has=%v total=%v)", name, m.HasBaseline(), m.BaselineTotalJ())
	}
}

// settleAllMax applies the full configuration to every socket and steps
// the machine past the apply latency so it is effective.
func settleAllMax(t *testing.T, s *Sim) {
	t.Helper()
	for sock := 0; sock < s.topo.Sockets; sock++ {
		if err := s.machine.Apply(sock, hw.AllMax(s.topo)); err != nil {
			t.Fatal(err)
		}
	}
	s.machine.Step(hw.ApplyLatency, newZeroActs(s.topo))
}

// TestKernelRefreshesOnMachineEpoch asserts that a configuration change
// invalidates the step kernel: the cached budgets must follow the
// machine's effective state, not the state at cache construction.
func TestKernelRefreshesOnMachineEpoch(t *testing.T) {
	s, err := New(Options{
		Workload: workload.NewKV(true),
		Load:     loadprofile.Constant{Qps: 100, Len: time.Second},
		Governor: GovernorECL,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.initKernels()
	if k := s.kernelFor(0); !k.idle || k.budget[0] != 0 {
		t.Fatalf("fresh machine kernel not idle: idle=%v budget0=%v", k.idle, k.budget[0])
	}
	settleAllMax(t, s)
	k := s.kernelFor(0)
	if k.idle || k.budget[0] <= 0 {
		t.Fatalf("kernel stale after Apply+settle: idle=%v budget0=%v", k.idle, k.budget[0])
	}
}

// TestKernelRefreshAllocatesNothing asserts that refreshing a kernel to
// an already-seen configuration does not allocate: the configuration key
// is built into a reused buffer and looked up without a string
// conversion, and only a first sighting renders the key and its name.
func TestKernelRefreshAllocatesNothing(t *testing.T) {
	s, err := New(Options{
		Workload: workload.NewKV(true),
		Load:     loadprofile.Constant{Qps: 100, Len: time.Second},
		Governor: GovernorECL,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.initKernels()
	settleAllMax(t, s)
	k := s.kernelFor(0)
	if k.idle || k.key == "" {
		t.Fatalf("kernel not keyed after settle: idle=%v key=%q", k.idle, k.key)
	}
	ce, we := k.cfgEpoch, k.chEpoch
	allocs := testing.AllocsPerRun(100, func() {
		s.refreshKernel(0, k, ce, we)
	})
	if allocs != 0 {
		t.Fatalf("refreshing to a seen configuration allocates %.1f times, want 0", allocs)
	}
	if got := s.configName[k.key]; got.key != k.key || got.name == "" {
		t.Fatalf("configuration %q labelled %+v", k.key, got)
	}
}

// TestKernelRefreshesOnWorkloadSwitch asserts that installing a workload
// with different hardware characteristics moves the characteristics epoch
// and re-derives the kernel's capacity.
func TestKernelRefreshesOnWorkloadSwitch(t *testing.T) {
	s, err := New(Options{
		Workload: workload.NewKV(true),
		Load:     loadprofile.Constant{Qps: 100, Len: time.Second},
		Governor: GovernorECL,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.initKernels()
	settleAllMax(t, s)
	before := s.kernelFor(0).caps.MemGBsAtFull
	epoch := s.engine.CharacteristicsEpoch()
	if err := s.engine.SwitchWorkload(workload.NewKV(false)); err != nil {
		t.Fatal(err)
	}
	if s.engine.CharacteristicsEpoch() == epoch {
		t.Fatal("SwitchWorkload did not move CharacteristicsEpoch")
	}
	after := s.kernelFor(0).caps.MemGBsAtFull
	if before == after {
		t.Fatalf("kernel capacity unchanged across workload switch (MemGBsAtFull %v)", before)
	}
}

// TestKernelRefreshesOnThrottle asserts that throttle engagement — a
// transition driven by the power limiter inside machine.Step, with no
// Apply involved — still invalidates the kernel and shrinks its budgets.
func TestKernelRefreshesOnThrottle(t *testing.T) {
	pp := hw.DefaultPowerParams()
	pp.TDPWatts = 30
	s, err := New(Options{
		Workload: workload.NewKV(true),
		Load:     loadprofile.Constant{Qps: 100, Len: time.Second},
		Governor: GovernorECL,
		Seed:     3,
		Power:    &pp,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.initKernels()
	settleAllMax(t, s)
	before := s.kernelFor(0).budget[0]
	s.advanceSynthetic(5 * time.Second) // full-tilt load drains the turbo budget
	if s.machine.ThrottleFactor(0) == 1 {
		t.Fatal("synthetic full load under a 30 W TDP never engaged the throttle")
	}
	after := s.kernelFor(0).budget[0]
	if after >= before {
		t.Fatalf("kernel budget did not shrink under throttling: before %v, after %v", before, after)
	}
}

// TestSimStepSteadyStateAllocatesNothing locks the optimized step path at
// zero allocations once warm: with the kernel cache in place, an idle
// steady state (baseline governor, zero load, firmware transitions long
// past) must not allocate per quantum.
func TestSimStepSteadyStateAllocatesNothing(t *testing.T) {
	s, err := New(Options{
		Workload: workload.NewKV(true),
		Load:     loadprofile.Constant{Qps: 0, Len: time.Hour},
		Governor: GovernorBaseline,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.baseline.Start()
	q := s.opts.Quantum
	for i := 0; i < 2000; i++ { // settle the config and outlast the EET delay
		s.step(q)
	}
	allocs := testing.AllocsPerRun(200, func() {
		s.step(q)
	})
	if allocs != 0 {
		t.Fatalf("steady-state sim step allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestAdvanceToSteadyStateAllocatesNothing locks the run loop's quiescent
// fast-forward at zero allocations once warm: advancing through a
// zero-load window, planning included, must not allocate, both with
// every socket parked and with every socket awake and spinning.
//
//	ecl-race-to-idle: an ECL run races to idle on zero load until a
//	                  sleep slice parks every socket; the controller keeps
//	                  ticking and switching segments through the windows.
//	baseline-awake:   the baseline governor keeps every thread at the
//	                  all-max configuration.
func TestAdvanceToSteadyStateAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name     string
		governor Governor
		idle     bool // every stretch runs with every socket idle
	}{
		{"ecl-race-to-idle", GovernorECL, true},
		{"baseline-awake", GovernorBaseline, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Options{
				Workload: workload.NewKV(true),
				Load:     loadprofile.Constant{Qps: 0, Len: time.Hour},
				Governor: tc.governor,
				Prewarm:  true,
				Seed:     5,
			})
			if err != nil {
				t.Fatal(err)
			}
			s.Prewarm()
			pt, switched := time.Duration(0), false
			advance := func(d time.Duration) {
				if err := s.advanceTo(&pt, pt+d, &switched); err != nil {
					t.Fatal(err)
				}
			}
			if s.controller != nil {
				s.controller.Start()
				advance(3 * time.Second) // past discovery into race-to-idle
				for !s.allSocketsParked() {
					if pt > time.Minute {
						t.Fatal("race-to-idle never parked every socket")
					}
					advance(s.opts.Quantum)
				}
			} else {
				s.baseline.Start()
			}
			for i := 0; i < 50; i++ { // settle the configuration and outlast the EET delay
				advance(100 * time.Millisecond)
			}
			idle0, awake0 := s.idleWindows, s.awakeWindows
			allocs := testing.AllocsPerRun(100, func() { advance(100 * time.Millisecond) })
			if allocs != 0 {
				t.Errorf("warm advanceTo allocates %.1f allocs/op, want 0", allocs)
			}
			idle, awake := s.idleWindows-idle0, s.awakeWindows-awake0
			if tc.idle && (idle == 0 || awake != 0) || !tc.idle && (awake == 0 || idle != 0) {
				t.Errorf("measured %d stretches with every socket idle and %d with sockets awake; want only the first kind: %v",
					idle, awake, tc.idle)
			}
		})
	}
}

// allSocketsParked reports whether every socket runs the idle
// configuration with no change pending.
func (s *Sim) allSocketsParked() bool {
	for sock := 0; sock < s.topo.Sockets; sock++ {
		if !s.machine.Effective(sock).Idle() || !s.machine.Requested(sock).Idle() {
			return false
		}
	}
	return true
}

// benchStepKernel measures one live step (load offer + full stack quantum)
// on the production step (the epoch-keyed kernel cache) or the reference
// step; the pair quantifies what the memoization buys on the per-quantum
// path. Both drive s.step directly, so no fast-forward can engage.
func benchStepKernel(b *testing.B, reference bool) {
	s, err := New(Options{
		Workload:  workload.NewKV(true),
		Load:      loadprofile.Constant{Qps: 3000, Len: time.Hour},
		Governor:  GovernorECL,
		Prewarm:   true,
		Seed:      9,
		Reference: reference,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.Prewarm()
	s.controller.Start()
	q := s.opts.Quantum
	for i := 0; i < 2000; i++ {
		if err := s.engine.OfferLoad(3000, q, s.clock.Now()); err != nil {
			b.Fatal(err)
		}
		s.step(q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.engine.OfferLoad(3000, q, s.clock.Now()); err != nil {
			b.Fatal(err)
		}
		s.step(q)
	}
}

func BenchmarkStepKernel(b *testing.B)          { benchStepKernel(b, false) }
func BenchmarkStepKernelReference(b *testing.B) { benchStepKernel(b, true) }

// benchIdleHeavy times Run over a full 60 s baseline simulation whose
// load profile is two short bursts around a long zero plateau — the shape
// where the run loop's quiescent stretches (workers spinning through
// IdleStretch windows) dominate the walk. Building the Sim (the KV
// partitions) stays outside the timer. The
// Reference variant runs the identical scenario on the per-quantum
// reference walk, so the pair reads what the production path's
// fast-forward buys directly off a BENCH_*.json snapshot. No observer is
// attached: this measures the headless sweep configuration the figure
// regenerators run in.
func benchIdleHeavy(b *testing.B, reference bool) {
	levels := make([]float64, 30)
	levels[0], levels[len(levels)-1] = 4000, 4000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := New(Options{
			Workload:  workload.NewKV(true),
			Load:      loadprofile.Step{Levels: levels, StepLen: 2 * time.Second},
			Governor:  GovernorBaseline,
			Prewarm:   true,
			Seed:      13,
			Reference: reference,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIdleHeavyRun(b *testing.B)          { benchIdleHeavy(b, false) }
func BenchmarkIdleHeavyRunReference(b *testing.B) { benchIdleHeavy(b, true) }
