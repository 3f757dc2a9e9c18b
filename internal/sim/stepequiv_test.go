package sim

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ecldb/internal/hw"
	"ecldb/internal/loadprofile"
	"ecldb/internal/obs"
	"ecldb/internal/obs/energyattr"
	"ecldb/internal/obs/trace"
	"ecldb/internal/relock"
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
// give the quiescent fast paths (idle macro-steps, active-but-workless
// stretches, closed-form integration) real windows to claim, with every
// observability sink attached so all exports enter the comparison.
// Macro windows require quiescence, so no traced query span can overlap
// one.
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
// discrete-event loop, the epoch-keyed kernel cache, quiescent
// fast-forward, and closed-form stretch integration) against the
// per-quantum reference walk (Options.Reference) in two parts.
// scripts/check.sh runs it under the race detector.
//
//	busy: on a profile that never quiesces no fast-forward can engage,
//	      so the two paths must digest bit for bit over the full
//	      observable surface (digestRun): the event loop and the kernel
//	      cache are exact.
//	idle: on the idle-heavy stepped profile every fast path engages in
//	      production and none in the reference. Closed-form stretches
//	      regroup float sums (P·(n·q) instead of n per-quantum terms), so
//	      every export the digest hashes is compared with internal/relock
//	      instead: integer observables byte-identical, floats within its
//	      default 1e-9 relative. scripts/relock.sh extends the check to
//	      regenerated artifacts.
//
// Both runs of both parts must also conserve energy exactly.
func TestStepPathsByteIdentical(t *testing.T) {
	t.Run("busy", func(t *testing.T) {
		prodOpts, refOpts := shortECLOpts(7, allSinks()), shortECLOpts(7, allSinks())
		refOpts.Reference = true
		prod, ps, _ := digestRun(t, prodOpts)
		ref, rs, _ := digestRun(t, refOpts)
		for _, r := range []struct {
			name string
			s    *Sim
		}{{"production", ps}, {"reference", rs}} {
			if r.s.macroWindows != 0 || r.s.stretchWindows != 0 || r.s.batchQuanta != 0 {
				t.Errorf("%s: fast-forward engaged on a busy profile (macro %d, stretch %d, batched quanta %d)",
					r.name, r.s.macroWindows, r.s.stretchWindows, r.s.batchQuanta)
			}
		}
		if prod != ref {
			t.Errorf("production digest diverged from the reference:\n  %x\n  %x", prod, ref)
		}
		assertEnergyConservation(t, "production", ps, prodOpts.Obs.Energy)
		assertEnergyConservation(t, "reference", rs, refOpts.Obs.Energy)
	})

	t.Run("idle", func(t *testing.T) {
		prodOpts, refOpts := stepEquivOptions(false), stepEquivOptions(true)
		_, ps, prod := digestRun(t, prodOpts)
		_, rs, ref := digestRun(t, refOpts)
		if ps.macroWindows == 0 || ps.stretchWindows == 0 || ps.batchQuanta == 0 {
			t.Errorf("production left a fast path unexercised (macro %d, stretch %d, batched quanta %d); the comparison is vacuous",
				ps.macroWindows, ps.stretchWindows, ps.batchQuanta)
		}
		if rs.macroWindows != 0 || rs.stretchWindows != 0 || rs.batchQuanta != 0 {
			t.Errorf("reference engaged a fast path (macro %d, stretch %d, batched quanta %d)",
				rs.macroWindows, rs.stretchWindows, rs.batchQuanta)
		}
		assertSemanticallyEqual(t, "production", ref, prod)
		refDir, prodDir := filepath.Join(t.TempDir(), "reference"), filepath.Join(t.TempDir(), "production")
		writeExports(t, refDir, ref)
		writeExports(t, prodDir, prod)
		reports, err := relock.CompareTrees(refDir, prodDir, relock.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reports {
			if !r.OK() {
				t.Errorf("%s: production diverged from the reference: %s", r.Path, r.Err)
			}
		}
		assertEnergyConservation(t, "production", ps, prodOpts.Obs.Energy)
		assertEnergyConservation(t, "reference", rs, refOpts.Obs.Energy)
	})
}

// writeExports renders every export digestRun hashes into dir, one file
// each, for the semantic differ.
func writeExports(t *testing.T, dir string, res *Result) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	ob := res.Obs
	text := func(f func() string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, f()); return err }
	}
	for _, e := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"series.csv", res.Rec.WriteCSV},
		{"events.jsonl", ob.Log.WriteJSONL},
		{"metrics.prom", ob.Metrics.WriteProm},
		{"explain.txt", text(func() string { return obs.Report(ob.Log) })},
		{"qtrace.json", ob.Trace.WritePerfetto},
		{"phases.txt", text(ob.Trace.Report)},
		{"eattr.jsonl", ob.Energy.WriteJSONL},
		{"eattr-report.txt", text(ob.Energy.Report)},
	} {
		var buf bytes.Buffer
		if err := e.write(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// assertEnergyConservation asserts the attribution meter's two-part
// conservation contract after a run: (1) the meter's integrated mirror
// matches the machine's true RAPL counters bit for bit on EVERY step
// path — Accrue is called once per counter-integration site with the
// identical float terms in the identical order, so the mirror follows
// whatever grouping (per-quantum or closed-form) the machine used; and
// (2) the attributed partition is exact by the subtractive identity
// integ − queries − control − residual == 0 per socket and domain (see
// energyattr.ResidualJ for why the additive restatement is the wrong
// check). It also guards against vacuity: the run must actually have
// attributed query and control energy, observed queries, recorded spans,
// and closed ledger records.
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
				t.Errorf("%s: socket %d %s meter integ %v != machine TrueEnergy %v (the mirror must be bitwise)",
					name, sock, energyattr.DomainName(d.meter), integ, truth)
			}
			if part := integ - m.QueriesJ(sock, d.meter) - m.ControlJ(sock, d.meter) - m.ResidualJ(sock, d.meter); part != 0 {
				t.Errorf("%s: socket %d %s partition leaks %v (subtractive identity must be exact)",
					name, sock, energyattr.DomainName(d.meter), part)
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

// assertSemanticallyEqual is the in-process semantic check between the
// reference float grouping and a batched run: every integer-exact
// observable matches bit for bit, and the accumulated energies agree
// within a tight relative epsilon (the regrouped sums differ only by
// association of exact per-quantum terms).
func assertSemanticallyEqual(t *testing.T, name string, ref, got *Result) {
	t.Helper()
	if got.Completed != ref.Completed || got.Submitted != ref.Submitted ||
		got.Violations != ref.Violations {
		t.Errorf("%s: query counters diverged from reference: completed %d/%d submitted %d/%d violations %d/%d",
			name, got.Completed, ref.Completed, got.Submitted, ref.Submitted, got.Violations, ref.Violations)
	}
	if got.AvgLatency != ref.AvgLatency || got.P99Latency != ref.P99Latency {
		t.Errorf("%s: latency summaries diverged from reference: avg %v/%v p99 %v/%v",
			name, got.AvgLatency, ref.AvgLatency, got.P99Latency, ref.P99Latency)
	}
	if got.MostApplied != ref.MostApplied {
		t.Errorf("%s: MostApplied diverged from reference: %q vs %q", name, got.MostApplied, ref.MostApplied)
	}
	if got.Duration != ref.Duration {
		t.Errorf("%s: duration diverged from reference: %v vs %v", name, got.Duration, ref.Duration)
	}
	const eps = 1e-9
	if relDelta(got.EnergyJ.Joules(), ref.EnergyJ.Joules()) > eps {
		t.Errorf("%s: RAPL energy drifted beyond %.0e relative: %v vs %v", name, eps, got.EnergyJ, ref.EnergyJ)
	}
	if relDelta(got.PSUEnergyJ.Joules(), ref.PSUEnergyJ.Joules()) > eps {
		t.Errorf("%s: PSU energy drifted beyond %.0e relative: %v vs %v", name, eps, got.PSUEnergyJ, ref.PSUEnergyJ)
	}
}

// relDelta returns |a-b| / max(|a|, |b|), or 0 when both are zero.
func relDelta(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
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

// benchIdleHeavy runs a full 60 s ECL simulation whose load profile is
// two short bursts around a long zero plateau — the shape where the
// discrete-event scheduler's quiescent stretches (idle macro-steps and
// active-but-workless IdleQuantum windows) dominate the walk. The
// Reference variant runs the identical scenario on the per-quantum
// reference walk, so the pair reads what the production path's
// fast-forward buys directly off a BENCH_*.json snapshot. No observer is
// attached: this measures the headless sweep configuration the figure
// regenerators run in.
func benchIdleHeavy(b *testing.B, reference bool) {
	levels := make([]float64, 30)
	levels[0], levels[len(levels)-1] = 4000, 4000
	for i := 0; i < b.N; i++ {
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
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIdleHeavyRun(b *testing.B)          { benchIdleHeavy(b, false) }
func BenchmarkIdleHeavyRunReference(b *testing.B) { benchIdleHeavy(b, true) }
