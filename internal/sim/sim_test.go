package sim

import (
	"bytes"
	"testing"
	"time"

	"ecldb/internal/energy"
	"ecldb/internal/loadprofile"
	"ecldb/internal/workload"
)

// shortRun executes a 20 s constant-load run.
func shortRun(t *testing.T, gov Governor, qps float64, opts func(*Options)) *Result {
	t.Helper()
	o := Options{
		Workload: workload.NewKV(false),
		Load:     loadprofile.Constant{Qps: qps, Len: 20 * time.Second},
		Governor: gov,
		Prewarm:  gov == GovernorECL,
		Seed:     7,
	}
	if opts != nil {
		opts(&o)
	}
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("missing workload/load should fail")
	}
	if _, err := New(Options{Workload: workload.NewKV(true)}); err == nil {
		t.Error("missing load should fail")
	}
	if _, err := New(Options{Workload: workload.NewKV(true),
		Load: loadprofile.Constant{Qps: 1, Len: time.Second}, Governor: Governor(9)}); err == nil {
		t.Error("unknown governor should fail")
	}
}

func TestBaselineRunCompletesLoad(t *testing.T) {
	res := shortRun(t, GovernorBaseline, 5000, nil)
	if res.Submitted == 0 {
		t.Fatal("no queries submitted")
	}
	// At 5k qps (far below capacity) everything completes.
	if float64(res.Completed) < 0.99*float64(res.Submitted) {
		t.Fatalf("completed %d of %d", res.Completed, res.Submitted)
	}
	// Baseline RAPL power must sit in the machine's plausible range.
	p := res.Rec.Series("power_rapl_w")
	if p.Mean() < 100 || p.Mean() > 400 {
		t.Errorf("baseline mean power = %.1f W, want 100..400", p.Mean())
	}
	// Always-on: all 48 threads active throughout.
	at := res.Rec.Series("active_threads")
	if at.Min() != 48 {
		t.Errorf("baseline active threads min = %v, want 48", at.Min())
	}
	if res.EnergyJ <= 0 || res.PSUEnergyJ <= res.EnergyJ {
		t.Error("energy accounting inconsistent")
	}
}

func TestECLSavesEnergyAtPartialLoad(t *testing.T) {
	base := shortRun(t, GovernorBaseline, 8000, nil)
	eclRes := shortRun(t, GovernorECL, 8000, nil)
	if float64(eclRes.Completed) < 0.99*float64(eclRes.Submitted) {
		t.Fatalf("ECL dropped queries: %d of %d", eclRes.Completed, eclRes.Submitted)
	}
	saving := 1 - eclRes.EnergyJ.Div(base.EnergyJ)
	if saving < 0.10 {
		t.Errorf("ECL saving at partial load = %.1f%%, want >= 10%%", saving*100)
	}
	// The paper's headline property: the ECL never draws more power
	// than the baseline. Compare means (instantaneous samples may
	// alias RTI switching).
	if eclRes.Rec.Series("power_rapl_w").Mean() >= base.Rec.Series("power_rapl_w").Mean() {
		t.Error("ECL mean power should undercut baseline")
	}
}

func TestECLKeepsLatencyUnderLimitAtModerateLoad(t *testing.T) {
	res := shortRun(t, GovernorECL, 8000, nil)
	// The bound tolerates the cold-start transient (~1 s of a 20 s run).
	if res.ViolationFrac > 0.08 {
		t.Errorf("violation fraction = %.2f%% at moderate load, want < 8%%", res.ViolationFrac*100)
	}
	// Steady state must be violation-free: the second half of the run
	// keeps the windowed average under the limit.
	lat := res.Rec.Series("latency_avg_ms")
	for i, ts := range lat.Times {
		if ts > 10*time.Second && lat.Values[i] > 100 {
			t.Errorf("windowed latency %v ms at %v exceeds the limit in steady state", lat.Values[i], ts)
		}
	}
}

func TestWorkloadSwitchMidRun(t *testing.T) {
	res := shortRun(t, GovernorECL, 4000, func(o *Options) {
		o.SwitchAt = 10 * time.Second
		o.SwitchTo = workload.NewKV(true)
	})
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	// Queries keep completing after the switch: submitted counts reset
	// neither; the run finishes without error.
	if res.Submitted <= res.Completed {
		// dropped in-flight queries at the switch mean submitted >
		// completed
		t.Log("all queries accounted for")
	}
}

func TestDeterminism(t *testing.T) {
	a := shortRun(t, GovernorECL, 6000, nil)
	b := shortRun(t, GovernorECL, 6000, nil)
	if a.EnergyJ != b.EnergyJ || a.Completed != b.Completed || a.AvgLatency != b.AvgLatency {
		t.Errorf("same seed diverged: %v/%v %d/%d %v/%v",
			a.EnergyJ, b.EnergyJ, a.Completed, b.Completed, a.AvgLatency, b.AvgLatency)
	}
}

func TestSeedChangesRun(t *testing.T) {
	a := shortRun(t, GovernorECL, 6000, nil)
	b := shortRun(t, GovernorECL, 6000, func(o *Options) { o.Seed = 8 })
	if a.EnergyJ == b.EnergyJ {
		t.Error("different seeds should perturb the run")
	}
}

func TestMeasureCapacityPositive(t *testing.T) {
	c, err := MeasureCapacity(workload.NewKV(false), 3)
	if err != nil {
		t.Fatal(err)
	}
	// Two sockets of bandwidth-bound scans: tens of thousands of
	// batches per second.
	if c < 10_000 || c > 200_000 {
		t.Errorf("capacity = %.0f qps, want 10k..200k", c)
	}
}

func TestEvaluateProfileHelper(t *testing.T) {
	p, err := EvaluateProfile(workload.NewTATP(true), energy.DefaultGeneratorParams())
	if err != nil {
		t.Fatal(err)
	}
	if p.MostEfficient(0) == nil || len(p.Skyline()) < 3 {
		t.Error("helper produced a degenerate profile")
	}
}

func TestPrewarmEstablishesProfiles(t *testing.T) {
	s, err := New(Options{
		Workload: workload.NewKV(false),
		Load:     loadprofile.Constant{Qps: 1000, Len: time.Second},
		Governor: GovernorECL,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Prewarm()
	for sock := 0; sock < 2; sock++ {
		prof := s.Controller().Socket(sock).Profile()
		if prof.MostEfficient(0) == nil {
			t.Fatalf("socket %d profile not established", sock)
		}
		for _, e := range prof.Entries() {
			if !e.Evaluated {
				t.Fatalf("socket %d: entry %s unevaluated after prewarm", sock, e.Config)
			}
		}
	}
	// The measured optimum should agree with the model-evaluated one on
	// the uncore preference for a bandwidth-bound workload.
	opt := s.Controller().Socket(0).Profile().MostEfficient(0)
	if opt.Config.UncoreMHz < 2100 {
		t.Errorf("measured optimum uncore = %d, want high for scans", opt.Config.UncoreMHz)
	}
}

// Section 5.1: the RTI controllers of different sockets synchronize their
// idle windows, because a socket can only enter its deepest sleep state
// (uncore halted) when every socket idles. Under low load the machine
// must therefore accumulate deep-sleep time even while serving queries.
func TestRTISynchronizationReachesDeepSleep(t *testing.T) {
	s, err := New(Options{
		Workload: workload.NewKV(false),
		Load:     loadprofile.Constant{Qps: 3000, Len: 15 * time.Second},
		Governor: GovernorECL,
		Prewarm:  true,
		Seed:     19,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, deepBefore := s.Machine().Residency(0)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no queries served")
	}
	_, _, deepAfter := s.Machine().Residency(0)
	deep := deepAfter - deepBefore
	// At ~10 % load with aligned RTI grids, a large share of the run is
	// machine-wide idle.
	if deep < 3 {
		t.Errorf("deep sleep during the run = %.1fs of 15s, want substantial overlap", deep)
	}
}

// Profiles survive a save/load round trip, and a restored profile skips
// the prewarm sweep on a later run of the same workload.
func TestProfileSaveLoadAcrossRuns(t *testing.T) {
	mk := func() *Sim {
		s, err := New(Options{
			Workload: workload.NewKV(false),
			Load:     loadprofile.Constant{Qps: 1000, Len: time.Second},
			Governor: GovernorECL,
			Seed:     13,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	first := mk()
	first.Prewarm()
	var buf bytes.Buffer
	if err := first.SaveProfiles(&buf); err != nil {
		t.Fatal(err)
	}

	second := mk()
	if err := second.LoadProfiles(&buf); err != nil {
		t.Fatal(err)
	}
	for sock := 0; sock < 2; sock++ {
		want := first.Controller().Socket(sock).Profile().MostEfficient(0)
		got := second.Controller().Socket(sock).Profile().MostEfficient(0)
		if got == nil || !got.Config.Equal(want.Config, 2) {
			t.Fatalf("socket %d: restored optimum differs", sock)
		}
		if second.Controller().Socket(sock).AdaptPending() != 0 {
			t.Fatalf("socket %d: restored evaluated profile should not queue adaptation", sock)
		}
	}
	// Baseline sims have no profiles.
	base, err := New(Options{
		Workload: workload.NewKV(false),
		Load:     loadprofile.Constant{Qps: 1, Len: time.Second},
		Governor: GovernorBaseline,
		Seed:     13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := base.SaveProfiles(&buf); err == nil {
		t.Error("baseline SaveProfiles should fail")
	}
	if err := base.LoadProfiles(&buf); err == nil {
		t.Error("baseline LoadProfiles should fail")
	}
}

// The paper's reason for per-socket profiles: when the two processors
// face different workload characteristics, their measured optima diverge.
func TestPerSocketProfilesDiverge(t *testing.T) {
	split := workload.NewSplit(workload.NewKV(true), workload.NewKV(false), 2)
	s, err := New(Options{
		Workload: split,
		Load:     loadprofile.Constant{Qps: 1000, Len: time.Second},
		Governor: GovernorECL,
		Seed:     12,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Prewarm()
	opt0 := s.Controller().Socket(0).Profile().MostEfficient(0) // indexed side
	opt1 := s.Controller().Socket(1).Profile().MostEfficient(0) // scan side
	if opt0 == nil || opt1 == nil {
		t.Fatal("profiles not established")
	}
	if opt0.Config.Equal(opt1.Config, 2) {
		t.Errorf("optima should diverge: socket0 %s vs socket1 %s", opt0.Config, opt1.Config)
	}
	// The scan side needs the higher uncore clock.
	if opt1.Config.UncoreMHz <= opt0.Config.UncoreMHz {
		t.Errorf("scan socket uncore %d should exceed indexed socket %d",
			opt1.Config.UncoreMHz, opt0.Config.UncoreMHz)
	}
}

func TestGovernorString(t *testing.T) {
	if GovernorBaseline.String() != "baseline" || GovernorECL.String() != "ecl" {
		t.Error("governor names wrong")
	}
}
