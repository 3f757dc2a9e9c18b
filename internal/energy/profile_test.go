package energy

import (
	"testing"
	"time"

	"ecldb/internal/hw"
	"ecldb/internal/perfmodel"
	"ecldb/internal/units"
)

// smallProfile builds a 3-entry profile with hand-set measurements:
// a slow/efficient entry, a fast/inefficient entry, and idle.
func smallProfile(t *testing.T) (*Profile, *Entry, *Entry) {
	t.Helper()
	slow := hw.NewConfiguration(topo)
	slow.Threads[0], slow.Threads[1] = true, true
	fast := hw.AllMax(topo)
	p := NewProfile(topo, []hw.Configuration{hw.NewConfiguration(topo), slow, fast})
	if _, err := p.Update(slow, 20, 4e9, 0); err != nil { // eff 2e8
		t.Fatal(err)
	}
	if _, err := p.Update(fast, 150, 1.5e10, 0); err != nil { // eff 1e8
		t.Fatal(err)
	}
	if _, err := p.Update(hw.NewConfiguration(topo), 5, 0, 0); err != nil {
		t.Fatal(err)
	}
	return p, p.Lookup(slow), p.Lookup(fast)
}

func TestProfileDeduplicates(t *testing.T) {
	a := hw.NewConfiguration(topo)
	a.Threads[0] = true
	b := a.Clone()
	b.CoreMHz[5] = hw.TurboMHz // inactive core clock: same hardware state
	p := NewProfile(topo, []hw.Configuration{a, b})
	if p.Size() != 1 {
		t.Fatalf("Size = %d, want 1 after dedup", p.Size())
	}
}

func TestProfileIdleTracked(t *testing.T) {
	p := NewProfile(topo, []hw.Configuration{hw.AllMax(topo), hw.NewConfiguration(topo)})
	if p.Idle() == nil || !p.Idle().Config.Idle() {
		t.Fatal("idle entry not tracked")
	}
}

func TestUpdateUnknownConfigFails(t *testing.T) {
	p := NewProfile(topo, []hw.Configuration{hw.NewConfiguration(topo)})
	if _, err := p.Update(hw.AllMax(topo), 100, 1e10, 0); err == nil {
		t.Error("want error for unknown configuration")
	}
}

func TestUpdateRejectsNegative(t *testing.T) {
	p := NewProfile(topo, []hw.Configuration{hw.AllMax(topo)})
	if _, err := p.Update(hw.AllMax(topo), -1, 1e10, 0); err == nil {
		t.Error("want error for negative power")
	}
}

func TestUpdateSmoothsAndReportsDrift(t *testing.T) {
	p := NewProfile(topo, []hw.Configuration{hw.AllMax(topo)})
	cfg := hw.AllMax(topo)
	drift, err := p.Update(cfg, 100, 1e10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if drift != 0 {
		t.Errorf("first evaluation drift = %v, want 0", drift)
	}
	e := p.Lookup(cfg)
	if e.PowerW != 100 || e.Score != 1e10 {
		t.Fatalf("first evaluation stored %+v", e)
	}
	// Second update with +30 % score: a moderate deviation smooths in
	// (EWMA) and reports the efficiency drift.
	drift, err = p.Update(cfg, 100, 1.3e10, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if e.Score != 1.15e10 {
		t.Errorf("EWMA score = %g, want 1.15e10", e.Score)
	}
	if drift < 0.1 || drift > 0.2 {
		t.Errorf("drift = %v, want ~0.15", drift)
	}
	if e.LastEval != time.Second {
		t.Errorf("LastEval = %v, want 1s", e.LastEval)
	}
}

func TestUpdateOverwritesOnLargeDeviation(t *testing.T) {
	// A measurement deviating by more than 50 % means the stored value
	// is from a different workload: overwrite instead of averaging.
	p := NewProfile(topo, []hw.Configuration{hw.AllMax(topo)})
	cfg := hw.AllMax(topo)
	if _, err := p.Update(cfg, 100, 1e10, 0); err != nil {
		t.Fatal(err)
	}
	drift, err := p.Update(cfg, 80, 3e9, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	e := p.Lookup(cfg)
	if e.Score != 3e9 || e.PowerW != 80 {
		t.Errorf("large deviation should overwrite: score %g power %g", e.Score, e.PowerW)
	}
	if drift < 0.5 {
		t.Errorf("drift = %v, want large", drift)
	}
}

func TestRescaleStale(t *testing.T) {
	slow := hw.NewConfiguration(topo)
	slow.Threads[0], slow.Threads[1] = true, true
	fast := hw.AllMax(topo)
	p := NewProfile(topo, []hw.Configuration{hw.NewConfiguration(topo), slow, fast})
	if _, err := p.Update(slow, 20, 4e9, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Update(fast, 150, 1.5e10, 9*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Update(hw.NewConfiguration(topo), 5, 0, 0); err != nil {
		t.Fatal(err)
	}
	// At t=10s with maxAge 5s, only the slow entry (evaluated at 0) is
	// stale; the idle entry is never rescaled.
	p.RescaleStale(10*time.Second, 5*time.Second, 0.5, 2)
	if got := p.Lookup(slow); got.Score != 2e9 || got.PowerW != 40 {
		t.Errorf("stale entry not rescaled: score %g power %g", got.Score, got.PowerW)
	}
	if got := p.Lookup(fast); got.Score != 1.5e10 || got.PowerW != 150 {
		t.Errorf("fresh entry must not be rescaled: score %g power %g", got.Score, got.PowerW)
	}
	if got := p.Idle(); got.PowerW != 5 {
		t.Errorf("idle entry must not be rescaled: power %g", got.PowerW)
	}
	// Degenerate ratios are ignored.
	p.RescaleStale(10*time.Second, 0, -1, 0)
	if got := p.Lookup(fast); got.Score != 1.5e10 {
		t.Error("invalid ratios should be a no-op")
	}
}

func TestMostEfficientAndZones(t *testing.T) {
	p, slow, fast := smallProfile(t)
	if got := p.MostEfficient(0); got != slow {
		t.Fatalf("MostEfficient = %+v, want the slow/efficient entry", got)
	}
	if z := p.ZoneOf(slow); z != ZoneOptimal {
		t.Errorf("slow zone = %v, want optimal", z)
	}
	if z := p.ZoneOf(fast); z != ZoneOver {
		t.Errorf("fast zone = %v, want over-utilization", z)
	}
	// An entry below the optimal score is in the under zone.
	under := &Entry{Score: 1e9, PowerW: 10, Evaluated: true}
	if z := p.ZoneOf(under); z != ZoneUnder {
		t.Errorf("under zone = %v, want under-utilization", z)
	}
}

func TestZoneString(t *testing.T) {
	if ZoneUnder.String() == "" || ZoneOptimal.String() == "" || ZoneOver.String() == "" {
		t.Error("zone names must be non-empty")
	}
}

func TestForPerformance(t *testing.T) {
	p, slow, fast := smallProfile(t)
	// Low demand: the efficient entry satisfies it.
	if got := p.ForPerformance(1e9, 0); got != slow {
		t.Errorf("ForPerformance(low) = %v, want slow entry", got.Config)
	}
	// Demand beyond the slow entry: only the fast one qualifies.
	if got := p.ForPerformance(1e10, 0); got != fast {
		t.Errorf("ForPerformance(high) = %v, want fast entry", got.Config)
	}
	// Demand beyond everything: best effort returns the fastest.
	if got := p.ForPerformance(1e12, 0); got != fast {
		t.Errorf("ForPerformance(overload) = %v, want fastest entry", got.Config)
	}
}

func TestForPerformanceEmptyProfile(t *testing.T) {
	p := NewProfile(topo, []hw.Configuration{hw.NewConfiguration(topo)})
	if got := p.ForPerformance(1, 0); got != nil {
		t.Errorf("ForPerformance on unevaluated profile = %v, want nil", got)
	}
}

func TestSkylineParetoProperty(t *testing.T) {
	p := NewProfile(topo, mustGenerate(t, DefaultGeneratorParams()))
	if err := EvaluateModel(p, topo, hw.DefaultPowerParams(), perfmodel.ComputeBound(), 0); err != nil {
		t.Fatal(err)
	}
	sky := p.Skyline()
	if len(sky) < 3 {
		t.Fatalf("skyline has %d entries, want a populated envelope", len(sky))
	}
	// The envelope is sorted by score and unimodal in efficiency: it
	// rises through the under-utilization zone to the optimum, then
	// falls through the over-utilization zone.
	peak := 0
	for i := 1; i < len(sky); i++ {
		if sky[i].Score < sky[i-1].Score {
			t.Fatalf("skyline not ascending in score at %d", i)
		}
		if sky[i].Efficiency() > sky[peak].Efficiency() {
			peak = i
		}
	}
	if opt := p.MostEfficient(0); sky[peak] != opt {
		t.Fatalf("skyline peak %s is not the optimal entry %s", sky[peak].Config, opt.Config)
	}
	for i := 1; i <= peak; i++ {
		if sky[i].Efficiency() <= sky[i-1].Efficiency() {
			t.Fatalf("under-zone envelope not increasing at %d", i)
		}
	}
	for i := peak + 1; i < len(sky); i++ {
		if sky[i].Efficiency() >= sky[i-1].Efficiency() {
			t.Fatalf("over-zone envelope not decreasing at %d", i)
		}
	}
	// Past the optimum the envelope is the Pareto frontier: no entry may
	// dominate a skyline entry there.
	for _, s := range sky[peak:] {
		for _, e := range p.Entries() {
			if !e.Evaluated || e.Config.Idle() {
				continue
			}
			if e.Score > s.Score && e.Efficiency() > s.Efficiency() {
				t.Fatalf("entry %s dominates skyline entry %s", e.Config, s.Config)
			}
		}
	}
	// Every under-zone skyline entry is the most efficient configuration
	// at or below its performance level.
	for _, s := range sky[:peak] {
		for _, e := range p.Entries() {
			if !e.Evaluated || e.Config.Idle() {
				continue
			}
			if e.Score <= s.Score && e.Efficiency() > s.Efficiency() {
				t.Fatalf("entry %s beats under-zone skyline entry %s", e.Config, s.Config)
			}
		}
	}
}

func TestStaleTracking(t *testing.T) {
	p, _, _ := smallProfile(t)
	// All three entries were evaluated at t=0; at t=10s with maxAge 5s
	// the two non-idle entries are stale.
	stale := p.Stale(10*time.Second, 5*time.Second)
	if len(stale) != 2 {
		t.Fatalf("stale = %d entries, want 2 (idle excluded)", len(stale))
	}
	// Unevaluated entries are always stale.
	p.InvalidateAll()
	stale = p.Stale(0, time.Hour)
	if len(stale) != 2 {
		t.Fatalf("stale after invalidate = %d, want 2", len(stale))
	}
}

func TestEntryEfficiency(t *testing.T) {
	e := &Entry{}
	if e.Efficiency() != 0 {
		t.Error("unevaluated entry should have zero efficiency")
	}
	e.Evaluated = true
	e.PowerW, e.Score = 50, 1e10
	if got := e.Efficiency(); got != 2e8 {
		t.Errorf("Efficiency = %g, want 2e8", got)
	}
}

func TestRTIEfficiency(t *testing.T) {
	opt := &Entry{Evaluated: true, PowerW: 40, Score: 1e10}
	idleW := units.WattsOf(10)
	// At full demand, RTI equals the entry's own efficiency.
	if got, want := RTIEfficiency(opt, idleW, 1e10), opt.Efficiency(); got != want {
		t.Errorf("RTI at full duty = %g, want %g", got, want)
	}
	// At half demand, efficiency sits between the entry's efficiency
	// and the naive half-power value.
	half := RTIEfficiency(opt, idleW, 5e9)
	if half <= 0 || half >= opt.Efficiency() {
		t.Errorf("RTI at half duty = %g, want within (0, %g)", half, opt.Efficiency())
	}
	// RTI with a zero-power idle would preserve efficiency exactly.
	if got := RTIEfficiency(opt, 0, 5e9); !closeTo(got, opt.Efficiency(), 1e-9) {
		t.Errorf("RTI with free idle = %g, want %g", got, opt.Efficiency())
	}
	if RTIEfficiency(nil, idleW, 1) != 0 || RTIEfficiency(opt, idleW, 0) != 0 {
		t.Error("degenerate RTI inputs should yield 0")
	}
}

func TestEvaluateModelFillsEverything(t *testing.T) {
	p := NewProfile(topo, mustGenerate(t, DefaultGeneratorParams()))
	if err := EvaluateModel(p, topo, hw.DefaultPowerParams(), perfmodel.MemoryScan(), time.Second); err != nil {
		t.Fatal(err)
	}
	for _, e := range p.Entries() {
		if !e.Evaluated {
			t.Fatalf("entry %s not evaluated", e.Config)
		}
		if !e.Config.Idle() && (e.PowerW <= 0 || e.Score <= 0) {
			t.Fatalf("entry %s has power %g score %g", e.Config, e.PowerW, e.Score)
		}
	}
	if p.Idle().Score != 0 {
		t.Error("idle entry must have zero score")
	}
}

func mustGenerate(t *testing.T, gp GeneratorParams) []hw.Configuration {
	t.Helper()
	cfgs, err := Generate(topo, gp)
	if err != nil {
		t.Fatal(err)
	}
	return cfgs
}

func closeTo(a, b, rel float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= rel*abs(b)
}
