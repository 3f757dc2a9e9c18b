package energy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ecldb/internal/units"
)

func TestForPerformanceCappedPrefersCapFit(t *testing.T) {
	p, slow, fast := smallProfile(t)
	// Demand only the fast entry can satisfy, but a cap only the slow
	// entry fits under: the cap wins.
	e := p.ForPerformanceCapped(1e10, 50)
	if e != slow {
		t.Fatalf("got %+v, want the slow entry under the 50 W cap", e)
	}
	// Cap admits both: same answer as uncapped.
	if e := p.ForPerformanceCapped(1e10, 200); e != fast {
		t.Fatalf("got %+v, want the fast entry under a generous cap", e)
	}
	// No cap: delegates to ForPerformance.
	if e := p.ForPerformanceCapped(1e10, 0); e != p.ForPerformance(1e10) {
		t.Fatal("capW<=0 must behave exactly like ForPerformance")
	}
}

func TestForPerformanceCappedLeastViolatingFallback(t *testing.T) {
	p, slow, _ := smallProfile(t)
	// Cap below every evaluated entry: the lowest-power one comes back
	// rather than nil — the loop must keep running something.
	if e := p.ForPerformanceCapped(1, 10); e != slow {
		t.Fatalf("got %+v, want the lowest-power entry as fallback", e)
	}
}

func TestMostEfficientCapped(t *testing.T) {
	p, slow, fast := smallProfile(t)
	if e := p.MostEfficientCapped(0); e != p.MostEfficient() {
		t.Fatal("capW<=0 must behave exactly like MostEfficient")
	}
	if e := p.MostEfficientCapped(200); e != slow {
		t.Fatalf("got %+v, want the slow entry (highest efficiency)", e)
	}
	// Exclude the efficient entry; the fast one is all that remains.
	fast.PowerW, slow.PowerW = 150, 200
	if e := p.MostEfficientCapped(160); e != fast {
		t.Fatalf("got %+v, want the fast entry once slow exceeds the cap", e)
	}
	if e := p.MostEfficientCapped(10); e != nil {
		t.Fatalf("got %+v, want nil when nothing fits under the cap", e)
	}
}

// Property: over random measurement sets, ForPerformanceCapped (a) never
// exceeds the cap when any entry fits under it, (b) satisfies the demand
// whenever some under-cap entry does, and in that case (c) returns the
// most efficient such entry; MostEfficientCapped is the efficiency argmax
// of the under-cap subset.
func TestCappedSelectionProperties(t *testing.T) {
	cfgs, err := Generate(topo, DefaultGeneratorParams())
	if err != nil {
		t.Fatal(err)
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewProfile(topo, cfgs)
		// Evaluate a random subset with random measurements.
		for _, e := range p.Entries() {
			if e.Config.Idle() || rng.Float64() < 0.3 {
				continue
			}
			power := 20 + 300*rng.Float64()
			score := 1e9 * rng.Float64() * float64(1+e.Config.ActiveThreads())
			if _, err := p.Update(e.Config, units.WattsOf(power), units.HertzOf(score), time.Second); err != nil {
				t.Fatal(err)
			}
		}
		capW := units.WattsOf(20 + 320*rng.Float64())
		demand := units.HertzOf(5e9 * rng.Float64())
		got := p.ForPerformanceCapped(demand, capW)

		var underCap, meets []*Entry
		for _, e := range p.Entries() {
			if !e.Evaluated || e.Config.Idle() {
				continue
			}
			if e.PowerW <= capW {
				underCap = append(underCap, e)
				if e.Score >= demand {
					meets = append(meets, e)
				}
			}
		}
		if len(underCap) > 0 && (got == nil || got.PowerW > capW) {
			return false
		}
		if len(meets) > 0 {
			if got.Score < demand {
				return false
			}
			for _, e := range meets {
				if e.Efficiency() > got.Efficiency() {
					return false
				}
			}
		}
		opt := p.MostEfficientCapped(capW)
		if (opt == nil) != (len(underCap) == 0) {
			return false
		}
		for _, e := range underCap {
			if e.Efficiency() > opt.Efficiency()+1e-12 {
				return false
			}
		}
		if opt != nil && math.IsNaN(opt.Efficiency()) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
