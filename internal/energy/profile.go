package energy

import (
	"fmt"
	"sort"
	"time"

	"ecldb/internal/hw"
	"ecldb/internal/units"
)

// Entry is one configuration of an energy profile together with its most
// recent runtime measurements (Section 4.1): socket power (RAPL package +
// DRAM domains), performance score (instructions retired per second by
// the socket's active threads), and the derived energy efficiency.
type Entry struct {
	Config hw.Configuration
	// PowerW is the measured socket power under this configuration.
	PowerW units.Watt
	// Score is the measured performance score (instructions/s).
	Score units.Hertz
	// LastEval is the virtual time of the most recent evaluation.
	LastEval time.Duration
	// Evaluated reports whether the entry has ever been measured.
	Evaluated bool
}

// Efficiency returns the energy efficiency of the entry: performance
// score per watt (the paper's W^-1 metric). Unevaluated or zero-power
// entries report zero.
func (e *Entry) Efficiency() float64 {
	if !e.Evaluated || e.PowerW <= 0 {
		return 0
	}
	return units.PerWatt(e.Score, e.PowerW)
}

// Zone classifies a configuration relative to the profile's most
// energy-efficient entry (Section 4.3).
type Zone int

const (
	// ZoneUnder hosts configurations left of the most energy-efficient
	// one. The ECL covers this zone by race-to-idle switching against
	// the optimal configuration.
	ZoneUnder Zone = iota
	// ZoneOptimal hosts only the most energy-efficient configuration.
	ZoneOptimal
	// ZoneOver hosts configurations delivering more performance at
	// lower efficiency; applied only when the optimal zone cannot
	// master the load within the latency limit.
	ZoneOver
)

// String names the zone.
func (z Zone) String() string {
	switch z {
	case ZoneUnder:
		return "under-utilization"
	case ZoneOptimal:
		return "optimal"
	case ZoneOver:
		return "over-utilization"
	}
	return "unknown"
}

// Profile is the per-socket energy profile: the configuration set from the
// generator plus runtime measurements. It is maintained by one socket-level
// ECL and never shared across goroutines.
type Profile struct {
	entries []*Entry
	byKey   map[string]*Entry
	tpc     int // threads per core, for configuration keys
	idle    *Entry
}

// NewProfile builds a profile over the given configurations. The first
// idle configuration encountered is tracked separately (it anchors
// race-to-idle calculations). Duplicate hardware states are fused.
func NewProfile(topo hw.Topology, configs []hw.Configuration) *Profile {
	p := &Profile{byKey: make(map[string]*Entry, len(configs)), tpc: topo.ThreadsPerCore}
	for _, c := range configs {
		key := c.Key(p.tpc)
		if _, dup := p.byKey[key]; dup {
			continue
		}
		e := &Entry{Config: c.Clone()}
		p.byKey[key] = e
		p.entries = append(p.entries, e)
		if c.Idle() && p.idle == nil {
			p.idle = e
		}
	}
	return p
}

// Size returns the number of distinct configurations in the profile.
func (p *Profile) Size() int { return len(p.entries) }

// Entries returns the profile's entries in generation order. The slice is
// shared; callers must not modify it.
func (p *Profile) Entries() []*Entry { return p.entries }

// Idle returns the idle entry, or nil if the profile lacks one.
func (p *Profile) Idle() *Entry { return p.idle }

// Lookup returns the entry matching the hardware state of cfg, or nil.
func (p *Profile) Lookup(cfg hw.Configuration) *Entry {
	return p.byKey[cfg.Key(p.tpc)]
}

// Update records a measurement for the configuration, smoothing into any
// previous measurement with an exponential moving average so single noisy
// RAPL windows don't whip the profile around. It returns the drift — the
// relative change of efficiency against the previous value — or 0 for a
// first evaluation. The socket-level ECL uses sustained drift to trigger
// multiplexed re-adaptation.
func (p *Profile) Update(cfg hw.Configuration, powerW units.Watt, score units.Hertz, now time.Duration) (drift float64, err error) {
	e := p.Lookup(cfg)
	if e == nil {
		return 0, fmt.Errorf("energy: configuration %s not in profile", cfg)
	}
	if err := checkMeasurement(powerW, score, now); err != nil {
		return 0, fmt.Errorf("energy: %w", err)
	}
	if !e.Evaluated {
		e.PowerW, e.Score = powerW, score
		e.Evaluated = true
		e.LastEval = now
		return 0, nil
	}
	oldEff := e.Efficiency()
	// Small deviations smooth in (RAPL noise); large ones overwrite —
	// the stored value is from a different workload and averaging the
	// two units would leave the entry wrong for many more rounds.
	alpha := 0.5
	if e.Score > 0 && (score-e.Score).Abs().Div(e.Score) > 0.5 {
		alpha = 1.0
	}
	e.PowerW = powerW.Scale(alpha) + e.PowerW.Scale(1-alpha)
	e.Score = score.Scale(alpha) + e.Score.Scale(1-alpha)
	e.LastEval = now
	newEff := e.Efficiency()
	if oldEff > 0 {
		drift = abs(newEff-oldEff) / oldEff
	}
	return drift, nil
}

// checkMeasurement rejects a measurement no socket produces: a negative
// power or score, or one taken before the clock's instant 0. Update and
// LoadProfile share it, so a saved profile cannot carry what the runtime
// refuses.
func checkMeasurement(powerW units.Watt, score units.Hertz, at time.Duration) error {
	if powerW < 0 || score < 0 {
		return fmt.Errorf("negative measurement power=%g score=%g", powerW, score)
	}
	if at < 0 {
		return fmt.Errorf("negative evaluation time last_eval_ns=%d", int64(at))
	}
	return nil
}

// MostEfficient returns the evaluated non-idle entry with the highest
// energy efficiency — the optimal zone. It returns nil if nothing is
// evaluated yet.
func (p *Profile) MostEfficient() *Entry {
	var best *Entry
	for _, e := range p.entries {
		if !e.Evaluated || e.Config.Idle() {
			continue
		}
		if best == nil || e.Efficiency() > best.Efficiency() {
			best = e
		}
	}
	return best
}

// MaxScore returns the highest measured performance score, or 0.
func (p *Profile) MaxScore() units.Hertz {
	var max units.Hertz
	for _, e := range p.entries {
		if e.Evaluated && e.Score > max {
			max = e.Score
		}
	}
	return max
}

// ZoneOf classifies an entry against the current optimal entry.
func (p *Profile) ZoneOf(e *Entry) Zone {
	opt := p.MostEfficient()
	if opt == nil || e == opt {
		return ZoneOptimal
	}
	if e.Score < opt.Score {
		return ZoneUnder
	}
	if e.Score == opt.Score && e.Efficiency() <= opt.Efficiency() {
		return ZoneUnder
	}
	return ZoneOver
}

// Skyline returns the upper efficiency envelope of the profile in the
// (performance score, efficiency) plane, sorted by ascending score — the
// opaque configurations of the paper's Figures 9 and 10. In the
// under-utilization zone (scores below the optimum) the envelope is the
// increasing staircase of entries more efficient than everything slower
// ("the lowest frequencies are the most energy-efficient ones for low
// performance levels until their respective performance potential is
// exhausted"); past the optimum it is the Pareto frontier of entries more
// efficient than everything faster.
func (p *Profile) Skyline() []*Entry {
	var ev []*Entry
	for _, e := range p.entries {
		if e.Evaluated && !e.Config.Idle() {
			ev = append(ev, e)
		}
	}
	sort.Slice(ev, func(i, j int) bool {
		if ev[i].Score != ev[j].Score {
			return ev[i].Score < ev[j].Score
		}
		return ev[i].Efficiency() > ev[j].Efficiency()
	})
	// Left staircase: most efficient among all entries at or below each
	// score level.
	onSky := make(map[*Entry]bool, len(ev))
	bestEff := -1.0
	for _, e := range ev {
		if e.Efficiency() > bestEff {
			onSky[e] = true
			bestEff = e.Efficiency()
		}
	}
	// Right Pareto tail: most efficient among all entries at or above
	// each score level.
	bestEff = -1.0
	for i := len(ev) - 1; i >= 0; i-- {
		if ev[i].Efficiency() > bestEff {
			onSky[ev[i]] = true
			bestEff = ev[i].Efficiency()
		}
	}
	out := make([]*Entry, 0, len(onSky))
	for _, e := range ev {
		if onSky[e] {
			out = append(out, e)
		}
	}
	return out
}

// ForPerformance returns the most energy-efficient evaluated entry whose
// score satisfies the demanded performance level (instructions/s). If no
// entry delivers the demand, the highest-scoring entry is returned
// (best-effort, the over-utilization edge). Returns nil when nothing is
// evaluated.
func (p *Profile) ForPerformance(demand units.Hertz) *Entry {
	var best, fastest *Entry
	for _, e := range p.entries {
		if !e.Evaluated || e.Config.Idle() {
			continue
		}
		if fastest == nil || e.Score > fastest.Score {
			fastest = e
		}
		if e.Score >= demand {
			if best == nil || e.Efficiency() > best.Efficiency() {
				best = e
			}
		}
	}
	if best != nil {
		return best
	}
	return fastest
}

// ForPerformanceCapped is ForPerformance under a socket power cap: only
// entries whose measured power stays at or below capW are eligible. If no
// eligible entry delivers the demand, the highest-scoring entry under the
// cap is returned (the cap is a hard constraint, the demand is not). If
// nothing evaluated fits under the cap, the lowest-power evaluated entry
// is returned as the least-violating fallback. capW <= 0 means no cap.
func (p *Profile) ForPerformanceCapped(demand units.Hertz, capW units.Watt) *Entry {
	if capW <= 0 {
		return p.ForPerformance(demand)
	}
	var best, fastest, coolest *Entry
	for _, e := range p.entries {
		if !e.Evaluated || e.Config.Idle() {
			continue
		}
		if coolest == nil || e.PowerW < coolest.PowerW {
			coolest = e
		}
		if e.PowerW > capW {
			continue
		}
		if fastest == nil || e.Score > fastest.Score {
			fastest = e
		}
		if e.Score >= demand {
			if best == nil || e.Efficiency() > best.Efficiency() {
				best = e
			}
		}
	}
	if best != nil {
		return best
	}
	if fastest != nil {
		return fastest
	}
	return coolest
}

// MostEfficientCapped is MostEfficient restricted to entries whose
// measured power stays at or below capW. capW <= 0 means no cap. Returns
// nil when no evaluated entry fits under the cap.
func (p *Profile) MostEfficientCapped(capW units.Watt) *Entry {
	if capW <= 0 {
		return p.MostEfficient()
	}
	var best *Entry
	for _, e := range p.entries {
		if !e.Evaluated || e.Config.Idle() || e.PowerW > capW {
			continue
		}
		if best == nil || e.Efficiency() > best.Efficiency() {
			best = e
		}
	}
	return best
}

// Stale returns the evaluated entries whose last evaluation is at least
// maxAge old at time now, plus all never-evaluated entries. maxAge zero
// therefore marks the whole profile stale (a full re-adaptation).
func (p *Profile) Stale(now time.Duration, maxAge time.Duration) []*Entry {
	var out []*Entry
	for _, e := range p.entries {
		if e.Config.Idle() {
			continue
		}
		if !e.Evaluated || now-e.LastEval >= maxAge {
			out = append(out, e)
		}
	}
	return out
}

// RescaleStale multiplies the score and power of every evaluated entry
// older than maxAge by the given ratios. The socket-level ECL uses this
// when a workload change is detected: fresh measurements and stale entries
// are in incompatible units (instructions retired per second differ
// across workloads), so the stale portion of the profile is scaled by the
// observed measurement ratio to keep configuration ranking sane until
// re-evaluation catches up.
func (p *Profile) RescaleStale(now, maxAge time.Duration, scoreRatio, powerRatio float64) {
	if scoreRatio <= 0 || powerRatio <= 0 {
		return
	}
	for _, e := range p.entries {
		if !e.Evaluated || e.Config.Idle() {
			continue
		}
		if now-e.LastEval >= maxAge {
			e.Score = e.Score.Scale(scoreRatio)
			e.PowerW = e.PowerW.Scale(powerRatio)
		}
	}
}

// InvalidateAll marks every entry unevaluated, e.g. for tests that force a
// from-scratch adaptation.
func (p *Profile) InvalidateAll() {
	for _, e := range p.entries {
		e.Evaluated = false
		e.PowerW, e.Score = 0, 0
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
