package bench

import (
	"fmt"

	"ecldb/internal/energy"
	"ecldb/internal/hw"
	"ecldb/internal/perfmodel"
	"ecldb/internal/units"
	"ecldb/internal/workload"
)

// ProfileResult summarizes one energy profile figure: the configuration
// set, its skyline, ruling zones, and the savings metrics the paper
// quotes.
type ProfileResult struct {
	Workload string
	Params   energy.GeneratorParams
	// Configurations is the profile size (paper: 145 for the default
	// parameters).
	Configurations int
	// SkylineSize is the number of envelope configurations.
	SkylineSize int
	// Optimal is the most energy-efficient configuration.
	Optimal string
	// OptimalCoreMHz/OptimalUncoreMHz expose its clocks for assertions.
	OptimalCoreMHz, OptimalUncoreMHz int
	OptimalThreads                   int
	// UnderZone/OverZone count configurations per ruling zone.
	UnderZone, OverZone int
	// RespAdvantage is optimal-vs-baseline performance (the paper's
	// "query response advantage"; positive when contention makes the
	// all-max baseline slower).
	RespAdvantage float64
	// MaxRTISavings is the peak energy saving of ECL-RTI against the
	// all-max race-to-idle baseline across performance levels.
	MaxRTISavings float64
	// EffAdvantage is optimal efficiency over baseline efficiency.
	EffAdvantage float64
	// Skyline points (performance level, efficiency level) normalized
	// to peaks, for plotting.
	SkylinePerf, SkylineEff []float64
}

// profileFor evaluates a profile for a characteristics set.
func profileFor(ch perfmodel.Characteristics, gp energy.GeneratorParams) (*energy.Profile, error) {
	topo := hw.HaswellEP()
	cfgs, err := energy.Generate(topo, gp)
	if err != nil {
		return nil, err
	}
	p := energy.NewProfile(topo, cfgs)
	if err := energy.EvaluateModel(p, topo, hw.DefaultPowerParams(), ch, 0); err != nil {
		return nil, err
	}
	return p, nil
}

// summarizeProfile computes the ProfileResult metrics.
func summarizeProfile(name string, gp energy.GeneratorParams, p *energy.Profile) ProfileResult {
	topo := hw.HaswellEP()
	res := ProfileResult{Workload: name, Params: gp, Configurations: p.Size()}
	opt := p.MostEfficient(0)
	base := p.Lookup(hw.AllMax(topo))
	var idleW units.Watt
	if p.Idle() != nil {
		idleW = p.Idle().PowerW
	}
	res.Optimal = opt.Config.String()
	res.OptimalCoreMHz = int(opt.Config.AvgCoreMHz(topo.ThreadsPerCore))
	res.OptimalUncoreMHz = opt.Config.UncoreMHz
	res.OptimalThreads = opt.Config.ActiveThreads()
	res.RespAdvantage = opt.Score.Div(base.Score) - 1
	res.EffAdvantage = opt.Efficiency() / base.Efficiency()
	for _, e := range p.Entries() {
		if e.Config.Idle() {
			continue
		}
		switch p.ZoneOf(e) {
		case energy.ZoneUnder:
			res.UnderZone++
		case energy.ZoneOver:
			res.OverZone++
		}
	}
	sky := p.Skyline()
	res.SkylineSize = len(sky)
	maxScore, maxEff := p.MaxScore(), opt.Efficiency()
	for _, e := range sky {
		res.SkylinePerf = append(res.SkylinePerf, e.Score.Div(maxScore))
		res.SkylineEff = append(res.SkylineEff, e.Efficiency()/maxEff)
	}
	// Peak ECL-RTI savings versus the baseline race-to-idle line.
	for d := 0.02; d <= 1.0; d += 0.02 {
		demand := base.Score.Scale(d)
		effRTI := energy.RTIEfficiency(opt, idleW, demand)
		duty := demand.Div(base.Score)
		effBase := units.PerWatt(demand, base.PowerW.Scale(duty)+idleW.Scale(1-duty))
		if effRTI > 0 && effBase > 0 {
			if s := 1 - effBase/effRTI; s > res.MaxRTISavings {
				res.MaxRTISavings = s
			}
		}
	}
	return res
}

// Render formats one profile summary.
func (r ProfileResult) Render() string {
	t := Table{
		Title: fmt.Sprintf("Energy profile: %s (fcore=%d funcore=%d mixed=%v cmax=%d)",
			r.Workload, r.Params.FCore, r.Params.FUncore, r.Params.CoreMixed, r.Params.CMax),
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"configurations", f0(float64(r.Configurations))},
			{"skyline size", f0(float64(r.SkylineSize))},
			{"optimal configuration", r.Optimal},
			{"zones under/over", fmt.Sprintf("%d / %d", r.UnderZone, r.OverZone)},
			{"response advantage vs all-max", pct(r.RespAdvantage)},
			{"max ECL-RTI savings", pct(r.MaxRTISavings)},
			{"efficiency vs all-max", f2(r.EffAdvantage) + "x"},
		},
	}
	return t.Render()
}

// Fig9Result holds the compute-bound profiles for the three generator
// parameter settings of Figure 9.
type Fig9Result struct {
	// A: fcore=4, funcore=3, mixed off (paper: 145 configurations).
	A ProfileResult
	// B: fcore=7 (more clock steps, no better skyline).
	B ProfileResult
	// C: mixed clocks enabled (more configurations, no better skyline).
	C ProfileResult
}

// profileJob evaluates and summarizes one profile as a sweep job.
func profileJob(name string, ch perfmodel.Characteristics, gp energy.GeneratorParams) Job[ProfileResult] {
	return func() (ProfileResult, error) {
		p, err := profileFor(ch, gp)
		if err != nil {
			return ProfileResult{}, err
		}
		return summarizeProfile(name, gp, p), nil
	}
}

// Figure9 reproduces the generator-granularity comparison on the
// compute-bound workload. The three generator settings evaluate
// independently and fan out through the orchestrator.
func Figure9() (Fig9Result, error) {
	ch := perfmodel.ComputeBound()
	var res Fig9Result
	profiles, err := Sweep([]Job[ProfileResult]{
		profileJob("compute-bound", ch, energy.GeneratorParams{FCore: 4, FUncore: 3, CMax: 256}),
		profileJob("compute-bound", ch, energy.GeneratorParams{FCore: 7, FUncore: 3, CMax: 256}),
		profileJob("compute-bound", ch, energy.GeneratorParams{FCore: 4, FUncore: 3, CoreMixed: true, CMax: 256}),
	})
	if err != nil {
		return res, err
	}
	res.A, res.B, res.C = profiles[0], profiles[1], profiles[2]
	return res, nil
}

// Render formats Figure 9.
func (r Fig9Result) Render() string {
	return r.A.Render() + r.B.Render() + r.C.Render()
}

// Fig10Result holds the workload-dependency profiles of Figure 10.
type Fig10Result struct {
	MemoryBound ProfileResult // (a): column scan
	Atomic      ProfileResult // (b): shared-cacheline increments
	HashTable   ProfileResult // (c): shared hash-table inserts
}

// Figure10 reproduces the workload-dependent profile shapes.
func Figure10() (Fig10Result, error) {
	gp := energy.DefaultGeneratorParams()
	var res Fig10Result
	chs := []perfmodel.Characteristics{
		perfmodel.MemoryScan(), perfmodel.AtomicContention(), perfmodel.HashTableInsert(),
	}
	jobs := make([]Job[ProfileResult], len(chs))
	for i, ch := range chs {
		jobs[i] = profileJob(ch.Name, ch, gp)
	}
	profiles, err := Sweep(jobs)
	if err != nil {
		return res, err
	}
	res.MemoryBound, res.Atomic, res.HashTable = profiles[0], profiles[1], profiles[2]
	return res, nil
}

// Render formats Figure 10.
func (r Fig10Result) Render() string {
	return r.MemoryBound.Render() + r.Atomic.Render() + r.HashTable.Render()
}

// AppendixResult holds the benchmark profiles of Figures 17-20.
type AppendixResult struct {
	TATPIndexed    ProfileResult // Figure 17
	TATPNonIndexed ProfileResult // Figure 18
	SSBIndexed     ProfileResult // Figure 19 (Q2.1)
	SSBNonIndexed  ProfileResult // Figure 20 (Q2.1)
}

// AppendixProfiles reproduces the appendix energy profiles for TATP and
// SSB (Q2.1 as representative, like the paper).
func AppendixProfiles() (AppendixResult, error) {
	gp := energy.DefaultGeneratorParams()
	var res AppendixResult
	ssbIdx, err := workload.NewSSBQuery(true, "Q2.1")
	if err != nil {
		return res, err
	}
	ssbScan, err := workload.NewSSBQuery(false, "Q2.1")
	if err != nil {
		return res, err
	}
	wls := []workload.Workload{
		workload.NewTATP(true), workload.NewTATP(false), ssbIdx, ssbScan,
	}
	jobs := make([]Job[ProfileResult], len(wls))
	for i, wl := range wls {
		jobs[i] = profileJob(wl.Name(), wl.Characteristics(), gp)
	}
	profiles, err := Sweep(jobs)
	if err != nil {
		return res, err
	}
	res.TATPIndexed, res.TATPNonIndexed = profiles[0], profiles[1]
	res.SSBIndexed, res.SSBNonIndexed = profiles[2], profiles[3]
	return res, nil
}

// Render formats Figures 17-20.
func (r AppendixResult) Render() string {
	return r.TATPIndexed.Render() + r.TATPNonIndexed.Render() +
		r.SSBIndexed.Render() + r.SSBNonIndexed.Render()
}
