package bench

import (
	"time"

	"ecldb/internal/ecl"
	"ecldb/internal/loadprofile"
	"ecldb/internal/sim"
	"ecldb/internal/workload"
)

// Ablation experiments for the design decisions called out in DESIGN.md.

// AblationElasticityResult compares the elastic hierarchical message layer
// against the original architecture's static worker-partition binding when
// the ECL shuts workers down (design decision 5; the paper's Section 3
// motivation).
type AblationElasticityResult struct {
	// ElasticCompleted / StaticCompleted are the completed-query
	// fractions under the ECL at low load.
	ElasticCompleted float64
	StaticCompleted  float64
	// ElasticViolations / StaticViolations are the latency-limit
	// violation fractions.
	ElasticViolations float64
	StaticViolations  float64
	// ElasticMostApplied is the configuration the elastic run's ECL ran
	// longest: the reduced worker set the comparison is made under.
	ElasticMostApplied string
}

// AblationElasticity runs the ECL at 30 % load with and without the
// elasticity extension. With static binding, partitions mapped to sleeping
// hardware threads become unreachable whenever the ECL picks a
// configuration with fewer workers — the problem the hierarchical message
// layer exists to solve.
//
// The workload is atomic contention, because its documented optimum is a
// reduced worker set: two HyperThreads at turbo and minimum uncore,
// 2t@{1x3100}/unc1200 (DESIGN.md §4; EXPERIMENTS.md Fig. 10(b)), so the
// ECL shrinks the worker set of its own accord. On kv non-indexed the
// optimum is the full socket (24t@{12x1200}/unc3000) and race-to-idle
// parks every thread at once, so no partition is ever stranded and the
// two architectures finish alike. At seed 31 the elastic run completes
// 100.0 % of its queries and the static one 8.5 %.
func AblationElasticity() (AblationElasticityResult, error) {
	var out AblationElasticityResult
	capacity, err := MeasureCapacity(workload.NewAtomicContention(), 31)
	if err != nil {
		return out, err
	}
	type outcome struct {
		done, viol float64
		most       string
	}
	run := func(static bool) Job[outcome] {
		return func() (outcome, error) {
			res, err := sim.Run(sim.Options{
				Workload:      workload.NewAtomicContention(),
				Load:          loadprofile.Constant{Qps: capacity * 0.3, Len: 45 * time.Second},
				Governor:      sim.GovernorECL,
				Prewarm:       true,
				StaticBinding: static,
				Seed:          31,
			})
			if err != nil {
				return outcome{}, err
			}
			if res.Submitted == 0 {
				return outcome{most: res.MostApplied}, nil
			}
			return outcome{
				done: float64(res.Completed) / float64(res.Submitted),
				viol: res.ViolationFrac,
				most: res.MostApplied,
			}, nil
		}
	}
	runs, err := Sweep([]Job[outcome]{run(false), run(true)})
	if err != nil {
		return out, err
	}
	out.ElasticCompleted, out.ElasticViolations = runs[0].done, runs[0].viol
	out.StaticCompleted, out.StaticViolations = runs[1].done, runs[1].viol
	out.ElasticMostApplied = runs[0].most
	return out, nil
}

// Render formats the elasticity ablation.
func (r AblationElasticityResult) Render() string {
	t := Table{
		Title:  "Ablation: elastic message layer vs static worker-partition binding (ECL, atomic contention, 30% load)",
		Header: []string{"architecture", "completed", "violations"},
		Rows: [][]string{
			{"elastic (paper)", pct(r.ElasticCompleted), pct(r.ElasticViolations)},
			{"static binding", pct(r.StaticCompleted), pct(r.StaticViolations)},
		},
		Note: "elastic run's most-applied configuration " + r.ElasticMostApplied +
			"; static binding strands partitions on sleeping threads once the ECL shrinks the worker set",
	}
	return t.Render()
}

// AblationNUMAResult compares random query admission against NUMA-aware
// admission (queries enter at their first target partition's home
// socket).
type AblationNUMAResult struct {
	RandomComm   int64
	NUMAComm     int64
	RandomJ      float64
	NUMAJ        float64
	RandomAvgLat time.Duration
	NUMAAvgLat   time.Duration
}

// AblationNUMA quantifies the cost of cross-socket message transfers for
// a point-access workload at moderate load.
func AblationNUMA() (AblationNUMAResult, error) {
	var out AblationNUMAResult
	capacity, err := MeasureCapacity(workload.NewKV(true), 33)
	if err != nil {
		return out, err
	}
	type outcome struct {
		comm int64
		j    float64
		lat  time.Duration
	}
	run := func(numa bool) Job[outcome] {
		return func() (outcome, error) {
			s, err := sim.New(sim.Options{
				Workload:    workload.NewKV(true),
				Load:        loadprofile.Constant{Qps: capacity * 0.4, Len: 30 * time.Second},
				Governor:    sim.GovernorECL,
				Prewarm:     true,
				NUMARouting: numa,
				Seed:        33,
			})
			if err != nil {
				return outcome{}, err
			}
			res, err := s.Run()
			if err != nil {
				return outcome{}, err
			}
			return outcome{comm: s.Engine().CommMessages(), j: res.EnergyJ.Joules(), lat: res.AvgLatency}, nil
		}
	}
	runs, err := Sweep([]Job[outcome]{run(false), run(true)})
	if err != nil {
		return out, err
	}
	out.RandomComm, out.RandomJ, out.RandomAvgLat = runs[0].comm, runs[0].j, runs[0].lat
	out.NUMAComm, out.NUMAJ, out.NUMAAvgLat = runs[1].comm, runs[1].j, runs[1].lat
	return out, nil
}

// Render formats the NUMA ablation.
func (r AblationNUMAResult) Render() string {
	t := Table{
		Title:  "Ablation: NUMA-aware query admission (kv indexed, 40% load)",
		Header: []string{"routing", "inter-socket transfers", "energy J", "avg latency"},
		Rows: [][]string{
			{"random socket", f0(float64(r.RandomComm)), f0(r.RandomJ), r.RandomAvgLat.String()},
			{"NUMA-aware", f0(float64(r.NUMAComm)), f0(r.NUMAJ), r.NUMAAvgLat.String()},
		},
		Note: "point queries admitted at their home socket never cross the interconnect",
	}
	return t.Render()
}

// AblationRTIResult compares the ECL with and without the race-to-idle
// controller at low load (design decision 4; the paper's Section 4.3 RTI
// savings).
type AblationRTIResult struct {
	BaselineJ         float64
	WithRTIJ          float64
	WithoutRTIJ       float64
	WithRTISavings    float64
	WithoutRTISavings float64
}

// AblationRTI measures how much of the low-load savings come from the RTI
// controller: without it, the loop can only run the smallest profile
// configuration continuously, paying the first-core/uncore activation
// cost the whole time.
func AblationRTI() (AblationRTIResult, error) {
	var out AblationRTIResult
	capacity, err := MeasureCapacity(workload.NewKV(false), 32)
	if err != nil {
		return out, err
	}
	load := loadprofile.Constant{Qps: capacity * 0.15, Len: 45 * time.Second}
	run := func(gov sim.Governor, disableRTI bool) Job[float64] {
		return func() (float64, error) {
			opts := sim.Options{
				Workload: workload.NewKV(false),
				Load:     load,
				Governor: gov,
				Prewarm:  gov == sim.GovernorECL,
				Seed:     32,
			}
			if gov == sim.GovernorECL {
				opts.ECL = ecl.DefaultOptions()
				opts.ECL.DisableRTI = disableRTI
			}
			res, err := sim.Run(opts)
			if err != nil {
				return 0, err
			}
			return res.EnergyJ.Joules(), nil
		}
	}
	energies, err := Sweep([]Job[float64]{
		run(sim.GovernorBaseline, false),
		run(sim.GovernorECL, false),
		run(sim.GovernorECL, true),
	})
	if err != nil {
		return out, err
	}
	out.BaselineJ, out.WithRTIJ, out.WithoutRTIJ = energies[0], energies[1], energies[2]
	out.WithRTISavings = 1 - out.WithRTIJ/out.BaselineJ
	out.WithoutRTISavings = 1 - out.WithoutRTIJ/out.BaselineJ
	return out, nil
}

// Render formats the RTI ablation.
func (r AblationRTIResult) Render() string {
	t := Table{
		Title:  "Ablation: race-to-idle controller at 15% load",
		Header: []string{"policy", "energy J", "savings vs baseline"},
		Rows: [][]string{
			{"baseline", f0(r.BaselineJ), "-"},
			{"ECL with RTI", f0(r.WithRTIJ), pct(r.WithRTISavings)},
			{"ECL without RTI", f0(r.WithoutRTIJ), pct(r.WithoutRTISavings)},
		},
		Note: "RTI compensates the first-core/uncore activation cost at low load (paper Section 4.3: ~40%)",
	}
	return t.Render()
}

// AblationRTISyncResult compares aligned socket-level tick phases against
// staggered ones (design decision 4; the paper's Section 5.1 "idle times
// … synchronized across the processors to reach the deepest sleep
// state").
type AblationRTISyncResult struct {
	// SyncedDeepSleepSec / DesyncedDeepSleepSec are the machine-wide
	// deepest-sleep (all uncores halted) residencies.
	SyncedDeepSleepSec   float64
	DesyncedDeepSleepSec float64
	// SyncedJ / DesyncedJ are the runs' RAPL energies.
	SyncedJ   float64
	DesyncedJ float64
}

// AblationRTISync runs the ECL at 10 % load with the socket loops ticking
// in phase (the paper's design) and deliberately staggered. Aligned
// phases make the sockets' race-to-idle grids coincide, so their idle
// windows overlap and the machine reaches the deepest sleep state;
// staggering destroys the overlap — whenever one socket idles, the other
// is running, and the uncore-halt condition (all sockets idle) rarely
// holds.
func AblationRTISync() (AblationRTISyncResult, error) {
	var out AblationRTISyncResult
	capacity, err := MeasureCapacity(workload.NewKV(false), 34)
	if err != nil {
		return out, err
	}
	type outcome struct{ deepSec, energyJ float64 }
	run := func(desync bool) Job[outcome] {
		return func() (outcome, error) {
			opts := sim.Options{
				Workload: workload.NewKV(false),
				Load:     loadprofile.Constant{Qps: capacity * 0.1, Len: 30 * time.Second},
				Governor: sim.GovernorECL,
				Prewarm:  true,
				Seed:     34,
			}
			opts.ECL = ecl.DefaultOptions()
			opts.ECL.DesyncRTI = desync
			s, err := sim.New(opts)
			if err != nil {
				return outcome{}, err
			}
			res, err := s.Run()
			if err != nil {
				return outcome{}, err
			}
			_, _, deep := s.Machine().Residency(0)
			return outcome{deepSec: deep, energyJ: res.EnergyJ.Joules()}, nil
		}
	}
	runs, err := Sweep([]Job[outcome]{run(false), run(true)})
	if err != nil {
		return out, err
	}
	out.SyncedDeepSleepSec, out.SyncedJ = runs[0].deepSec, runs[0].energyJ
	out.DesyncedDeepSleepSec, out.DesyncedJ = runs[1].deepSec, runs[1].energyJ
	return out, nil
}

// Render formats the RTI synchronization ablation.
func (r AblationRTISyncResult) Render() string {
	t := Table{
		Title:  "Ablation: race-to-idle phase synchronization across sockets (10% load)",
		Header: []string{"tick phases", "deepest-sleep s", "energy J"},
		Rows: [][]string{
			{"aligned (paper)", f1(r.SyncedDeepSleepSec), f0(r.SyncedJ)},
			{"staggered", f1(r.DesyncedDeepSleepSec), f0(r.DesyncedJ)},
		},
		Note: "the uncore halts only when all sockets idle simultaneously; aligned grids overlap the idle windows",
	}
	return t.Render()
}

// AblationQuantumResult measures the sensitivity of an end-to-end
// experiment to the simulation quantum (design decision 1: virtual-time
// discrete stepping).
type AblationQuantumResult struct {
	Quanta     []time.Duration
	EnergyJ    []float64
	Violations []float64
}

// AblationQuantum runs the same ECL experiment at half, default, and
// double quantum. The experiments' conclusions must not depend on the
// discretization: energies agree within a few percent.
func AblationQuantum() (AblationQuantumResult, error) {
	out := AblationQuantumResult{
		Quanta: []time.Duration{500 * time.Microsecond, time.Millisecond, 2 * time.Millisecond},
	}
	capacity, err := MeasureCapacity(workload.NewKV(false), 35)
	if err != nil {
		return out, err
	}
	type outcome struct{ energyJ, violations float64 }
	jobs := make([]Job[outcome], len(out.Quanta))
	for i, q := range out.Quanta {
		q := q
		jobs[i] = func() (outcome, error) {
			res, err := sim.Run(sim.Options{
				Workload: workload.NewKV(false),
				Load:     loadprofile.Constant{Qps: capacity * 0.4, Len: 30 * time.Second},
				Governor: sim.GovernorECL,
				Prewarm:  true,
				Quantum:  q,
				Seed:     35,
			})
			if err != nil {
				return outcome{}, err
			}
			return outcome{energyJ: res.EnergyJ.Joules(), violations: res.ViolationFrac}, nil
		}
	}
	runs, err := Sweep(jobs)
	if err != nil {
		return out, err
	}
	for _, r := range runs {
		out.EnergyJ = append(out.EnergyJ, r.energyJ)
		out.Violations = append(out.Violations, r.violations)
	}
	return out, nil
}

// Render formats the quantum-sensitivity ablation.
func (r AblationQuantumResult) Render() string {
	t := Table{
		Title:  "Ablation: simulation quantum sensitivity (ECL, kv non-indexed, 40% load)",
		Header: []string{"quantum", "energy J", "violations"},
		Note:   "conclusions are discretization-independent",
	}
	for i, q := range r.Quanta {
		t.Rows = append(t.Rows, []string{q.String(), f0(r.EnergyJ[i]), pct(r.Violations[i])})
	}
	return t.Render()
}
