// Package ecldb reproduces "Adaptive Energy-Control for In-Memory
// Database Systems" (Kissinger, Habich, Lehner — SIGMOD 2018) as a
// self-contained Go library.
//
// The paper integrates energy control into a data-oriented in-memory DBMS
// on a 2-socket NUMA server: per-socket Energy-Control Loops (ECL)
// maintain workload-dependent energy profiles over hardware
// configurations (active threads, per-core clocks, uncore clock), apply
// the most energy-efficient configuration for the current performance
// demand, race to idle in the under-utilization zone, and obey a
// user-defined query latency limit as a soft constraint through a
// system-level ECL.
//
// Because the original work is measurement-driven on specific hardware
// (Haswell-EP RAPL counters, MSR-controlled clocks), this reproduction
// runs the identical control architecture against a deterministic
// simulated machine whose power/performance response surface is
// calibrated to the paper's own Section 2 measurements. The DBMS layer —
// elastic partitioned storage, hierarchical message passing, the TATP/SSB
// and key-value benchmarks — is implemented for real; only time, power,
// and instruction throughput are simulated. See DESIGN.md for the
// substitution rationale and EXPERIMENTS.md for reproduced-vs-paper
// results.
//
// # Quick start
//
//	res, err := ecldb.Run(ecldb.RunConfig{
//	    Workload: "kv-nonindexed",
//	    Load:     ecldb.LoadSpec{Kind: "constant", Level: 0.5, Duration: time.Minute},
//	    Governor: ecldb.GovernorECL,
//	})
//
// compares against the race-to-idle baseline via GovernorBaseline. The
// figure/table regeneration harness lives in the cmd/ tools (hwbench,
// profilegen, eclsim, calibrate) and the root benchmarks.
package ecldb

import (
	"fmt"
	"io"
	"os"
	"time"

	"ecldb/internal/bench"
	"ecldb/internal/ecl"
	"ecldb/internal/energy"
	"ecldb/internal/hw"
	"ecldb/internal/loadprofile"
	"ecldb/internal/obs"
	"ecldb/internal/obs/trace"
	"ecldb/internal/sim"
	"ecldb/internal/units"
	"ecldb/internal/workload"
)

// Governor selects the energy policy of a run.
type Governor = sim.Governor

// Governor values.
const (
	// GovernorBaseline keeps all hardware threads on with CPU/OS
	// frequency control — the paper's comparison point.
	GovernorBaseline = sim.GovernorBaseline
	// GovernorECL runs the full Energy-Control Loop hierarchy.
	GovernorECL = sim.GovernorECL
)

// LoadSpec describes the offered load relative to the system's measured
// saturation capacity for the chosen workload.
type LoadSpec struct {
	// Kind is "constant", "spike", "twitter", or "sine".
	Kind string
	// Level scales the load: the constant level, the spike peak, or
	// the twitter base, as a fraction of capacity. Zero defaults to
	// sensible per-kind values (0.5 constant, 1.15 spike peak, 0.8
	// twitter base).
	Level float64
	// Duration is the length of the run.
	Duration time.Duration
}

// RunConfig configures an end-to-end run.
type RunConfig struct {
	// Workload names the benchmark: "kv-indexed", "kv-nonindexed",
	// "tatp-indexed", "tatp-nonindexed", "ssb-indexed",
	// "ssb-nonindexed", or one of the micro-workloads. See Workloads.
	Workload string
	// Load is the offered load profile.
	Load LoadSpec
	// Governor selects the energy policy (default GovernorBaseline).
	Governor Governor
	// LatencyLimit is the soft limit on average query latency
	// (default 100 ms, the paper's setting).
	LatencyLimit time.Duration
	// Interval is the ECL base interval (default 1 s).
	Interval time.Duration
	// Maintenance selects profile maintenance: "static", "online", or
	// "multiplexed" (default).
	Maintenance string
	// PowerCapW, when positive, caps each socket's package+DRAM power
	// (RAPL-power-limit style, but enforced through the energy profile:
	// the ECL only applies configurations measured at or below the cap,
	// even when that violates the latency limit). Only meaningful for
	// GovernorECL.
	PowerCapW float64
	// SwitchTo/SwitchAt optionally switch the workload mid-run
	// (the paper's Section 6.3 adaptation experiment).
	SwitchTo string
	SwitchAt time.Duration
	// ProfileCache optionally names a file for energy-profile
	// persistence: if it exists the profiles are restored from it
	// (skipping the pre-run measurement sweep); otherwise the measured
	// profiles are saved to it after the sweep. Only meaningful for
	// GovernorECL.
	ProfileCache string
	// Observe attaches the control-plane observability layer: the run
	// records every ECL decision event and fills Result.Explain and
	// Result.Events. Observation is read-only — attaching it never
	// changes a run's outcome.
	Observe bool
	// TraceQueries additionally samples per-query latency phase spans
	// (route/wake/queue/exec) and control-loop spans on the virtual
	// timeline, filling Result.PhaseBreakdown and Result.WriteQueryTrace.
	// Implies the observability layer. Like Observe, tracing is read-only
	// and never changes a run's outcome.
	TraceQueries bool
	// TraceSampleEvery sets the span sampling period: one query span per
	// N admissions, keyed deterministically on the admission index.
	// 0 defaults to 16; 1 traces every query.
	TraceSampleEvery int
	// Seed drives all randomness; runs are fully deterministic.
	Seed int64
}

// Result summarizes a run.
type Result struct {
	// EnergyJ is the total RAPL-visible energy (package + DRAM, both
	// sockets).
	EnergyJ float64
	// PSUEnergyJ is the wall energy including conversion overheads.
	PSUEnergyJ float64
	// CapacityQps is the measured saturation throughput the load was
	// scaled against.
	CapacityQps float64
	// Completed and Submitted count queries.
	Completed, Submitted int64
	// AvgLatency and P99Latency summarize query latencies.
	AvgLatency, P99Latency time.Duration
	// ViolationFrac is the fraction of queries over the latency limit.
	ViolationFrac float64
	// MostApplied is the hardware configuration the ECL applied
	// longest (empty for baseline runs).
	MostApplied string
	// Series exposes the recorded traces: "load_qps", "power_rapl_w",
	// "power_psu_w", "latency_avg_ms", "latency_p99_ms",
	// "active_threads".
	Series func(name string) (times []time.Duration, values []float64)
	// Explain is the post-run control-plane report (zone residency,
	// safety-valve activations, applied configurations). Empty unless
	// RunConfig.Observe was set.
	Explain string
	// Events counts recorded decision events by type name (e.g.
	// "ZoneTransition", "ConfigApply"). Nil unless RunConfig.Observe
	// was set.
	Events map[string]int64
	// PhaseBreakdown is the per-phase latency attribution table over the
	// sampled query spans, with the critical-path summary. Empty unless
	// RunConfig.TraceQueries was set.
	PhaseBreakdown string
	// WriteQueryTrace writes the sampled spans as Chrome/Perfetto
	// trace-event JSON (open at ui.perfetto.dev). Nil unless
	// RunConfig.TraceQueries was set.
	WriteQueryTrace func(w io.Writer) error
}

// Workloads lists the available benchmark workload names.
func Workloads() []string {
	var out []string
	for _, w := range append(workload.All(), workload.Micros()...) {
		out = append(out, w.Name())
	}
	return out
}

// Capacity measures the saturation throughput (queries/s) of a workload
// under the baseline governor. Measurements are memoized per
// (workload, seed) for the life of the process (see bench.MeasureCapacity).
func Capacity(workloadName string, seed int64) (float64, error) {
	wl := workload.ByName(workloadName)
	if wl == nil {
		return 0, fmt.Errorf("ecldb: unknown workload %q", workloadName)
	}
	return bench.MeasureCapacity(wl, seed)
}

// Run executes one end-to-end experiment.
func Run(cfg RunConfig) (*Result, error) {
	wl := workload.ByName(cfg.Workload)
	if wl == nil {
		return nil, fmt.Errorf("ecldb: unknown workload %q", cfg.Workload)
	}
	if cfg.Load.Duration <= 0 {
		return nil, fmt.Errorf("ecldb: load duration required")
	}
	capacity, err := bench.MeasureCapacity(wl, cfg.Seed)
	if err != nil {
		return nil, err
	}
	load, err := buildLoad(cfg.Load, capacity)
	if err != nil {
		return nil, err
	}
	opts := sim.Options{
		Workload: workload.ByName(cfg.Workload), // fresh instance
		Load:     load,
		Governor: cfg.Governor,
		// Prewarm is handled explicitly below so the profile cache can
		// substitute for the measurement sweep.
		SwitchAt: cfg.SwitchAt,
		Seed:     cfg.Seed,
	}
	if cfg.SwitchTo != "" {
		sw := workload.ByName(cfg.SwitchTo)
		if sw == nil {
			return nil, fmt.Errorf("ecldb: unknown switch workload %q", cfg.SwitchTo)
		}
		opts.SwitchTo = sw
		if opts.SwitchAt <= 0 {
			opts.SwitchAt = cfg.Load.Duration / 3
		}
	}
	if cfg.Governor == GovernorECL {
		opts.ECL = ecl.DefaultOptions()
		if cfg.LatencyLimit > 0 {
			opts.ECL.LatencyLimit = cfg.LatencyLimit
		}
		if cfg.Interval > 0 {
			opts.ECL.Interval = cfg.Interval
		}
		if cfg.PowerCapW > 0 {
			opts.ECL.PowerCapW = units.WattsOf(cfg.PowerCapW)
		}
		switch cfg.Maintenance {
		case "", "multiplexed":
			opts.ECL.Maintenance = ecl.MaintainMultiplexed
		case "online":
			opts.ECL.Maintenance = ecl.MaintainOnline
		case "static":
			opts.ECL.Maintenance = ecl.MaintainNone
		default:
			return nil, fmt.Errorf("ecldb: unknown maintenance %q", cfg.Maintenance)
		}
	}
	var observer *obs.Observer
	if cfg.Observe || cfg.TraceQueries {
		observer = obs.New(0)
		if cfg.TraceQueries {
			every := cfg.TraceSampleEvery
			if every == 0 {
				every = 16
			}
			observer.Trace = trace.New(every)
		}
		opts.Obs = observer
	}
	simulator, err := sim.New(opts)
	if err != nil {
		return nil, err
	}
	if cfg.Governor == GovernorECL {
		if err := establishProfiles(simulator, cfg.ProfileCache); err != nil {
			return nil, err
		}
	}
	res, err := simulator.Run()
	if err != nil {
		return nil, err
	}
	out := &Result{
		EnergyJ:       res.EnergyJ.Joules(),
		PSUEnergyJ:    res.PSUEnergyJ.Joules(),
		CapacityQps:   capacity,
		Completed:     res.Completed,
		Submitted:     res.Submitted,
		AvgLatency:    res.AvgLatency,
		P99Latency:    res.P99Latency,
		ViolationFrac: res.ViolationFrac,
		MostApplied:   res.MostApplied,
		Series: func(name string) ([]time.Duration, []float64) {
			s := res.Rec.Series(name)
			return s.Times, s.Values
		},
	}
	if observer != nil {
		out.Explain = observer.Explain()
		out.Events = make(map[string]int64, len(obs.Types()))
		for _, typ := range obs.Types() {
			if n := observer.Log.Count(typ); n > 0 {
				out.Events[typ.String()] = int64(n)
			}
		}
		if tr := observer.Trace; tr != nil {
			out.PhaseBreakdown = tr.Report()
			out.WriteQueryTrace = tr.WritePerfetto
		}
	}
	return out, nil
}

// ProfilePoint is one hardware configuration of a workload's energy
// profile (Section 4 of the paper), with performance and efficiency
// normalized to the profile's peaks.
type ProfilePoint struct {
	// Config is the human-readable configuration.
	Config string
	// Threads is the number of active hardware threads.
	Threads int
	// AvgCoreMHz and UncoreMHz are the configuration's clocks.
	AvgCoreMHz, UncoreMHz int
	// PerfLevel is the performance score normalized to the peak score.
	PerfLevel float64
	// EffLevel is the energy efficiency normalized to the optimum.
	EffLevel float64
	// OnSkyline marks the profile's upper efficiency envelope.
	OnSkyline bool
	// Zone is "under-utilization", "optimal", or "over-utilization".
	Zone string
}

// Profile computes a workload's energy profile from the calibrated
// machine model using the paper's default configuration generator
// (fcore=4, funcore=3, cmax=256 — 145 configurations). At runtime the ECL
// measures the same profile through RAPL instead.
func Profile(workloadName string) ([]ProfilePoint, error) {
	wl := workload.ByName(workloadName)
	if wl == nil {
		return nil, fmt.Errorf("ecldb: unknown workload %q", workloadName)
	}
	topo := hw.HaswellEP()
	cfgs, err := energy.Generate(topo, energy.DefaultGeneratorParams())
	if err != nil {
		return nil, err
	}
	p := energy.NewProfile(topo, cfgs)
	if err := energy.EvaluateModel(p, topo, hw.DefaultPowerParams(), wl.Characteristics(), 0); err != nil {
		return nil, err
	}
	onSky := map[*energy.Entry]bool{}
	for _, e := range p.Skyline() {
		onSky[e] = true
	}
	maxScore := p.MaxScore()
	maxEff := p.MostEfficient(0).Efficiency()
	var out []ProfilePoint
	for _, e := range p.Entries() {
		if e.Config.Idle() {
			continue
		}
		out = append(out, ProfilePoint{
			Config:     e.Config.String(),
			Threads:    e.Config.ActiveThreads(),
			AvgCoreMHz: int(e.Config.AvgCoreMHz(topo.ThreadsPerCore)),
			UncoreMHz:  e.Config.UncoreMHz,
			PerfLevel:  e.Score.Div(maxScore),
			EffLevel:   e.Efficiency() / maxEff,
			OnSkyline:  onSky[e],
			Zone:       p.ZoneOf(e).String(),
		})
	}
	return out, nil
}

// establishProfiles restores profiles from the cache file when present,
// or runs the pre-run measurement sweep (saving to the cache afterwards
// when a path is given).
func establishProfiles(s *sim.Sim, cachePath string) error {
	if cachePath != "" {
		if f, err := os.Open(cachePath); err == nil {
			defer f.Close()
			return s.LoadProfiles(f)
		}
	}
	s.Prewarm()
	if cachePath == "" {
		return nil
	}
	f, err := os.Create(cachePath)
	if err != nil {
		return fmt.Errorf("ecldb: writing profile cache: %w", err)
	}
	if err := s.SaveProfiles(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildLoad materializes a LoadSpec against the measured capacity.
func buildLoad(spec LoadSpec, capacity float64) (loadprofile.Profile, error) {
	level := spec.Level
	switch spec.Kind {
	case "constant", "":
		if level == 0 {
			level = 0.5
		}
		return loadprofile.Constant{Qps: capacity * level, Len: spec.Duration}, nil
	case "spike":
		if level == 0 {
			level = 1.15
		}
		return loadprofile.Spike{PeakQps: capacity * level, Len: spec.Duration}, nil
	case "twitter":
		if level == 0 {
			level = 0.8
		}
		return loadprofile.Twitter{BaseQps: capacity * level, Len: spec.Duration}, nil
	case "sine":
		if level == 0 {
			level = 0.5
		}
		return loadprofile.Sine{MeanQps: capacity * level, Amp: 0.5,
			Period: 30 * time.Second, Len: spec.Duration}, nil
	}
	return nil, fmt.Errorf("ecldb: unknown load kind %q", spec.Kind)
}
