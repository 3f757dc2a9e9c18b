package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime/pprof"
	"sort"
	"time"

	"ecldb/internal/hw"
	"ecldb/internal/obs"
	"ecldb/internal/obs/energyattr"
	"ecldb/internal/obs/trace"
)

// Traced-run observer sizing: the decision-event ring is bounded (the log
// keeps exact per-type counts after eviction, where obs.New(0) would
// store every query event), and one query in spanEvery gets a span.
const (
	eventRing = 4096
	spanEvery = 16
)

// tracedRep is a rep run with every observer attached and the runs under
// a CPU profile.
type tracedRep struct {
	rep
	cpu        map[string]float64 // profiled self seconds by layer
	cpuSamples int
	// energyDrift is the largest relative energy difference between an
	// untraced run and the same run with an empty observer.
	energyDrift float64
}

// attachTolerance is the relative energy difference allowed between a
// run without an observer and the same run with an empty one: attaching
// any observer makes dodb.Engine.Quiescent also wait for sleeping workers
// to be observed, which shifts where closed-form stretches start and so
// regroups the float energy sums. It is the tolerance the repository's
// re-lock harness applies to regrouped sums (DESIGN.md §16).
const attachTolerance = 1e-9

// runTraced runs one traced rep at the seed of the untraced reps and
// proves it against them. Tracing is read-only: the traced runs equal
// runs with an empty observer bit for bit, and those equal the untraced
// runs in every integer outcome and within attachTolerance in energy.
// Energy is conserved, and every span's phases partition its latency.
func runTraced(sp spec, seed int64, plain rep) (tracedRep, error) {
	attached, err := runOnce(sp, seed, hooks{observer: func() *obs.Observer { return &obs.Observer{} }})
	if err != nil {
		return tracedRep{}, fmt.Errorf("empty-observer run: %w", err)
	}
	var prof bytes.Buffer
	r, err := runOnce(sp, seed, hooks{
		observer: func() *obs.Observer {
			ob := obs.New(eventRing)
			ob.Trace = trace.New(spanEvery)
			ob.Energy = energyattr.New(hw.HaswellEP().Sockets)
			return ob
		},
		beforeRuns: func() error { return pprof.StartCPUProfile(&prof) },
		afterRuns:  pprof.StopCPUProfile,
	})
	if err != nil {
		return tracedRep{}, fmt.Errorf("traced run: %w", err)
	}
	tr := tracedRep{rep: r}
	if err := r.check(); err != nil {
		return tr, fmt.Errorf("traced run: %w", err)
	}
	for _, g := range []struct {
		name                    string
		plain, attached, traced govRun
	}{{"baseline", plain.base, attached.base, r.base}, {"ecl", plain.ecl, attached.ecl, r.ecl}} {
		drift, err := proveAttach(g.plain, g.attached)
		if err != nil {
			return tr, fmt.Errorf("%s run with an empty observer: %w", g.name, err)
		}
		tr.energyDrift = max(tr.energyDrift, drift)
		if err := sameRun(g.attached, g.traced); err != nil {
			return tr, fmt.Errorf("tracing changed the %s run (untraced/traced): %w", g.name, err)
		}
		if err := proveConservation(g.traced); err != nil {
			return tr, fmt.Errorf("traced %s run: %w", g.name, err)
		}
	}
	tr.cpu, tr.cpuSamples, err = selfSeconds(prof.Bytes())
	return tr, err
}

// proveAttach compares a run without an observer to the same run with an
// empty one: every integer outcome must be equal and the energies within
// attachTolerance. It returns the relative energy difference.
func proveAttach(plain, attached govRun) (float64, error) {
	p, a := plain.res, attached.res
	if p.Submitted != a.Submitted || p.Completed != a.Completed || p.Violations != a.Violations ||
		p.P99Latency != a.P99Latency || plain.inflight != attached.inflight {
		return 0, fmt.Errorf("outcome changed: completed %d/%d, violations %d/%d, p99 %v/%v, in flight %d/%d (without/with observer)",
			p.Completed, a.Completed, p.Violations, a.Violations, p.P99Latency, a.P99Latency, plain.inflight, attached.inflight)
	}
	drift := 0.0
	for _, e := range [][2]float64{{p.EnergyJ.Joules(), a.EnergyJ.Joules()}, {p.PSUEnergyJ.Joules(), a.PSUEnergyJ.Joules()}} {
		drift = max(drift, math.Abs(e[1]-e[0])/e[0])
	}
	if drift > attachTolerance {
		return drift, fmt.Errorf("energy moved by %.3g relative, over %g", drift, attachTolerance)
	}
	return drift, nil
}

// proveConservation requires the attribution meter's integrated energy to
// equal the machine's true RAPL energy exactly, per socket and domain and
// in total, and every sampled query span's phases to sum to its latency.
func proveConservation(g govRun) error {
	m := g.ob.EnergyMeter()
	var sum float64
	for i, want := range g.trueJ {
		sock, dom := i/energyattr.NumDomains, i%energyattr.NumDomains
		if got := m.Integrated(sock, dom).Joules(); got != want {
			return fmt.Errorf("socket %d %s: meter integrated %v J != machine %v J",
				sock, energyattr.DomainName(dom), got, want)
		}
		sum += want
	}
	if got := m.IntegratedTotalJ().Joules(); got != sum {
		return fmt.Errorf("meter integrated total %v J != machine total %v J", got, sum)
	}
	spans := g.ob.Tracer().Queries()
	if len(spans) == 0 {
		return fmt.Errorf("no query spans sampled")
	}
	for _, s := range spans {
		if s.Route+s.Wake+s.Queue+s.Exec != s.Latency() {
			return fmt.Errorf("query %d: phases %v+%v+%v+%v != latency %v",
				s.QID, s.Route, s.Wake, s.Queue, s.Exec, s.Latency())
		}
	}
	return nil
}

// perLayer fills the per-layer metrics: set-up and run wall time split by
// call and runtime counters (medians over the untraced reps), engine and
// machine readings and the overload time (deterministic, from the first
// rep), and host self time, decision-event counts, energy attribution and
// query spans from the traced rep. samples records the count behind every
// percentile.
func perLayer(reps []rep, tr tracedRep, m map[string]metric, samples map[string]int) {
	med := func(f func(rep) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	m["setup.capacity_s"] = metric{med(func(r rep) float64 { return r.capacityS }), "s"}
	m["setup.build_s"] = metric{med(func(r rep) float64 { return r.buildS }), "s"}
	m["setup.prewarm_s"] = metric{med(func(r rep) float64 { return r.prewarmS }), "s"}
	m["run.baseline_s"] = metric{med(func(r rep) float64 { return r.baselineS }), "s"}
	m["run.ecl_s"] = metric{med(func(r rep) float64 { return r.eclS }), "s"}
	m["run_s"] = metric{med(rep.runS), "s"}
	m["runtime.gc_count"] = metric{med(func(r rep) float64 { return float64(r.gcCount) }), "count"}
	m["runtime.gc_pause_ms"] = metric{med(func(r rep) float64 { return float64(r.gcPauseNs) / 1e6 }), "ms"}
	m["runtime.mallocs"] = metric{med(func(r rep) float64 { return float64(r.mallocs) }), "count"}

	first := reps[0]
	e := first.ecl
	m["dodb.submitted"] = metric{float64(e.res.Submitted), "count"}
	m["dodb.completed"] = metric{float64(e.res.Completed), "count"}
	m["dodb.dropped"] = metric{float64(e.dropped), "count"}
	m["dodb.inflight_end"] = metric{float64(e.inflight), "count"}
	m["dodb.comm_msgs"] = metric{float64(e.comm), "count"}
	m["dodb.busy_frac"] = metric{e.busyFrac, "ratio"}
	m["hw.active_s"] = metric{e.activeS, "s"}
	m["hw.idle_s"] = metric{e.idleS, "s"}
	m["hw.deep_sleep_s"] = metric{e.deepS, "s"}
	m["hw.ginstr"] = metric{e.ginstr, "Ginstr"}
	m["hw.baseline_j"] = metric{first.base.res.EnergyJ.Joules(), "J"}
	m["hw.ecl_j"] = metric{e.res.EnergyJ.Joules(), "J"}
	m["hw.psu_j"] = metric{e.res.PSUEnergyJ.Joules(), "J"}
	m["ecl.overload_s"] = metric{first.modelled().overloadS, "s"}

	total := 0.0
	for _, l := range layers {
		m["cpu."+l+"_s"] = metric{tr.cpu[l], "s"}
		total += tr.cpu[l]
	}
	m["cpu.total_s"] = metric{total, "s"}
	samples["cpu.*"] = tr.cpuSamples
	m["trace.overhead_s"] = metric{tr.runS() - med(rep.runS), "s"}
	m["trace.energy_drift_rel"] = metric{tr.energyDrift, "ratio"}

	ob := tr.ecl.ob
	log := ob.EventLog()
	for name, t := range map[string]obs.Type{
		"ecl.config_apply":    obs.EvConfigApply,
		"ecl.zone_transition": obs.EvZoneTransition,
		"ecl.rti_cycle":       obs.EvRTICycle,
		"ecl.profile_measure": obs.EvProfileMeasure,
		"ecl.safety_valve":    obs.EvSafetyValve,
		"ecl.drift_rescale":   obs.EvDriftRescale,
		"dodb.worker_sleep":   obs.EvWorkerSleep,
		"dodb.worker_wake":    obs.EvWorkerWake,
	} {
		m[name] = metric{float64(log.Count(t)), "count"}
	}

	meter := ob.EnergyMeter()
	kindJ := func(k energyattr.Kind) float64 {
		t := 0.0
		for s := 0; s < meter.Sockets(); s++ {
			for d := 0; d < energyattr.NumDomains; d++ {
				t += meter.ControlKindJ(s, d, k).Joules()
			}
		}
		return t
	}
	m["eattr.queries_j"] = metric{meter.QueriesTotalJ().Joules(), "J"}
	m["eattr.control_j"] = metric{meter.ControlTotalJ().Joules(), "J"}
	m["eattr.loop_j"] = metric{kindJ(energyattr.KindLoop), "J"}
	m["eattr.settle_j"] = metric{kindJ(energyattr.KindSettle), "J"}
	m["eattr.discovery_j"] = metric{kindJ(energyattr.KindDiscovery), "J"}
	m["eattr.rti_sleep_j"] = metric{kindJ(energyattr.KindRTISleep), "J"}
	m["eattr.residual_j"] = metric{meter.ResidualTotalJ().Joules(), "J"}
	m["eattr.query_mj_p50"] = metric{meter.Quantile(0.50).Joules() * 1e3, "mJ"}
	m["eattr.query_mj_p99"] = metric{meter.Quantile(0.99).Joules() * 1e3, "mJ"}
	samples["eattr.query_mj_p*"] = int(meter.QueryCount())

	spans := ob.Tracer().Queries()
	lat := make([]float64, len(spans))
	var phases [trace.NumPhases]time.Duration
	hops := 0
	for i, s := range spans {
		lat[i] = ms(s.Latency())
		for p, d := range s.Phases() {
			phases[p] += d
		}
		if s.Hop {
			hops++
		}
	}
	sort.Float64s(lat)
	n := float64(len(spans))
	m["latency.p50_ms"] = metric{percentile(lat, 0.50), "ms"}
	m["latency.p99_ms"] = metric{percentile(lat, 0.99), "ms"}
	for p, name := range trace.PhaseNames {
		m["phase."+name+"_ms"] = metric{ms(phases[p]) / n, "ms"}
	}
	m["phase.hop_pct"] = metric{100 * float64(hops) / n, "%"}
	samples["latency.p*_ms"] = len(spans)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
