package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"ecldb/internal/hw"
	"ecldb/internal/obs"
	"ecldb/internal/sim"
)

// latencyLimitMs is the paper's soft latency limit (the sim default).
const latencyLimitMs = 100

// govRun is one governor's finished simulation with the engine and
// machine readings taken after Sim.Run returned.
type govRun struct {
	res      *sim.Result
	dropped  int64
	inflight int64
	comm     int64
	busyFrac float64
	// Residency summed over sockets (deep sleep is machine-wide).
	activeS, idleS, deepS float64
	ginstr                float64
	// trueJ is Machine.TrueEnergy per socket and domain, socket-major in
	// the energy meter's domain order (package, DRAM).
	trueJ []float64
	ob    *obs.Observer
}

// rep is one setup + run pair: everything a fresh process pays before
// virtual t=0, then the baseline and ECL runs.
type rep struct {
	capacityS, buildS, prewarmS float64
	baselineS, eclS             float64
	allocB                      uint64 // TotalAlloc over setup + run
	mallocs                     uint64 // run phase
	gcCount                     uint32 // run phase
	gcPauseNs                   uint64 // run phase
	capacity                    float64
	base, ecl                   govRun
}

func (r rep) setupS() float64 { return r.capacityS + r.buildS + r.prewarmS }
func (r rep) runS() float64   { return r.baselineS + r.eclS }

// hooks lets the traced run attach observers and a profiler without a
// second copy of the setup/run sequence. Nil fields are skipped;
// afterRuns runs when runOnce returns, if beforeRuns succeeded.
type hooks struct {
	observer   func() *obs.Observer
	beforeRuns func() error
	afterRuns  func()
}

// runOnce performs one rep of the workload at seed.
func runOnce(sp spec, seed int64, h hooks) (rep, error) {
	var r rep
	var ms0, ms1, ms2 runtime.MemStats
	// Collect the previous rep's garbage first: a fresh process has none
	// to collect during its set-up.
	runtime.GC()
	runtime.ReadMemStats(&ms0)

	t0 := time.Now()
	capacity, err := sim.MeasureCapacity(sp.newWorkload(), seed)
	if err != nil {
		return r, fmt.Errorf("measure capacity: %w", err)
	}
	t1 := time.Now()
	load := sp.load(capacity, seed)
	newSim := func(gov sim.Governor) (*sim.Sim, *obs.Observer, error) {
		var ob *obs.Observer
		if h.observer != nil {
			ob = h.observer()
		}
		s, err := sim.New(sim.Options{
			Workload: sp.newWorkload(),
			Load:     load,
			Governor: gov,
			Seed:     seed,
			Obs:      ob,
		})
		return s, ob, err
	}
	baseSim, baseOb, err := newSim(sim.GovernorBaseline)
	if err != nil {
		return r, fmt.Errorf("build baseline sim: %w", err)
	}
	eclSim, eclOb, err := newSim(sim.GovernorECL)
	if err != nil {
		return r, fmt.Errorf("build ecl sim: %w", err)
	}
	t2 := time.Now()
	eclSim.Prewarm()
	t3 := time.Now()

	runtime.GC()
	runtime.ReadMemStats(&ms1)
	if h.beforeRuns != nil {
		if err := h.beforeRuns(); err != nil {
			return r, err
		}
		defer h.afterRuns()
	}
	t4 := time.Now()
	baseRes, err := baseSim.Run()
	if err != nil {
		return r, fmt.Errorf("baseline run: %w", err)
	}
	t5 := time.Now()
	eclRes, err := eclSim.Run()
	if err != nil {
		return r, fmt.Errorf("ecl run: %w", err)
	}
	t6 := time.Now()
	runtime.ReadMemStats(&ms2)

	r.capacity = capacity
	r.capacityS = t1.Sub(t0).Seconds()
	r.buildS = t2.Sub(t1).Seconds()
	r.prewarmS = t3.Sub(t2).Seconds()
	r.baselineS = t5.Sub(t4).Seconds()
	r.eclS = t6.Sub(t5).Seconds()
	// The forced GC before the runs frees nothing TotalAlloc counted
	// twice, so the delta is the bytes set-up and the runs allocated.
	r.allocB = ms2.TotalAlloc - ms0.TotalAlloc
	r.mallocs = ms2.Mallocs - ms1.Mallocs
	r.gcCount = ms2.NumGC - ms1.NumGC
	r.gcPauseNs = ms2.PauseTotalNs - ms1.PauseTotalNs
	r.base = readGov(baseSim, baseRes, baseOb)
	r.ecl = readGov(eclSim, eclRes, eclOb)
	return r, nil
}

func readGov(s *sim.Sim, res *sim.Result, ob *obs.Observer) govRun {
	g := govRun{res: res, ob: ob}
	eng := s.Engine()
	m := s.Machine()
	g.dropped = eng.DroppedQueries()
	g.inflight = int64(eng.InFlight())
	g.comm = eng.CommMessages()
	var busy, active float64
	for sock := 0; sock < m.Topology().Sockets; sock++ {
		b, a := eng.BusySeconds(sock)
		busy += b
		active += a
		as, is, ds := m.Residency(sock)
		g.activeS += as
		g.idleS += is
		g.deepS = ds
		g.ginstr += m.SocketInstructions(sock) / 1e9
		g.trueJ = append(g.trueJ,
			m.TrueEnergy(sock, hw.DomainPackage).Joules(),
			m.TrueEnergy(sock, hw.DomainDRAM).Joules())
	}
	if active > 0 {
		g.busyFrac = busy / active
	}
	return g
}

// modelled are the deterministic end-to-end metrics of a rep.
type modelled struct {
	savingsPct, sloMissPct, overloadS, latencyP99Ms float64
}

func (r rep) modelled() modelled {
	e := r.ecl.res
	lat := e.Rec.Series("latency_avg_ms")
	return modelled{
		savingsPct:   savingsPct(r.base.res.EnergyJ.Joules(), e.EnergyJ.Joules()),
		sloMissPct:   sloMissPct(e.Violations, r.ecl.dropped, r.ecl.inflight, e.Submitted),
		overloadS:    overloadSeconds(lat.Times, lat.Values, latencyLimitMs),
		latencyP99Ms: float64(e.P99Latency) / float64(time.Millisecond),
	}
}

// attempted and failed count queries over both runs: a query dropped or
// still in flight when its run stopped failed.
func (r rep) attempted() int64 { return r.base.res.Submitted + r.ecl.res.Submitted }
func (r rep) failed() int64 {
	return r.base.dropped + r.base.inflight + r.ecl.dropped + r.ecl.inflight
}

// sameRun returns an error naming the outcomes in which two runs of the
// same seed differ, or nil when every outcome is equal bit for bit.
func sameRun(a, b govRun) error {
	x, y := a.res, b.res
	if x.EnergyJ != y.EnergyJ || x.PSUEnergyJ != y.PSUEnergyJ || x.Submitted != y.Submitted ||
		x.Completed != y.Completed || x.Violations != y.Violations || x.P99Latency != y.P99Latency ||
		a.inflight != b.inflight {
		return fmt.Errorf("energy %v/%v J, psu %v/%v J, submitted %d/%d, completed %d/%d, violations %d/%d, p99 %v/%v, in flight %d/%d",
			x.EnergyJ, y.EnergyJ, x.PSUEnergyJ, y.PSUEnergyJ, x.Submitted, y.Submitted, x.Completed, y.Completed,
			x.Violations, y.Violations, x.P99Latency, y.P99Latency, a.inflight, b.inflight)
	}
	return nil
}

// check applies the seed-independent correctness checks to a rep.
func (r rep) check() error {
	for _, g := range []struct {
		name string
		run  govRun
	}{{"baseline", r.base}, {"ecl", r.ecl}} {
		res := g.run.res
		if res.Submitted <= 0 || res.Completed <= 0 {
			return fmt.Errorf("%s: submitted %d, completed %d: want both > 0", g.name, res.Submitted, res.Completed)
		}
		if res.Submitted != res.Completed+g.run.dropped+g.run.inflight {
			return fmt.Errorf("%s: submitted %d != completed %d + dropped %d + in flight %d",
				g.name, res.Submitted, res.Completed, g.run.dropped, g.run.inflight)
		}
		for _, e := range []float64{res.EnergyJ.Joules(), res.PSUEnergyJ.Joules()} {
			if !(e > 0) || math.IsInf(e, 0) {
				return fmt.Errorf("%s: energy %v J is not finite and positive", g.name, e)
			}
		}
	}
	if r.base.res.Submitted != r.ecl.res.Submitted {
		return fmt.Errorf("baseline submitted %d != ecl submitted %d", r.base.res.Submitted, r.ecl.res.Submitted)
	}
	if s := r.modelled().savingsPct; !(s > 0 && s < 100) {
		return fmt.Errorf("savings %v%% outside (0, 100)", s)
	}
	return nil
}
