// Package sim wires the full reproduction stack — the simulated
// Haswell-EP machine, the elastic data-oriented DBMS, a governor (the ECL
// hierarchy or the race-to-idle baseline), and a load profile — and runs
// experiments on the virtual clock. A "three minute" experiment replays in
// a fraction of a wall second, deterministically.
package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"ecldb/internal/dodb"
	"ecldb/internal/ecl"
	"ecldb/internal/energy"
	"ecldb/internal/hw"
	"ecldb/internal/loadprofile"
	"ecldb/internal/obs"
	"ecldb/internal/obs/energyattr"
	qtrace "ecldb/internal/obs/trace"
	"ecldb/internal/perfmodel"
	"ecldb/internal/trace"
	"ecldb/internal/units"
	"ecldb/internal/vtime"
	"ecldb/internal/workload"
)

// Governor selects the energy policy of a run.
type Governor int

const (
	// GovernorBaseline is the paper's comparison point: all hardware
	// threads always on, CPU/OS frequency control (Section 6.1).
	GovernorBaseline Governor = iota
	// GovernorECL runs the full Energy-Control Loop hierarchy.
	GovernorECL
)

// String names the governor.
func (g Governor) String() string {
	if g == GovernorBaseline {
		return "baseline"
	}
	return "ecl"
}

// sampleEvery is the trace sampling period.
const sampleEvery = 500 * time.Millisecond

// Options configures one simulation run.
type Options struct {
	// Workload is the benchmark to run.
	Workload workload.Workload
	// Load is the offered load profile. Its QPS values are absolute;
	// use MeasureCapacity to scale profiles relative to the system's
	// saturation throughput.
	Load loadprofile.Profile
	// Governor selects the energy policy.
	Governor Governor
	// ECL parameterizes the control loop for GovernorECL.
	ECL ecl.Options
	// Prewarm measures every profile entry before the run starts (the
	// steady-state experiments assume an established profile; the
	// adaptation experiments of Section 6.3 disable this for the new
	// workload instead).
	Prewarm bool
	// SwitchAt, if non-zero, switches to SwitchTo at that instant
	// (Section 6.3's workload change).
	SwitchAt time.Duration
	SwitchTo workload.Workload
	// StaticBinding disables the elasticity extension (ablation).
	StaticBinding bool
	// NUMARouting admits queries at their first target partition's home
	// socket (a NUMA-aware connection router).
	NUMARouting bool
	// Quantum is the simulation step (default 1 ms).
	Quantum time.Duration
	// Seed drives all randomness.
	Seed int64
	// Power overrides the machine power calibration (zero value =
	// DefaultPowerParams).
	Power *hw.PowerParams
	// Obs, when non-nil, attaches the observability layer: machine,
	// engine, and controller emit decision events and metrics into it.
	// Instrumentation is read-only — attaching an observer never changes
	// a run's behavior or its determinism.
	Obs *obs.Observer
	// Reference runs the plain per-quantum walk the production loop is
	// proved against (TestStepPathsByteIdentical): no sample-boundary
	// loop, kernel cache, quiescent fast-forward or closed-form
	// integration.
	// Integer observables are identical; floats agree within 1e-9
	// relative, bit for bit while no fast-forward engages (DESIGN.md §16).
	Reference bool
	// Hook, when non-nil, observes the run from outside the determinism
	// fence (see StepHook). The hook is invoked with the virtual clock's
	// position only — it must treat every reachable structure as
	// read-only, so attaching one never changes a run's behavior or its
	// determinism digest (internal/serve's neutrality test proves it).
	Hook StepHook
}

// StepHook is the pluggable pacing/observation hook of a run: the serving
// layer implements it to pace virtual time against the wall clock and to
// publish observability snapshots, without internal/sim ever importing
// anything outside the fence (the interface is satisfied structurally).
//
// Both methods run on the simulation thread. Implementations may block
// (that is how pacing works) and may read the observer wired into the run
// via Options.Obs — at these boundaries the sim thread is parked, so
// snapshotting obs state here is race-free — but must mutate nothing the
// simulation can observe.
type StepHook interface {
	// OnSample fires after each trace sample, when the observability
	// gauges have just been refreshed, with the virtual now.
	OnSample(now time.Duration)
	// OnDone fires once, after the run loop finished and the controller
	// stopped.
	OnDone(now time.Duration)
}

// referenceDefault forces Options.Reference on every new Sim; set once
// at process start by the eclsim -reference flag so even multi-run sweeps,
// whose regenerators build their own Options, take the reference path.
var referenceDefault bool

// SetReference switches the process-wide default step path to the
// per-quantum reference walk (Options.Reference). Call it before building
// any Sim; it exists for the CLI's -reference flag and must not be toggled
// while runs are in progress.
func SetReference(on bool) { referenceDefault = on }

// Result is the outcome of a run.
type Result struct {
	// Rec holds the recorded time series: "load_qps", "power_rapl_w",
	// "power_psu_w", "latency_avg_ms", "latency_p99_ms",
	// "active_threads", "util0", "perf0", "inflight".
	Rec *trace.Recorder
	// EnergyJ is the total RAPL-visible energy of the run (all sockets,
	// package + DRAM).
	EnergyJ units.Joule
	// PSUEnergyJ is the wall energy of the run.
	PSUEnergyJ units.Joule
	// Completed and Submitted count queries.
	Completed, Submitted int64
	// AvgLatency and P99Latency summarize all windowed observations at
	// the end of the run.
	AvgLatency, P99Latency time.Duration
	// Violations counts completed queries over the latency limit.
	Violations int64
	// ViolationFrac is Violations / Completed.
	ViolationFrac float64
	// Duration is the simulated time.
	Duration time.Duration
	// MostApplied is the configuration the ECL ran most (by time),
	// excluding idle — the "most energy-efficient configuration" column
	// of Table 1. Empty for baseline runs.
	MostApplied string
	// Obs is the observer the run was wired with (nil when observability
	// was disabled). Export its event log with Obs.Log.WriteJSONL, its
	// metrics with Obs.Metrics.WriteProm, or render obs.Report(Obs.Log).
	Obs *obs.Observer
}

// Sim is a fully wired simulation.
type Sim struct {
	opts    Options
	clock   *vtime.Clock
	machine *hw.Machine
	engine  *dodb.Engine
	topo    hw.Topology

	controller *ecl.Controller
	baseline   *ecl.Baseline

	rec     *trace.Recorder
	started time.Duration

	// configTime accumulates time per applied configuration key.
	// configName maps every key seen to its interned key string and its
	// display name (see configKey); keyBuf is configKey's reused buffer.
	configTime map[string]time.Duration
	configName map[string]configLabel
	keyBuf     []byte

	// Reused per-step buffers (the step loop runs ~10^5 times per
	// experiment).
	bufActive [][]bool
	bufBudget [][]float64
	bufCaps   []perfmodel.Capacity
	bufEffs   []hw.Configuration
	bufActs   []hw.SocketActivity

	// Epoch-keyed step kernel cache (nil under Options.Reference): one
	// kernel per socket, refreshed only when the machine's StateEpoch or
	// the engine's CharacteristicsEpoch moved. kernActive aliases the
	// kernels' active masks in the shape engine.Step expects.
	kernels    []stepKernel
	kernActive [][]bool

	// synActs is the reused buffer of advanceSynthetic.
	synActs []hw.SocketActivity

	// Fast-path accounting (test introspection): quiescent stretches with
	// every socket idle and with some socket awake, and the quanta the
	// machine integrated in closed form.
	idleWindows  int64
	awakeWindows int64
	batchQuanta  int64

	// Reused per-sample power buffers (Machine.LastPowerInto).
	bufPkgW  []units.Watt
	bufDramW []units.Watt

	// Quiescent stretch buffers: the constant per-quantum activity and
	// the per-socket eligible and active worker counts.
	stretchActs     []hw.SocketActivity
	stretchEligible []int
	stretchActive   []int

	// Sampling state: power samples are averages over the sampling
	// window (instantaneous samples alias with RTI switching).
	lastSampleAt   time.Duration
	lastSampleJ    units.Joule
	lastSamplePSUJ units.Joule

	// Observability gauges refreshed at each trace sample (nil when
	// disabled).
	obsInflight  *obs.Gauge
	obsThreads   *obs.Gauge
	obsLatP50    *obs.Gauge
	obsLatP95    *obs.Gauge
	obsLatP99    *obs.Gauge
	obsQueueDep  []*obs.Gauge // per socket
	obsDebtInstr []*obs.Gauge // per socket
	obsPowerRapl *obs.Gauge
	obsPowerPSU  *obs.Gauge
	obsLoadQPS   *obs.Gauge
	obsCoreMHz   []*obs.Gauge // per socket

	// Energy attribution (nil/empty when disabled): the meter, the reused
	// per-socket distribution buffer, the sample-time metric handles, and
	// the previous cumulative totals the counter deltas and Perfetto
	// counter-track watts are derived from.
	eattr            *energyattr.Meter
	attrReg          *obs.Registry
	attrTracer       *qtrace.Tracer
	attrPerW         []units.Joule
	attrActive       []int
	obsEPQ50         *obs.Gauge
	obsEPQ95         *obs.Gauge
	obsEPQ99         *obs.Gauge
	obsESaved        *obs.Gauge
	obsEAttrQueries  *obs.Counter
	obsEAttrControl  *obs.Counter
	obsEAttrResidual *obs.Counter
	prevAttrQueries  float64
	prevAttrControl  float64
	prevAttrResidual float64
	lastEnergyAt     time.Duration
	obsClassJ        []*obs.Counter
	prevClassJ       []float64
}

// New builds a simulation.
func New(opts Options) (*Sim, error) {
	if opts.Workload == nil || opts.Load == nil {
		return nil, fmt.Errorf("sim: workload and load profile required")
	}
	if opts.Quantum <= 0 {
		opts.Quantum = time.Millisecond
	}
	if referenceDefault {
		opts.Reference = true
	}
	pp := hw.DefaultPowerParams()
	if opts.Power != nil {
		pp = *opts.Power
	}
	topo := hw.HaswellEP()
	s := &Sim{
		opts:       opts,
		clock:      vtime.NewClock(),
		machine:    hw.NewMachine(topo, pp, opts.Seed),
		topo:       topo,
		rec:        trace.NewRecorder(),
		configTime: make(map[string]time.Duration),
		configName: make(map[string]configLabel),
	}
	eng, err := dodb.New(dodb.Config{
		Topo:          topo,
		Workload:      opts.Workload,
		StaticBinding: opts.StaticBinding,
		NUMARouting:   opts.NUMARouting,
		Seed:          opts.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	s.engine = eng

	switch opts.Governor {
	case GovernorBaseline:
		s.baseline = ecl.NewBaseline(s.machine)
	case GovernorECL:
		if opts.ECL.Interval == 0 {
			opts.ECL = ecl.DefaultOptions()
		}
		ctl, err := ecl.NewController(s.machine, s.clock, eng.Latency(), eng, opts.ECL)
		if err != nil {
			return nil, err
		}
		s.controller = ctl
	default:
		return nil, fmt.Errorf("sim: unknown governor %d", opts.Governor)
	}
	eng.Latency().SetThreshold(latencyLimit(opts))
	if opts.Obs != nil {
		s.attachObserver(opts.Obs)
	}
	return s, nil
}

// attachObserver wires the observability layer through the whole stack.
func (s *Sim) attachObserver(ob *obs.Observer) {
	s.machine.SetObserver(ob)
	s.engine.SetObserver(ob)
	if s.controller != nil {
		s.controller.SetObserver(ob)
	}
	reg := ob.Reg()
	s.obsInflight = reg.Gauge("dodb_inflight")
	s.obsThreads = reg.Gauge("hw_active_threads")
	// Windowed latency quantiles (the paper's soft-limit story is about
	// the distribution tail, not the mean): the LatencyTracker's exact
	// order statistics, refreshed per trace sample. The p99 gauge is the
	// latency_p99_ms series value.
	s.obsLatP50 = reg.Gauge("dodb_latency_p50_ms")
	s.obsLatP95 = reg.Gauge("dodb_latency_p95_ms")
	s.obsLatP99 = reg.Gauge("dodb_latency_p99_ms")
	// Per-sample machine/load gauges: the live serving surface reads
	// these from snapshots, and a stock Prometheus scrapes them from
	// /metrics. Power is the windowed average over the last sample
	// window, like the recorded series.
	s.obsPowerRapl = reg.Gauge("hw_power_rapl_w")
	s.obsPowerPSU = reg.Gauge("hw_power_psu_w")
	s.obsLoadQPS = reg.Gauge("sim_load_qps")
	reg.SetHelp("hw_power_rapl_w", "RAPL power (package+DRAM, all sockets), averaged over the last trace-sample window, in watts.")
	reg.SetHelp("hw_power_psu_w", "Wall (PSU) power averaged over the last trace-sample window, in watts.")
	reg.SetHelp("sim_load_qps", "Offered load at the last trace sample, in queries per second.")
	reg.SetHelp("hw_core_mhz", "Mean clock of the socket's active physical cores at the last trace sample, in MHz (0 when idle).")
	s.obsQueueDep, s.obsDebtInstr, s.obsCoreMHz = nil, nil, nil
	if reg != nil {
		for sock := 0; sock < s.topo.Sockets; sock++ {
			id := fmt.Sprintf("%d", sock)
			s.obsQueueDep = append(s.obsQueueDep,
				reg.Gauge(`dodb_queue_depth{socket="`+id+`"}`))
			s.obsDebtInstr = append(s.obsDebtInstr,
				reg.Gauge(`dodb_budget_debt_instr{socket="`+id+`"}`))
			s.obsCoreMHz = append(s.obsCoreMHz,
				reg.Gauge(`hw_core_mhz{socket="`+id+`"}`))
		}
	}
	s.eattr = ob.EnergyMeter()
	if s.eattr.Enabled() {
		s.attrReg = reg
		s.attrTracer = ob.Tracer()
		s.attrPerW = make([]units.Joule, s.topo.Sockets)
		s.attrActive = make([]int, s.topo.Sockets)
		s.obsEPQ50 = reg.Gauge("ecl_energy_per_query_j_p50")
		s.obsEPQ95 = reg.Gauge("ecl_energy_per_query_j_p95")
		s.obsEPQ99 = reg.Gauge("ecl_energy_per_query_j_p99")
		s.obsESaved = reg.Gauge("ecl_energy_saved_joules_total")
		s.obsEAttrQueries = reg.Counter(`ecl_energy_attributed_joules_total{class="queries"}`)
		s.obsEAttrControl = reg.Counter(`ecl_energy_attributed_joules_total{class="control"}`)
		s.obsEAttrResidual = reg.Counter(`ecl_energy_attributed_joules_total{class="residual"}`)
		reg.SetHelp("ecl_energy_per_query_j_p50", "Median attributed energy per completed query, in joules.")
		reg.SetHelp("ecl_energy_per_query_j_p95", "95th-percentile attributed energy per completed query, in joules.")
		reg.SetHelp("ecl_energy_per_query_j_p99", "99th-percentile attributed energy per completed query, in joules.")
		reg.SetHelp("ecl_energy_saved_joules_total", "Energy saved versus the frozen always-max baseline, in joules (gauge: the controller can lose ground).")
		s.characterizeBaseline()
	}
}

// characterizeBaseline freezes the attribution meter's always-max
// counterfactual: for each socket, the power the machine model yields at
// hw.AllMax when fully loaded and when merely spinning, plus the
// instruction rate a full load sustains. The characterization reads the
// same PowerParams/perfmodel functions the step paths evaluate — it never
// touches machine state, so attaching attribution cannot perturb a run
// (TestEnergyAttrBehaviorNeutral proves it).
func (s *Sim) characterizeBaseline() {
	pp := s.machine.Params()
	max := hw.AllMax(s.topo)
	bwCap := hw.BandwidthCapGBs(max.UncoreMHz)
	n := s.topo.ThreadsPerSocket()
	for sock := 0; sock < s.topo.Sockets; sock++ {
		cap_ := perfmodel.SocketCapacity(s.topo, max, s.engine.SocketCharacteristics(sock), 1)
		full := hw.SocketActivity{
			Busy:     make([]float64, n),
			Spin:     make([]float64, n),
			Instr:    make([]float64, n),
			MemGBs:   cap_.MemGBsAtFull,
			DynScale: cap_.DynScale,
		}
		spin := hw.SocketActivity{
			Busy:     make([]float64, n),
			Spin:     make([]float64, n),
			Instr:    make([]float64, n),
			DynScale: cap_.DynScale,
		}
		for i, r := range cap_.PerThread {
			if r > 0 {
				full.Busy[i] = 1
			}
			spin.Spin[i] = 1
		}
		fullPkgW, fullDramW := pp.SocketPowerW(s.topo, sock, max, full, false, bwCap)
		spinPkgW, spinDramW := pp.SocketPowerW(s.topo, sock, max, spin, false, bwCap)
		s.eattr.SetBaseline(sock, spinPkgW, spinDramW, fullPkgW, fullDramW, cap_.Aggregate)
	}
}

func latencyLimit(opts Options) time.Duration {
	if opts.ECL.LatencyLimit > 0 {
		return opts.ECL.LatencyLimit
	}
	return 100 * time.Millisecond
}

// Machine exposes the simulated hardware (for examples and tests).
func (s *Sim) Machine() *hw.Machine { return s.machine }

// Engine exposes the database runtime.
func (s *Sim) Engine() *dodb.Engine { return s.engine }

// Controller exposes the ECL hierarchy (nil for baseline runs).
func (s *Sim) Controller() *ecl.Controller { return s.controller }

// Prewarm measures every profile entry of every socket under synthetic
// full load: apply, settle, measure one window, record. It mirrors what
// the multiplexed adaptation does at runtime, compressed to before t=0.
func (s *Sim) Prewarm() {
	if s.controller == nil {
		return
	}
	settle := 5 * time.Millisecond
	window := 100 * time.Millisecond
	// All sockets share the generator, so entry i is the same hardware
	// state everywhere; measuring them simultaneously halves the sweep.
	n := s.controller.Socket(0).Profile().Size()
	for i := 0; i < n; i++ {
		for sock := 0; sock < s.topo.Sockets; sock++ {
			e := s.controller.Socket(sock).Profile().Entries()[i]
			if err := s.machine.Apply(sock, e.Config); err != nil {
				panic(err)
			}
		}
		s.advanceSynthetic(settle)
		type snap struct {
			e0 units.Joule
			i0 float64
		}
		snaps := make([]snap, s.topo.Sockets)
		for sock := range snaps {
			snaps[sock] = snap{
				e0: s.machine.ReadEnergy(sock, hw.DomainPackage) + s.machine.ReadEnergy(sock, hw.DomainDRAM),
				i0: s.machine.SocketInstructions(sock),
			}
		}
		s.advanceSynthetic(window)
		for sock := 0; sock < s.topo.Sockets; sock++ {
			prof := s.controller.Socket(sock).Profile()
			e := prof.Entries()[i]
			e1 := s.machine.ReadEnergy(sock, hw.DomainPackage) + s.machine.ReadEnergy(sock, hw.DomainDRAM)
			i1 := s.machine.SocketInstructions(sock)
			sec := window.Seconds()
			if _, err := prof.Update(e.Config, (e1 - snaps[sock].e0).PerSeconds(sec), units.HertzOf((i1-snaps[sock].i0)/sec), s.clock.Now()); err != nil {
				panic(err)
			}
		}
	}
	// The profiles are fresh: drop the bootstrap adaptation queues and
	// return to idle so the run starts clean.
	for sock := 0; sock < s.topo.Sockets; sock++ {
		s.controller.Socket(sock).ResetAdaptation()
		if err := s.machine.Apply(sock, hw.NewConfiguration(s.topo)); err != nil {
			panic(err)
		}
	}
	s.advanceSynthetic(10 * time.Millisecond)
}

// SaveProfiles writes every socket's energy profile as JSON (socket index
// prefixes each document). Reloading with LoadProfiles skips the prewarm
// sweep on a later run of the same workload.
func (s *Sim) SaveProfiles(w io.Writer) error {
	if s.controller == nil {
		return fmt.Errorf("sim: baseline runs have no profiles")
	}
	for sock := 0; sock < s.topo.Sockets; sock++ {
		if err := s.controller.Socket(sock).Profile().Save(w); err != nil {
			return err
		}
	}
	return nil
}

// LoadProfiles restores profiles previously written by SaveProfiles into
// the controller's sockets (in socket order) and clears the bootstrap
// adaptation queues.
func (s *Sim) LoadProfiles(r io.Reader) error {
	if s.controller == nil {
		return fmt.Errorf("sim: baseline runs have no profiles")
	}
	dec := json.NewDecoder(r)
	for sock := 0; sock < s.topo.Sockets; sock++ {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return fmt.Errorf("sim: loading profile for socket %d: %w", sock, err)
		}
		p, err := energy.LoadProfile(bytes.NewReader(raw), s.topo)
		if err != nil {
			return err
		}
		s.controller.Socket(sock).ReplaceProfile(p)
	}
	return nil
}

// stepKernel memoizes everything sim.step derives per socket that only
// depends on the effective hardware configuration, the throttle factor,
// and the workload characteristics: the capacity, the per-quantum budget
// row, the active-thread mask, the per-thread effective clock in GHz, and
// the Key/String renderings used for Table 1 config-time accounting. A
// kernel stays valid while the composite (hw.Machine.StateEpoch,
// dodb.Engine.CharacteristicsEpoch) pair is unchanged, turning the
// per-quantum cost into two integer compares.
type stepKernel struct {
	valid    bool
	cfgEpoch uint64
	chEpoch  uint64
	idle     bool
	active   []bool
	budget   []float64 // PerThread[lt] * Quantum seconds
	fGHz     []float64 // effective core clock per local thread, in GHz
	caps     perfmodel.Capacity
	key      string
	// timeAcc batches applied-configuration time (Table 1 accounting):
	// instead of a map update per quantum, time accumulates here and is
	// flushed into configTime on refresh and before mostApplied reads.
	timeAcc time.Duration
}

// initKernels allocates the kernel cache and the shared step buffers the
// cached path reuses every quantum.
func (s *Sim) initKernels() {
	n := s.topo.ThreadsPerSocket()
	s.kernels = make([]stepKernel, s.topo.Sockets)
	s.kernActive = make([][]bool, s.topo.Sockets)
	for sock := range s.kernels {
		k := &s.kernels[sock]
		k.active = make([]bool, n)
		k.budget = make([]float64, n)
		k.fGHz = make([]float64, n)
		k.caps = perfmodel.Capacity{PerThread: make([]float64, n)}
		s.kernActive[sock] = k.active
	}
	if s.bufBudget == nil {
		s.bufBudget = make([][]float64, s.topo.Sockets)
		for sock := range s.bufBudget {
			s.bufBudget[sock] = make([]float64, n)
		}
	}
	if s.bufActs == nil {
		s.bufActs = make([]hw.SocketActivity, s.topo.Sockets)
		for sock := range s.bufActs {
			s.bufActs[sock] = hw.SocketActivity{
				Spin:  make([]float64, n),
				Instr: make([]float64, n),
			}
		}
	}
}

// kernelFor returns the socket's kernel, refreshing it if any epoch moved.
//
//ecllint:hotpath the step-kernel cache lookup, consulted every quantum per socket
func (s *Sim) kernelFor(sock int) *stepKernel {
	k := &s.kernels[sock]
	ce := s.machine.StateEpoch(sock)
	we := s.engine.CharacteristicsEpoch()
	if k.valid && k.cfgEpoch == ce && k.chEpoch == we {
		return k
	}
	//ecllint:allow hotpath cache-miss slow path, amortized across configuration epochs; the hit path above allocates nothing
	s.refreshKernel(sock, k, ce, we)
	return k
}

// refreshKernel recomputes a socket's kernel from the current effective
// configuration and workload characteristics. Once the kernel exists it
// allocates only on a configuration's first sighting (configKey), so
// epoch churn (e.g. auto-UFS decay bumping the clock every quantum)
// cannot regress the step loop's allocation budget.
func (s *Sim) refreshKernel(sock int, k *stepKernel, ce, we uint64) {
	s.flushConfigTime(k)
	eff := s.machine.EffectiveView(sock)
	ch := s.engine.SocketCharacteristics(sock)
	k.caps = perfmodel.SocketCapacityInto(k.caps.PerThread, s.topo, *eff, ch, s.machine.ThrottleFactor(sock))
	qs := s.opts.Quantum.Seconds()
	n := s.topo.ThreadsPerSocket()
	for lt := 0; lt < n; lt++ {
		k.active[lt] = eff.Threads[lt]
		k.budget[lt] = k.caps.PerThread[lt] * qs
		k.fGHz[lt] = float64(eff.CoreMHz[s.topo.CoreOfLocal(lt)]) / 1000
	}
	k.idle = eff.Idle()
	k.key = ""
	if s.controller != nil && !k.idle {
		k.key = s.configKey(eff)
	}
	k.valid, k.cfgEpoch, k.chEpoch = true, ce, we
}

// configLabel is an applied configuration's interned key and display
// name.
type configLabel struct{ key, name string }

// configKey returns the interned key string of a configuration. The key
// is built into a reused buffer and looked up with string(buf), which
// does not allocate; the key string and the display name (a pure
// function of the key) are rendered only on a key's first sighting.
func (s *Sim) configKey(eff *hw.Configuration) string {
	s.keyBuf = eff.AppendKey(s.keyBuf[:0], s.topo.ThreadsPerCore)
	if l, ok := s.configName[string(s.keyBuf)]; ok {
		return l.key
	}
	l := configLabel{key: string(s.keyBuf), name: eff.String()}
	s.configName[l.key] = l
	return l.key
}

// flushConfigTime moves a kernel's batched applied-configuration time
// into the configTime map. Duration addition is exact integer math, so
// batching cannot change the accumulated totals.
func (s *Sim) flushConfigTime(k *stepKernel) {
	if k.key != "" && k.timeAcc > 0 {
		s.configTime[k.key] += k.timeAcc
	}
	k.timeAcc = 0
}

// advanceSynthetic steps machine and clock under synthetic full-capacity
// load (no queries involved), using each socket's own workload
// characteristics.
func (s *Sim) advanceSynthetic(dt time.Duration) {
	if s.opts.Reference {
		s.advanceSyntheticNaive(dt)
		return
	}
	if s.kernels == nil {
		s.initKernels()
	}
	if s.synActs == nil {
		s.synActs = newZeroActs(s.topo)
	}
	for dt > 0 {
		q := s.opts.Quantum
		if q > dt {
			q = dt
		}
		for sock := 0; sock < s.topo.Sockets; sock++ {
			k := s.kernelFor(sock)
			a := &s.synActs[sock]
			a.MemGBs = k.caps.MemGBsAtFull
			a.DynScale = k.caps.DynScale
			for i, r := range k.caps.PerThread {
				if r > 0 {
					a.Busy[i] = 1
					a.Instr[i] = r * q.Seconds()
				} else {
					a.Busy[i] = 0
					a.Instr[i] = 0
				}
			}
		}
		s.machine.Step(q, s.synActs)
		s.clock.Advance(q)
		dt -= q
	}
}

// advanceSyntheticNaive is the reference implementation of
// advanceSynthetic: fresh buffers and a full perf-model evaluation every
// quantum. The cached variant above reproduces its arithmetic exactly.
func (s *Sim) advanceSyntheticNaive(dt time.Duration) {
	for dt > 0 {
		q := s.opts.Quantum
		if q > dt {
			q = dt
		}
		acts := make([]hw.SocketActivity, s.topo.Sockets)
		for sock := 0; sock < s.topo.Sockets; sock++ {
			eff := s.machine.Effective(sock)
			cap_ := perfmodel.SocketCapacity(s.topo, eff, s.engine.SocketCharacteristics(sock), s.machine.ThrottleFactor(sock))
			n := s.topo.ThreadsPerSocket()
			acts[sock] = hw.SocketActivity{
				Busy:     make([]float64, n),
				Spin:     make([]float64, n),
				Instr:    make([]float64, n),
				MemGBs:   cap_.MemGBsAtFull,
				DynScale: cap_.DynScale,
			}
			for i, r := range cap_.PerThread {
				if r > 0 {
					acts[sock].Busy[i] = 1
					acts[sock].Instr[i] = r * q.Seconds()
				}
			}
		}
		s.machine.Step(q, acts)
		s.clock.Advance(q)
		dt -= q
	}
}

// newZeroActs builds an all-zero per-socket activity set.
func newZeroActs(topo hw.Topology) []hw.SocketActivity {
	n := topo.ThreadsPerSocket()
	acts := make([]hw.SocketActivity, topo.Sockets)
	for sock := range acts {
		acts[sock] = hw.SocketActivity{
			Busy:  make([]float64, n),
			Spin:  make([]float64, n),
			Instr: make([]float64, n),
		}
	}
	return acts
}

// Run executes the load profile and returns the result.
func (s *Sim) Run() (*Result, error) {
	if s.opts.Prewarm {
		s.Prewarm()
	}
	if s.baseline != nil {
		s.baseline.Start()
	}
	if s.controller != nil {
		s.controller.Start()
	}
	s.started = s.clock.Now()
	e0 := s.totalEnergy()
	psu0 := s.machine.PSUEnergy()
	s.lastSampleAt, s.lastSampleJ, s.lastSamplePSUJ = s.started, e0, psu0
	// Energy integrated before the run window (prewarm sweeps, governor
	// start-up) stays in the meter's integrated totals but is attributed
	// to nobody: flush it into the derived residual.
	s.eattr.FlushPending()
	s.lastEnergyAt = s.started

	dur := s.opts.Load.Duration()
	hook := s.opts.Hook

	var loopErr error
	if s.opts.Reference {
		loopErr = s.runQuanta(dur)
	} else {
		loopErr = s.runEvents(dur)
	}
	if loopErr != nil {
		return nil, loopErr
	}
	s.sample(dur)
	if hook != nil {
		hook.OnSample(s.clock.Now())
	}

	if s.controller != nil {
		s.controller.Stop()
	}
	s.eattr.CloseLedger(s.clock.Now())

	res := &Result{
		Rec:        s.rec,
		EnergyJ:    s.totalEnergy() - e0,
		PSUEnergyJ: s.machine.PSUEnergy() - psu0,
		Completed:  s.engine.CompletedQueries(),
		Submitted:  s.engine.SubmittedQueries(),
		Duration:   dur,
	}
	lt := s.engine.Latency()
	res.Violations = lt.OverThreshold()
	if res.Completed > 0 {
		res.ViolationFrac = float64(res.Violations) / float64(res.Completed)
	}
	res.AvgLatency = time.Duration(int64(s.rec.Series("latency_avg_ms").Mean() * float64(time.Millisecond)))
	res.P99Latency = time.Duration(int64(s.rec.Series("latency_p99_ms").Max() * float64(time.Millisecond)))
	res.MostApplied = s.mostApplied()
	res.Obs = s.opts.Obs
	if hook != nil {
		hook.OnDone(s.clock.Now())
	}
	return res, nil
}

// runQuanta is the reference run loop (Options.Reference): a plain walk
// over every quantum that checks each iteration for the workload switch
// and the trace sample and steps the full stack. The sample-boundary
// loop in runevents.go is the production loop proved against it.
func (s *Sim) runQuanta(dur time.Duration) error {
	q := s.opts.Quantum
	nextSample := time.Duration(0)
	switched := false
	hook := s.opts.Hook

	for t := time.Duration(0); t < dur; t += q {
		now := s.clock.Now()
		if !switched && s.opts.SwitchAt > 0 && t >= s.opts.SwitchAt && s.opts.SwitchTo != nil {
			if err := s.engine.SwitchWorkload(s.opts.SwitchTo); err != nil {
				return err
			}
			switched = true
		}
		if err := s.engine.OfferLoad(units.HertzOf(s.opts.Load.QPS(t)), q, now); err != nil {
			return err
		}
		s.step(q)
		if t >= nextSample {
			s.sample(t)
			nextSample += sampleEvery
			if hook != nil {
				hook.OnSample(s.clock.Now())
			}
		}
	}
	return nil
}

// accrueStepAttr opens the attribution of one per-quantum step, after
// the engine ran and before the machine integrates: per socket it records
// the quantum-start active thread count — the activity the machine is
// about to integrate, so a settle committing at the quantum end cannot
// move the loop-overhead charge — and advances the always-max
// counterfactual by the instructions actually retired. Accruing before
// the clock advance keeps the quantum's baseline in its own ledger reign:
// a controller deadline at the quantum end reconfigures only during the
// advance.
func (s *Sim) accrueStepAttr(q time.Duration, stats []dodb.SocketStats) {
	if !s.eattr.Enabled() {
		return
	}
	for sock := 0; sock < s.topo.Sockets; sock++ {
		s.attrActive[sock] = s.machine.EffectiveView(sock).ActiveThreads()
		used := 0.0
		for _, u := range stats[sock].UsedInstr {
			used += u
		}
		s.eattr.AccrueBaseline(sock, used, q)
	}
}

// settleStepAttr closes the attribution span of one full per-quantum
// step: per socket, it splits the quantum's pending joules by the engine's
// query weights and the controller's busy-poll overhead (charged on the
// active count accrueStepAttr recorded), and hands the per-weight query
// share back to the engine for per-query distribution. Called after the
// clock advance, so the span end is the quantum boundary the machine just
// integrated to.
func (s *Sim) settleStepAttr(q time.Duration) {
	if !s.eattr.Enabled() {
		return
	}
	end := s.clock.Now()
	w := s.engine.AttrWeights()
	for sock := 0; sock < s.topo.Sockets; sock++ {
		active := s.attrActive[sock]
		loop := 0.0
		if s.controller != nil && active > 0 {
			loop = s.controller.Overhead()
		}
		s.attrPerW[sock] = s.eattr.Settle(sock, end-q, end, active, w[sock], loop)
	}
	s.engine.DistributeEnergy(s.attrPerW)
}

// accrueIdleBaseline advances every socket's always-max counterfactual
// over a workless span (nothing retired). Like accrueStepAttr it runs
// before the clock advance, so the span's baseline lands in its own
// ledger reign.
func (s *Sim) accrueIdleBaseline(span time.Duration) {
	if !s.eattr.Enabled() {
		return
	}
	for sock := 0; sock < s.topo.Sockets; sock++ {
		s.eattr.AccrueBaseline(sock, 0, span)
	}
}

// settleStretchAttr closes the attribution span of a quiescent stretch
// (engine empty, workers spinning or parked): query weight is provably
// zero, so the span splits between the controller's loop overhead on
// sockets with active threads, any control windows (an RTI sleep slice,
// a settling transition), and the residual.
func (s *Sim) settleStretchAttr(span time.Duration) {
	if !s.eattr.Enabled() {
		return
	}
	end := s.clock.Now()
	for sock := 0; sock < s.topo.Sockets; sock++ {
		active := s.stretchActive[sock]
		loop := 0.0
		if s.controller != nil && active > 0 {
			loop = s.controller.Overhead()
		}
		s.eattr.Settle(sock, end-span, end, active, 0, loop)
	}
}

// step advances the whole stack by one quantum.
func (s *Sim) step(q time.Duration) {
	if s.opts.Reference {
		s.stepNaive(q)
		return
	}
	s.stepCached(q)
}

// stepCached is the epoch-cached step: per-socket state comes from the
// kernel cache (refreshed only on epoch movement) and all buffers are
// reused. Its arithmetic — expression by expression, in evaluation
// order — matches stepNaive, so results are bit-identical.
func (s *Sim) stepCached(q time.Duration) {
	if s.kernels == nil {
		s.initKernels()
	}
	n := s.topo.ThreadsPerSocket()
	for sock := 0; sock < s.topo.Sockets; sock++ {
		k := s.kernelFor(sock)
		// The engine consumes budget rows in place; hand it a copy so
		// the kernel's row survives the quantum.
		copy(s.bufBudget[sock], k.budget)
		// Track applied-configuration time for Table 1's "best
		// configuration" column.
		if s.controller != nil && !k.idle {
			k.timeAcc += q
		}
	}

	now := s.clock.Now()
	stats := s.engine.Step(now+q, q, s.kernActive, s.bufBudget)

	acts := s.bufActs
	for sock := 0; sock < s.topo.Sockets; sock++ {
		k := &s.kernels[sock]
		acts[sock].Busy = stats[sock].BusyFrac
		acts[sock].MemGBs = stats[sock].MemBytes / 1e9 / q.Seconds()
		acts[sock].DynScale = k.caps.DynScale
		firstActive := -1
		for lt := 0; lt < n; lt++ {
			acts[sock].Spin[lt] = 0
			acts[sock].Instr[lt] = 0
			if !k.active[lt] {
				continue
			}
			if firstActive < 0 {
				firstActive = lt
			}
			// Active workers without work busy-poll the message hubs
			// (the always-on property of the data-oriented runtime).
			spin := 1 - stats[sock].BusyFrac[lt]
			if spin < 0 {
				spin = 0
			}
			acts[sock].Spin[lt] = spin
			acts[sock].Instr[lt] = stats[sock].UsedInstr[lt] + spin*perfmodel.SpinIPC*k.fGHz[lt]*1e9*q.Seconds()
		}
		// The ECL itself costs ~2 % of one hardware thread per socket.
		if s.controller != nil && firstActive >= 0 {
			b := acts[sock].Busy[firstActive] + s.controller.Overhead()
			if b > 1 {
				b = 1
			}
			acts[sock].Busy[firstActive] = b
		}
	}
	s.accrueStepAttr(q, stats)
	s.machine.Step(q, acts)
	s.clock.Advance(q)
	s.settleStepAttr(q)
}

// stepNaive is the reference step implementation: a full perf-model
// evaluation and configuration render per socket per quantum.
func (s *Sim) stepNaive(q time.Duration) {
	if s.bufActive == nil {
		n := s.topo.ThreadsPerSocket()
		s.bufActive = make([][]bool, s.topo.Sockets)
		s.bufBudget = make([][]float64, s.topo.Sockets)
		s.bufCaps = make([]perfmodel.Capacity, s.topo.Sockets)
		s.bufEffs = make([]hw.Configuration, s.topo.Sockets)
		s.bufActs = make([]hw.SocketActivity, s.topo.Sockets)
		for sock := range s.bufActive {
			s.bufActive[sock] = make([]bool, n)
			s.bufBudget[sock] = make([]float64, n)
			s.bufActs[sock] = hw.SocketActivity{
				Spin:  make([]float64, n),
				Instr: make([]float64, n),
			}
		}
	}
	active, budget, caps, effs := s.bufActive, s.bufBudget, s.bufCaps, s.bufEffs
	for sock := 0; sock < s.topo.Sockets; sock++ {
		ch := s.engine.SocketCharacteristics(sock)
		eff := s.machine.Effective(sock)
		effs[sock] = eff
		caps[sock] = perfmodel.SocketCapacity(s.topo, eff, ch, s.machine.ThrottleFactor(sock))
		n := s.topo.ThreadsPerSocket()
		for lt := 0; lt < n; lt++ {
			active[sock][lt] = eff.Threads[lt]
			budget[sock][lt] = caps[sock].PerThread[lt] * q.Seconds()
		}
		// Track applied-configuration time for Table 1's "best
		// configuration" column.
		if s.controller != nil && !eff.Idle() {
			s.configTime[s.configKey(&eff)] += q
		}
	}

	now := s.clock.Now()
	stats := s.engine.Step(now+q, q, active, budget)

	acts := s.bufActs
	for sock := 0; sock < s.topo.Sockets; sock++ {
		n := s.topo.ThreadsPerSocket()
		acts[sock].Busy = stats[sock].BusyFrac
		acts[sock].MemGBs = stats[sock].MemBytes / 1e9 / q.Seconds()
		acts[sock].DynScale = caps[sock].DynScale
		firstActive := -1
		for lt := 0; lt < n; lt++ {
			acts[sock].Spin[lt] = 0
			acts[sock].Instr[lt] = 0
			if !active[sock][lt] {
				continue
			}
			if firstActive < 0 {
				firstActive = lt
			}
			// Active workers without work busy-poll the message hubs
			// (the always-on property of the data-oriented runtime).
			spin := 1 - stats[sock].BusyFrac[lt]
			if spin < 0 {
				spin = 0
			}
			acts[sock].Spin[lt] = spin
			core := s.topo.CoreOfLocal(lt)
			fGHz := float64(effs[sock].CoreMHz[core]) / 1000
			acts[sock].Instr[lt] = stats[sock].UsedInstr[lt] + spin*perfmodel.SpinIPC*fGHz*1e9*q.Seconds()
		}
		// The ECL itself costs ~2 % of one hardware thread per socket.
		if s.controller != nil && firstActive >= 0 {
			b := acts[sock].Busy[firstActive] + s.controller.Overhead()
			if b > 1 {
				b = 1
			}
			acts[sock].Busy[firstActive] = b
		}
	}
	s.accrueStepAttr(q, stats)
	s.machine.Step(q, acts)
	s.clock.Advance(q)
	s.settleStepAttr(q)
}

// sample records the trace series at profile time t. Power values are
// averaged over the window since the previous sample, mirroring how the
// paper derives power from RAPL energy counters.
func (s *Sim) sample(t time.Duration) {
	now := s.clock.Now()
	totalJ := s.totalEnergy()
	psuJ := s.machine.PSUEnergy()
	var raplW, psuW units.Watt
	if window := (now - s.lastSampleAt).Seconds(); window > 0 {
		raplW = (totalJ - s.lastSampleJ).PerSeconds(window)
		psuW = (psuJ - s.lastSamplePSUJ).PerSeconds(window)
	} else {
		if s.bufPkgW == nil {
			s.bufPkgW = make([]units.Watt, s.topo.Sockets)
			s.bufDramW = make([]units.Watt, s.topo.Sockets)
		}
		psuW = s.machine.LastPowerInto(s.bufPkgW, s.bufDramW)
		for i := range s.bufPkgW {
			raplW += s.bufPkgW[i] + s.bufDramW[i]
		}
	}
	s.lastSampleAt, s.lastSampleJ, s.lastSamplePSUJ = now, totalJ, psuJ
	s.rec.Add("load_qps", t, s.opts.Load.QPS(t))
	s.rec.Add("power_rapl_w", t, raplW.Watts())
	s.rec.Add("power_psu_w", t, psuW.Watts())
	lt := s.engine.Latency()
	s.rec.Add("latency_avg_ms", t, float64(lt.Average(now))/float64(time.Millisecond))
	p99Ms := float64(lt.Percentile(now, 0.99)) / float64(time.Millisecond)
	s.rec.Add("latency_p99_ms", t, p99Ms)
	activeThreads := 0
	for sock := 0; sock < s.topo.Sockets; sock++ {
		eff := s.machine.Effective(sock)
		activeThreads += eff.ActiveThreads()
		if sock < len(s.obsCoreMHz) {
			s.obsCoreMHz[sock].Set(eff.AvgCoreMHz(s.topo.ThreadsPerCore))
		}
	}
	s.rec.Add("active_threads", t, float64(activeThreads))
	s.rec.Add("util0", t, s.engine.Utilization(0))
	s.rec.Add("inflight", t, float64(s.engine.InFlight()))
	s.obsInflight.Set(float64(s.engine.InFlight()))
	s.obsThreads.Set(float64(activeThreads))
	s.obsPowerRapl.Set(raplW.Watts())
	s.obsPowerPSU.Set(psuW.Watts())
	s.obsLoadQPS.Set(s.opts.Load.QPS(t))
	s.obsLatP99.Set(p99Ms)
	if s.obsLatP50 != nil {
		// Two more selections over the window, paid only when a registry
		// exports them.
		s.obsLatP50.Set(float64(lt.Percentile(now, 0.50)) / float64(time.Millisecond))
		s.obsLatP95.Set(float64(lt.Percentile(now, 0.95)) / float64(time.Millisecond))
	}
	for sock := 0; sock < len(s.obsQueueDep); sock++ {
		s.obsQueueDep[sock].Set(float64(s.engine.SocketPending(sock)))
		s.obsDebtInstr[sock].Set(s.engine.BudgetDebt(sock))
	}
	if s.controller != nil {
		max := s.controller.Socket(0).Profile().MaxScore()
		perf := 0.0
		if max > 0 {
			perf = s.controller.Socket(0).Demand().Div(max)
		}
		s.rec.Add("perf0", t, perf)
	}
	if s.eattr.Enabled() {
		s.sampleEnergy(now)
	}
}

// Perfetto counter-track names for the attribution components
// (precomputed: the sample path must not build strings).
const (
	attrTrackQueriesW  = "energy queries (W)"
	attrTrackControlW  = "energy control (W)"
	attrTrackResidualW = "energy residual (W)"
	attrTrackSavedJ    = "energy saved (J)"
)

// sampleEnergy refreshes the attribution metrics at a trace sample:
// per-query energy percentiles, the energy-saved gauge, the cumulative
// partition counters (as deltas — counters only accept increments), the
// lazily registered per-class joule counters, and — when tracing — the
// Perfetto counter track of component power over the sample window.
func (s *Sim) sampleEnergy(now time.Duration) {
	m := s.eattr
	s.obsEPQ50.Set(m.Quantile(0.50).Joules())
	s.obsEPQ95.Set(m.Quantile(0.95).Joules())
	s.obsEPQ99.Set(m.Quantile(0.99).Joules())
	s.obsESaved.Set(m.SavedJ().Joules())
	qj := m.QueriesTotalJ().Joules()
	cj := m.ControlTotalJ().Joules()
	rj := m.ResidualTotalJ().Joules()
	s.obsEAttrQueries.Add(qj - s.prevAttrQueries)
	s.obsEAttrControl.Add(cj - s.prevAttrControl)
	s.obsEAttrResidual.Add(rj - s.prevAttrResidual)
	if s.attrTracer != nil {
		if win := (now - s.lastEnergyAt).Seconds(); win > 0 {
			s.attrTracer.AddCounter(attrTrackQueriesW, now, (qj-s.prevAttrQueries)/win)
			s.attrTracer.AddCounter(attrTrackControlW, now, (cj-s.prevAttrControl)/win)
			s.attrTracer.AddCounter(attrTrackResidualW, now, (rj-s.prevAttrResidual)/win)
			s.attrTracer.AddCounter(attrTrackSavedJ, now, m.SavedJ().Joules())
		}
	}
	s.prevAttrQueries, s.prevAttrControl, s.prevAttrResidual = qj, cj, rj
	s.lastEnergyAt = now
	cls := m.Classes()
	for i := len(s.obsClassJ); i < len(cls); i++ {
		s.obsClassJ = append(s.obsClassJ,
			s.attrReg.Counter(`ecl_energy_class_joules_total{class="`+cls[i].Name+`"}`))
		s.prevClassJ = append(s.prevClassJ, 0)
	}
	for i := range cls {
		j := (cls[i].EnergyJ + cls[i].DroppedJ).Joules()
		s.obsClassJ[i].Add(j - s.prevClassJ[i])
		s.prevClassJ[i] = j
	}
}

// totalEnergy sums true RAPL energy over all sockets and domains.
func (s *Sim) totalEnergy() units.Joule {
	var total units.Joule
	for sock := 0; sock < s.topo.Sockets; sock++ {
		total += s.machine.TrueEnergy(sock, hw.DomainPackage)
		total += s.machine.TrueEnergy(sock, hw.DomainDRAM)
	}
	return total
}

// mostApplied returns the configuration with the most accumulated time.
// Keys are visited in sorted order so ties resolve the same way every
// run (map order would otherwise leak into the Table 1 output).
func (s *Sim) mostApplied() string {
	for i := range s.kernels {
		s.flushConfigTime(&s.kernels[i])
	}
	keys := make([]string, 0, len(s.configTime))
	//ecllint:order-independent keys are collected into a slice and sorted before the ordered scan below
	for k := range s.configTime {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var bestKey string
	var bestT time.Duration
	for _, k := range keys {
		if t := s.configTime[k]; t > bestT {
			bestKey, bestT = k, t
		}
	}
	return s.configName[bestKey].name
}

// Run is a convenience wrapper: build and run in one call.
func Run(opts Options) (*Result, error) {
	s, err := New(opts)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// MeasureCapacity returns the system's saturation throughput (queries/s)
// for a workload under the baseline governor: the anchor for scaling load
// profiles ("50 % load" etc., as the paper's spike profile needs a peak
// ~25 % above capacity).
func MeasureCapacity(wl workload.Workload, seed int64) (float64, error) {
	const warm = 2 * time.Second
	const window = 3 * time.Second
	s, err := New(Options{
		Workload: wl,
		Load:     loadprofile.Constant{Qps: 1e9, Len: warm + window},
		Governor: GovernorBaseline,
		Seed:     seed,
	})
	if err != nil {
		return 0, err
	}
	s.baseline.Start()
	// Saturating load without queue explosion: offer load in controlled
	// bursts keyed to backlog.
	q := s.opts.Quantum
	var doneAtWarm int64
	for t := time.Duration(0); t < warm+window; t += q {
		if s.engine.InFlight() < 50000 {
			burst := units.HertzOf(2000.0 / q.Seconds()) // refill quickly
			if err := s.engine.OfferLoad(burst, q, s.clock.Now()); err != nil {
				return 0, err
			}
		}
		s.step(q)
		if t < warm {
			doneAtWarm = s.engine.CompletedQueries()
		}
	}
	completed := s.engine.CompletedQueries() - doneAtWarm
	return float64(completed) / window.Seconds(), nil
}

// EvaluateProfile is a helper for profile figures: generate and evaluate a
// profile for a workload from the calibrated models.
func EvaluateProfile(wl workload.Workload, gp energy.GeneratorParams) (*energy.Profile, error) {
	topo := hw.HaswellEP()
	cfgs, err := energy.Generate(topo, gp)
	if err != nil {
		return nil, err
	}
	p := energy.NewProfile(topo, cfgs)
	if err := energy.EvaluateModel(p, topo, hw.DefaultPowerParams(), wl.Characteristics(), 0); err != nil {
		return nil, err
	}
	return p, nil
}
