package hw

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"ecldb/internal/obs"
	"ecldb/internal/obs/energyattr"
	"ecldb/internal/obs/trace"
	"ecldb/internal/units"
)

// Domain selects a RAPL measurement domain of one socket.
type Domain int

const (
	// DomainPackage covers the cores, caches, and uncore of a socket.
	DomainPackage Domain = iota
	// DomainDRAM covers the memory attached to a socket's controllers.
	DomainDRAM
)

// ApplyLatency is the time between requesting a configuration change and
// the hardware operating in the new state. P-state and C-state transitions
// cost only microseconds on the paper's system (Section 5.1, Figure 12).
const ApplyLatency = 10 * time.Microsecond

// raplUpdatePeriod is the interval at which the RAPL energy counters
// refresh. Reads between refreshes observe the last refreshed value, and
// the refresh instant jitters, which is what makes short measurement
// windows inaccurate (the effect behind Figure 12's 100 ms trade-off).
const raplUpdatePeriod = time.Millisecond

// raplUnitNJ is the energy resolution of a counter read in nanojoules:
// the Haswell-EP energy-status unit of 61 µJ.
const raplUnitNJ = 61000

// raplJitterFrac is the maximum refresh-instant jitter as a fraction of
// the update period.
const raplJitterFrac = 0.35

// Machine is the simulated server. It holds the requested per-socket
// configurations, derives the effective hardware state (firmware may
// override clocks, configuration changes take ApplyLatency to settle),
// integrates power into RAPL counters and the PSU meter, maintains
// instructions-retired counters, and enforces the per-socket sustained
// power limit (TDP) with a short turbo budget.
//
// Every accumulator a quiescent stretch batches is an integer, as RAPL
// and the instruction counters are on real hardware: energies in whole
// nanojoules (1 W × 1 ns = 1 nJ; an int64 overflows after 9.2e9 J),
// instructions in whole instructions, residency as a Duration. Each
// per-quantum term is rounded once, so StepStretch adds exactly n times
// what one Step adds, and the two paths agree bit for bit (DESIGN.md §16).
//
// Machine is driven by explicit Step calls from the simulation loop and is
// not safe for concurrent use.
type Machine struct {
	topo Topology
	pp   PowerParams
	fw   *firmware
	seed uint64

	now       time.Duration
	requested []Configuration
	pending   []pendingApply

	pkg   []raplCounter
	dram  []raplCounter
	instr []int64 // instructions retired, per global hardware thread

	psuNJ       int64
	lastPkgW    []units.Watt
	lastDramW   []units.Watt
	lastPSUW    units.Watt
	turboBudget []int64 // per socket, nanojoules left
	turboMaxNJ  int64
	throttle    []float64

	// C-state residency accounting.
	active    []time.Duration // per socket: at least one core active
	idle      []time.Duration // per socket: all cores gated, uncore running
	deepSleep time.Duration   // machine-wide: all uncores halted

	// Change-epoch plumbing (see StateEpoch): epoch counts discrete
	// state transitions per socket; effCache memoizes the effective
	// configuration keyed by the composite epoch.
	epoch    []uint64
	effCache []Configuration
	effEpoch []uint64
	effValid []bool

	// StepStretch scratch: per-socket powers computed during the guard
	// phase, committed only when every guard passes.
	stretchPkgW  []units.Watt
	stretchDramW []units.Watt

	// Observability (nil when disabled; see internal/obs).
	obsLog     *obs.Log
	obsApplies []*obs.Counter // per socket
	// tracer records settle windows as control spans (nil when query
	// tracing is disabled; see internal/obs/trace).
	tracer *trace.Tracer
	// eattr mirrors every integration term into the energy-attribution
	// meter (nil when attribution is disabled; see
	// internal/obs/energyattr). The mirror adds exactly the nanojoules
	// the RAPL counters add, which is what makes the meter's integrated
	// totals equal to TrueEnergy.
	eattr *energyattr.Meter
}

// pendingApply is a socket's requested configuration on its way to the
// hardware. cfg is a buffer Apply copies into; the commit in Step swaps
// it with the socket's requested buffer, so applying allocates nothing.
type pendingApply struct {
	cfg   Configuration
	at    time.Duration
	valid bool
}

// NewMachine constructs a machine with all sockets idle. The seed
// determines the deterministic RAPL refresh jitter.
func NewMachine(topo Topology, pp PowerParams, seed int64) *Machine {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		topo:        topo,
		pp:          pp,
		fw:          newFirmware(topo),
		seed:        uint64(seed)*0x9e3779b97f4a7c15 + 0x1234567,
		requested:   make([]Configuration, topo.Sockets),
		pending:     make([]pendingApply, topo.Sockets),
		instr:       make([]int64, topo.TotalThreads()),
		pkg:         make([]raplCounter, topo.Sockets),
		dram:        make([]raplCounter, topo.Sockets),
		lastPkgW:    make([]units.Watt, topo.Sockets),
		lastDramW:   make([]units.Watt, topo.Sockets),
		turboBudget: make([]int64, topo.Sockets),
		turboMaxNJ:  pp.TurboBudgetJ.Nanojoules(),
		throttle:    make([]float64, topo.Sockets),
		epoch:       make([]uint64, topo.Sockets),
		effCache:    make([]Configuration, topo.Sockets),
		effEpoch:    make([]uint64, topo.Sockets),
		effValid:    make([]bool, topo.Sockets),
	}
	m.stretchPkgW = make([]units.Watt, topo.Sockets)
	m.stretchDramW = make([]units.Watt, topo.Sockets)
	m.active = make([]time.Duration, topo.Sockets)
	m.idle = make([]time.Duration, topo.Sockets)
	for s := 0; s < topo.Sockets; s++ {
		m.requested[s] = NewConfiguration(topo)
		m.pending[s].cfg = NewConfiguration(topo)
		m.turboBudget[s] = m.turboMaxNJ
		m.throttle[s] = 1
		m.effCache[s] = NewConfiguration(topo)
	}
	return m
}

// Topology returns the machine's processor layout.
func (m *Machine) Topology() Topology { return m.topo }

// Params returns the machine's power calibration.
func (m *Machine) Params() PowerParams { return m.pp }

// Now returns the machine's local virtual time (advanced by Step).
func (m *Machine) Now() time.Duration { return m.now }

// SetEPB sets the energy-performance bias of all processors.
func (m *Machine) SetEPB(e EPB) {
	if m.fw.epb != e {
		m.fw.epb = e
		m.bumpAll()
	}
}

// EPB returns the current energy-performance bias.
func (m *Machine) EPB() EPB { return m.fw.epb }

// SetAutoUFS enables or disables the CPU's automatic uncore frequency
// scaling. With it disabled the requested uncore clock is pinned.
func (m *Machine) SetAutoUFS(on bool) {
	if m.fw.autoUFS != on {
		m.fw.autoUFS = on
		m.bumpAll()
	}
}

// bumpAll advances every socket's epoch; used for machine-wide firmware
// mode changes that can alter any socket's effective configuration.
func (m *Machine) bumpAll() {
	for s := range m.epoch {
		m.epoch[s]++
	}
}

// SetObserver attaches the observability sinks. A nil observer (the
// default) keeps every instrumentation site a no-op.
func (m *Machine) SetObserver(ob *obs.Observer) {
	m.obsLog = ob.EventLog()
	m.obsApplies = nil
	if reg := ob.Reg(); reg != nil {
		for s := 0; s < m.topo.Sockets; s++ {
			m.obsApplies = append(m.obsApplies,
				reg.Counter(`hw_config_applies_total{socket="`+strconv.Itoa(s)+`"}`))
		}
	}
	m.tracer = ob.Tracer()
	m.eattr = ob.EnergyMeter()
}

// Apply requests a new configuration for one socket. The change becomes
// effective ApplyLatency after the call; a later Apply on the same socket
// supersedes a pending one.
func (m *Machine) Apply(socket int, cfg Configuration) error {
	if socket < 0 || socket >= m.topo.Sockets {
		return fmt.Errorf("hw: socket %d out of range", socket)
	}
	if err := cfg.Validate(m.topo); err != nil {
		return err
	}
	p := &m.pending[socket]
	copy(p.cfg.Threads, cfg.Threads)
	copy(p.cfg.CoreMHz, cfg.CoreMHz)
	p.cfg.UncoreMHz = cfg.UncoreMHz
	p.at, p.valid = m.now+ApplyLatency, true
	m.fw.noteRequest(socket, cfg, m.now)
	m.epoch[socket]++
	if m.eattr.Enabled() {
		// A superseding Apply drops the pending configuration, so its
		// unelapsed settle window must go too before this one registers.
		m.eattr.CancelFrom(socket, energyattr.KindSettle, m.now)
		m.eattr.AddWindow(socket, energyattr.KindSettle, m.now, m.now+ApplyLatency)
		m.eattr.NoteReconfig(socket, cfg.Key(m.topo.ThreadsPerCore), m.now)
	}
	if m.tracer.Enabled() {
		// The settle window is the hardware-level wake/transition latency
		// an elasticity decision costs; on the shared timeline it lines
		// up against the query spans paying for it.
		m.tracer.AddCtl(trace.CtlSpan{
			Kind:   trace.CtlSettle,
			Socket: socket,
			Start:  m.now,
			End:    m.now + ApplyLatency,
		})
	}
	if m.obsLog.Enabled() {
		m.obsLog.Emit(obs.Event{
			At:     units.Virtual(m.now),
			Type:   obs.EvConfigApply,
			Socket: socket,
			A:      ApplyLatency.Seconds(),
			B:      float64(cfg.ActiveThreads()),
			S:      cfg.Key(m.topo.ThreadsPerCore),
		})
	}
	if socket < len(m.obsApplies) {
		m.obsApplies[socket].Inc()
	}
	return nil
}

// Requested returns the most recently requested configuration of a socket
// (whether or not it has settled yet).
func (m *Machine) Requested(socket int) Configuration {
	if p := m.pending[socket]; p.valid {
		return p.cfg.Clone()
	}
	return m.requested[socket].Clone()
}

// settled returns the configuration the hardware is operating in right
// now, before firmware overrides.
func (m *Machine) settled(socket int) Configuration {
	if p := m.pending[socket]; p.valid && m.now >= p.at {
		return p.cfg
	}
	return m.requested[socket]
}

// Effective returns the configuration the socket hardware is actually
// running: the settled request with firmware overrides (energy-efficient
// turbo delay, automatic uncore scaling) applied. The result is a fresh
// clone computed from first principles on every call — it deliberately
// bypasses the epoch cache so it can serve as the reference the cached
// view is validated against.
func (m *Machine) Effective(socket int) Configuration {
	base := m.settled(socket).Clone()
	for core := range base.CoreMHz {
		base.CoreMHz[core] = m.fw.coreClock(socket, core, base.CoreMHz[core], m.now)
	}
	base.UncoreMHz = clampUncore(m.fw.uncoreClock(socket, base.UncoreMHz))
	return base
}

// StateEpoch returns a value that changes whenever the socket's effective
// configuration, throttle factor, or firmware-visible state can change.
// The composite folds in three sources:
//
//   - the discrete per-socket epoch, bumped on Apply, pending-apply
//     commit, throttle-factor change, auto-UFS clock movement, and
//     machine-wide EPB / auto-UFS mode switches;
//   - a "pending due" bit: a requested configuration whose settle instant
//     has passed but has not yet been committed by Step already shows
//     through settled()/Effective();
//   - the count of cores whose energy-efficient-turbo delay has elapsed
//     (only meaningful outside the performance bias, where the EET delay
//     is bypassed), which advances with time rather than with any call.
//
// Two equal StateEpoch values therefore guarantee identical Effective
// output and throttle factor, which is what callers key caches on.
func (m *Machine) StateEpoch(socket int) uint64 {
	e := m.epoch[socket] << 16
	if p := m.pending[socket]; p.valid && m.now >= p.at {
		e |= 1
	}
	if m.fw.epb != EPBPerformance {
		e |= uint64(m.fw.eetEngaged(socket, m.now)) << 1
	}
	return e
}

// EffectiveView returns the effective configuration as a cached read-only
// view. The returned pointer stays valid until the next machine mutation
// and MUST NOT be modified or retained across Step/Apply calls; callers
// needing ownership use Effective. The cache refreshes when StateEpoch
// moves, so the view is always equal to Effective — a property the hw
// tests assert across firmware transitions.
func (m *Machine) EffectiveView(socket int) *Configuration {
	return m.effectiveCached(socket)
}

// effectiveCached refreshes and returns the socket's effective
// configuration cache. It performs no allocation once constructed.
//
//ecllint:hotpath consulted by every capacity computation
func (m *Machine) effectiveCached(socket int) *Configuration {
	ep := m.StateEpoch(socket)
	c := &m.effCache[socket]
	if m.effValid[socket] && m.effEpoch[socket] == ep {
		return c
	}
	src := m.settled(socket)
	copy(c.Threads, src.Threads)
	copy(c.CoreMHz, src.CoreMHz)
	for core := range c.CoreMHz {
		c.CoreMHz[core] = m.fw.coreClock(socket, core, c.CoreMHz[core], m.now)
	}
	c.UncoreMHz = clampUncore(m.fw.uncoreClock(socket, src.UncoreMHz))
	m.effValid[socket], m.effEpoch[socket] = true, ep
	return c
}

// UncoreHalted reports whether the uncore clocks of the machine are
// halted. A socket's uncore can halt only when every socket of the machine
// has no active core (Section 2.2, inter-socket dependency), because any
// active core may access remote memory.
func (m *Machine) UncoreHalted() bool {
	for s := 0; s < m.topo.Sockets; s++ {
		if m.settled(s).ActiveThreads() > 0 {
			return false
		}
	}
	return true
}

// ThrottleFactor returns the performance scale factor (0..1] the package
// power limiter currently imposes on a socket. 1 means no throttling.
func (m *Machine) ThrottleFactor(socket int) float64 { return m.throttle[socket] }

// BandwidthCap returns the socket's current DRAM bandwidth ceiling in
// GB/s, based on the effective uncore clock.
func (m *Machine) BandwidthCap(socket int) float64 {
	return BandwidthCapGBs(m.Effective(socket).UncoreMHz)
}

// MemLatency returns the socket's current local memory latency in
// nanoseconds, based on the effective uncore clock.
func (m *Machine) MemLatency(socket int) float64 {
	return MemLatencyNs(m.Effective(socket).UncoreMHz)
}

// Step advances the machine by dt, integrating power and counters under
// the given per-socket activity (which is assumed uniform across the
// step). Pending configuration changes settling mid-step split the
// integration so energy accounting stays exact.
//
//ecllint:hotpath runs every simulation quantum
func (m *Machine) Step(dt time.Duration, acts []SocketActivity) {
	if dt <= 0 {
		return
	}
	if len(acts) != m.topo.Sockets {
		//ecllint:allow hotpath cold panic path guarding a wiring bug, never taken in steady state
		panic(fmt.Sprintf("hw: Step got %d activities for %d sockets", len(acts), m.topo.Sockets))
	}
	end := m.now + dt
	for m.now < end {
		// Commit any pending applies that are due.
		segEnd := end
		for s := range m.pending {
			p := &m.pending[s]
			if !p.valid {
				continue
			}
			if p.at <= m.now {
				m.requested[s], p.cfg = p.cfg, m.requested[s]
				p.valid = false
				m.epoch[s]++
			} else if p.at < segEnd {
				segEnd = p.at
			}
		}
		m.integrate(segEnd-m.now, dt, acts)
		m.now = segEnd
	}
	// Let the automatic uncore scaling observe this step's activity. The
	// epoch bumps only when the integer clock moves: the fractional UFS
	// state is invisible until it crosses a MHz boundary.
	for s := 0; s < m.topo.Sockets; s++ {
		before := int(m.fw.ufsMHz[s])
		m.fw.observe(s, avgBusy(acts[s].Busy, m.topo.ThreadsPerSocket()), dt)
		if m.fw.autoUFS && int(m.fw.ufsMHz[s]) != before {
			m.epoch[s]++
		}
	}
}

// StepStretch advances the machine by n quanta of length q under activity
// that is constant across the stretch (acts is the per-quantum activity,
// reused every quantum), integrating in closed form: every accumulator
// gains n times the integer term one quantum adds, and the RAPL snapshot
// is advanced by direct boundary-index computation.
//
// The closed form is only valid when the whole stretch is provably
// constant-state, so StepStretch is all-or-nothing: it returns n after
// committing the full stretch, or 0 — with the machine untouched — when
// any guard fails, in which case the caller falls back to per-quantum
// Step calls. The guards mirror, term by term, everything Step could do
// besides integrating constant power:
//
//   - no pending apply may commit or become due inside the stretch
//     (p.at < end bails; a settle exactly at the stretch end is fine —
//     per-quantum Step would not have committed it either);
//   - every throttle factor is 1 and stays 1: package power at or below
//     TDP, which also makes the turbo-budget recharge linear and
//     therefore closed-form;
//   - outside the performance bias, the energy-efficient-turbo engaged
//     count is identical at the first and last quantum start (the count
//     is monotone between Applies, so equal endpoints pin every
//     intermediate quantum);
//   - automatic UFS sits at its decay fixed point under this activity:
//     ufsNext must reproduce the current fractional state bit-for-bit,
//     otherwise per-quantum observe calls would drift it.
//
// Under these guards StateEpoch cannot move during the stretch, the
// effective configurations and power draw are constant, and firmware
// observe is a no-op. Every accumulator is an integer that one quantum
// advances by a rounded term, so n times that term is exactly what n Step
// calls add: StepStretch equals them bit for bit (DESIGN.md §16).
//
//ecllint:hotpath runs once per fast-forwarded stretch
func (m *Machine) StepStretch(n int, q time.Duration, acts []SocketActivity) int {
	if n < 2 || q <= 0 {
		return 0
	}
	if len(acts) != m.topo.Sockets {
		//ecllint:allow hotpath cold panic path guarding a wiring bug, never taken in steady state
		panic(fmt.Sprintf("hw: StepStretch got %d activities for %d sockets", len(acts), m.topo.Sockets))
	}
	dt := time.Duration(n) * q
	end := m.now + dt
	for s := range m.pending {
		if p := m.pending[s]; p.valid && p.at < end {
			return 0
		}
	}
	for s := range m.throttle {
		if m.throttle[s] != 1 {
			return 0
		}
	}
	if m.fw.epb != EPBPerformance {
		lastTop := end - q
		for s := 0; s < m.topo.Sockets; s++ {
			if m.fw.eetEngaged(s, m.now) != m.fw.eetEngaged(s, lastTop) {
				return 0
			}
		}
	}
	if m.fw.autoUFS {
		for s := 0; s < m.topo.Sockets; s++ {
			busy := avgBusy(acts[s].Busy, m.topo.ThreadsPerSocket())
			if ufsNext(m.fw.ufsMHz[s], busy, q) != m.fw.ufsMHz[s] {
				return 0
			}
		}
	}
	halted := m.UncoreHalted()
	tdp := m.pp.TDPWatts
	for s := 0; s < m.topo.Sockets; s++ {
		eff := m.effectiveCached(s)
		bwCap := BandwidthCapGBs(eff.UncoreMHz)
		pkgW, dramW := m.pp.SocketPowerW(m.topo, s, *eff, acts[s], halted, bwCap)
		if tdp > 0 && pkgW > tdp {
			return 0
		}
		m.stretchPkgW[s], m.stretchDramW[s] = pkgW, dramW
	}

	// All guards passed: commit the whole stretch.
	if halted {
		m.deepSleep += dt
	}
	var totalW units.Watt
	for s := 0; s < m.topo.Sockets; s++ {
		eff := m.effectiveCached(s)
		if eff.ActiveThreads() > 0 {
			m.active[s] += dt
		} else if !halted {
			m.idle[s] += dt
		}
		pkgW, dramW := m.stretchPkgW[s], m.stretchDramW[s]
		if tdp > 0 {
			// pkgW <= tdp on every quantum, so every recharge term is
			// non-negative and n clamped adds equal one clamped add of
			// n terms.
			m.recharge(s, int64(n)*rechargeNJ(tdp, pkgW, q))
		}
		m.lastPkgW[s], m.lastDramW[s] = pkgW, dramW
		pkgNJ := m.pkg[s].integrateStretch(m.now, q, n, pkgW, m.boundarySalt(s, DomainPackage))
		dramNJ := m.dram[s].integrateStretch(m.now, q, n, dramW, m.boundarySalt(s, DomainDRAM))
		m.eattr.Accrue(s, pkgNJ, dramNJ)
		totalW += pkgW + dramW
		for lt, instr := range acts[s].Instr {
			m.instr[m.topo.GlobalThread(s, lt)] += int64(n) * retired(instr)
		}
	}
	m.lastPSUW = m.pp.PSUPowerW(totalW)
	m.psuNJ += int64(n) * m.lastPSUW.NanojoulesOver(q)
	m.now = end
	return n
}

// integrate accounts one constant-state segment of length seg; fullStep is
// the Step length used to prorate the per-step activity totals.
func (m *Machine) integrate(seg, fullStep time.Duration, acts []SocketActivity) {
	if seg <= 0 {
		return
	}
	frac := float64(seg) / float64(fullStep)
	halted := m.UncoreHalted()
	if halted {
		m.deepSleep += seg
	}
	var totalW units.Watt
	for s := 0; s < m.topo.Sockets; s++ {
		eff := m.effectiveCached(s)
		if eff.ActiveThreads() > 0 {
			m.active[s] += seg
		} else if !halted {
			m.idle[s] += seg
		}
		bwCap := BandwidthCapGBs(eff.UncoreMHz)
		pkgW, dramW := m.pp.SocketPowerW(m.topo, s, *eff, acts[s], halted, bwCap)
		oldThrottle := m.throttle[s]
		pkgW = m.limitPower(s, pkgW, seg)
		if m.throttle[s] != oldThrottle {
			m.epoch[s]++
		}
		m.lastPkgW[s], m.lastDramW[s] = pkgW, dramW
		pkgNJ := m.pkg[s].integrate(m.now, seg, pkgW, m.boundarySalt(s, DomainPackage))
		dramNJ := m.dram[s].integrate(m.now, seg, dramW, m.boundarySalt(s, DomainDRAM))
		m.eattr.Accrue(s, pkgNJ, dramNJ)
		totalW += pkgW + dramW
		for lt, instr := range acts[s].Instr {
			m.instr[m.topo.GlobalThread(s, lt)] += retired(instr * frac)
		}
	}
	m.lastPSUW = m.pp.PSUPowerW(totalW)
	m.psuNJ += m.lastPSUW.NanojoulesOver(seg)
}

// retired rounds a quantum's fractional instruction count (never
// negative) to the whole instructions the counter adds.
func retired(instr float64) int64 { return int64(instr + 0.5) }

// rechargeNJ is the turbo budget one segment of length seg at pkgW <= tdp
// earns back: half the headroom below TDP.
func rechargeNJ(tdp, pkgW units.Watt, seg time.Duration) int64 {
	return (tdp - pkgW).Scale(0.5).NanojoulesOver(seg)
}

// recharge adds earned turbo budget to a socket, clamped at the maximum.
func (m *Machine) recharge(socket int, nj int64) {
	m.turboBudget[socket] = min(m.turboMaxNJ, m.turboBudget[socket]+nj)
}

// limitPower applies the per-socket sustained power limit: power above TDP
// drains the turbo budget; once drained, the package clamps to TDP and the
// throttle factor reflects the implied clock reduction.
func (m *Machine) limitPower(socket int, pkgW units.Watt, seg time.Duration) units.Watt {
	tdp := m.pp.TDPWatts
	if tdp <= 0 {
		m.throttle[socket] = 1
		return pkgW
	}
	if pkgW <= tdp {
		m.recharge(socket, rechargeNJ(tdp, pkgW, seg))
		m.throttle[socket] = 1
		return pkgW
	}
	m.turboBudget[socket] -= (pkgW - tdp).NanojoulesOver(seg)
	if m.turboBudget[socket] > 0 {
		m.throttle[socket] = 1
		return pkgW
	}
	m.turboBudget[socket] = 0
	floor := m.pp.pkgFloor(socket)
	dynRaw := pkgW - floor
	dynCap := tdp - floor
	if dynRaw > 0 && dynCap > 0 {
		// Performance scales roughly with the clock, and dynamic power
		// with its square, so the throttled performance factor is the
		// square root of the power reduction.
		m.throttle[socket] = math.Sqrt(dynCap.Div(dynRaw))
	} else {
		m.throttle[socket] = 1
	}
	return tdp
}

// ReadEnergy reads a RAPL energy counter with hardware read semantics:
// the value refreshes about once per millisecond with a jittered refresh
// instant, in whole counter units. Differencing two reads over short
// windows is therefore noticeably inaccurate, matching the
// meta-calibration findings reproduced in Figure 12.
func (m *Machine) ReadEnergy(socket int, d Domain) units.Joule {
	snap := m.counter(socket, d).snapNJ
	return units.NanojoulesOf(snap - snap%raplUnitNJ)
}

// TrueEnergy returns the exact integrated energy of a domain. Experiments
// and traces use it as the "external power meter" ground truth; the ECL
// itself only uses ReadEnergy.
func (m *Machine) TrueEnergy(socket int, d Domain) units.Joule {
	return units.NanojoulesOf(m.counter(socket, d).trueNJ)
}

func (m *Machine) counter(socket int, d Domain) *raplCounter {
	switch d {
	case DomainPackage:
		return &m.pkg[socket]
	case DomainDRAM:
		return &m.dram[socket]
	}
	panic(fmt.Sprintf("hw: unknown domain %d", d))
}

// PSUEnergy returns the energy drawn from the wall so far.
func (m *Machine) PSUEnergy() units.Joule { return units.NanojoulesOf(m.psuNJ) }

// LastPower returns the true power of the most recent step: per-socket
// package and DRAM watts, and the PSU-level total. It allocates two
// slices per call; the per-sample trace path uses LastPowerInto instead.
func (m *Machine) LastPower() (pkgW, dramW []units.Watt, psuW units.Watt) {
	return append([]units.Watt(nil), m.lastPkgW...), append([]units.Watt(nil), m.lastDramW...), m.lastPSUW
}

// LastPowerInto copies the true power of the most recent step into the
// caller's slices — each must hold one element per socket — and returns
// the PSU-level total. Allocation-free counterpart of LastPower for the
// per-sample hot path.
//
//ecllint:hotpath runs on every trace sample
func (m *Machine) LastPowerInto(pkgW, dramW []units.Watt) units.Watt {
	if len(pkgW) != m.topo.Sockets || len(dramW) != m.topo.Sockets {
		//ecllint:allow hotpath cold panic path guarding a wiring bug, never taken in steady state
		panic(fmt.Sprintf("hw: LastPowerInto got %d/%d slots for %d sockets", len(pkgW), len(dramW), m.topo.Sockets))
	}
	copy(pkgW, m.lastPkgW)
	copy(dramW, m.lastDramW)
	return m.lastPSUW
}

// Residency returns the C-state residency of a socket: seconds with at
// least one active core, seconds fully core-gated with the uncore still
// running (the inter-socket dependency), and the machine-wide deepest
// sleep (all uncores halted).
func (m *Machine) Residency(socket int) (activeSec, idleSec, deepSleepSec float64) {
	return m.active[socket].Seconds(), m.idle[socket].Seconds(), m.deepSleep.Seconds()
}

// ReadInstructions returns the instructions-retired counter of a global
// hardware thread. These counters are exact integers on real hardware and
// here.
func (m *Machine) ReadInstructions(globalThread int) float64 {
	return float64(m.instr[globalThread])
}

// SocketInstructions sums the instructions-retired counters of one socket.
func (m *Machine) SocketInstructions(socket int) float64 {
	var sum int64
	base := socket * m.topo.ThreadsPerSocket()
	for i := 0; i < m.topo.ThreadsPerSocket(); i++ {
		sum += m.instr[base+i]
	}
	return float64(sum)
}

func (m *Machine) boundarySalt(socket int, d Domain) uint64 {
	return m.seed ^ (uint64(socket)<<32 | uint64(d)<<16 | 0xabcd)
}

func avgBusy(busy []float64, n int) float64 {
	if n == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range busy {
		sum += b
	}
	return sum / float64(n)
}

func clampUncore(mhz int) int {
	if mhz < MinUncoreMHz {
		return MinUncoreMHz
	}
	if mhz > MaxUncoreMHz {
		return MaxUncoreMHz
	}
	return mhz
}

// raplCounter accumulates energy in whole nanojoules and exposes
// refresh-boundary snapshots for reads.
type raplCounter struct {
	trueNJ  int64
	snapNJ  int64
	nextIdx int64 // index of the next refresh boundary to take
}

// integrate adds powerW over a window starting at t0 with length seg,
// taking refresh snapshots at every jittered boundary inside the window,
// and returns the nanojoules it added.
func (r *raplCounter) integrate(t0, seg time.Duration, powerW units.Watt, salt uint64) int64 {
	end := t0 + seg
	for {
		b := boundaryTime(r.nextIdx, salt)
		if b > end {
			break
		}
		r.snapNJ = r.trueNJ
		if b > t0 {
			r.snapNJ += powerW.NanojoulesOver(b - t0)
		}
		r.nextIdx++
	}
	e := powerW.NanojoulesOver(seg)
	r.trueNJ += e
	return e
}

// integrateStretch adds powerW over n quanta of length q starting at t0,
// exactly as n integrate calls would, and returns the nanojoules it
// added: n times the per-quantum term. Only the last refresh boundary
// inside the window leaves its snapshot, so the counter jumps straight
// to it. A boundary b in quantum k, t0+k·q < b <= t0+(k+1)·q, is the
// value the walk takes there: the counter after k quanta plus the
// rounded partial term P·(b − t0 − k·q).
func (r *raplCounter) integrateStretch(t0, q time.Duration, n int, powerW units.Watt, salt uint64) int64 {
	eq := powerW.NanojoulesOver(q)
	last := r.nextIdx - 1
	if k := lastBoundaryAtOrBefore(t0+time.Duration(n)*q, salt); k > last {
		last = k
	}
	if last >= r.nextIdx {
		r.snapNJ = r.trueNJ
		if b := boundaryTime(last, salt); b > t0 {
			k := (b - t0 - 1) / q
			r.snapNJ += int64(k)*eq + powerW.NanojoulesOver(b-t0-k*q)
		}
		r.nextIdx = last + 1
	}
	e := int64(n) * eq
	r.trueNJ += e
	return e
}

// lastBoundaryAtOrBefore returns the largest boundary index k with
// boundaryTime(k, salt) <= end, computed directly from the refresh
// period instead of walking indices. Starting two periods past end/period
// guarantees an over-estimate (jitter magnitude is below one period), and
// strict monotonicity of the boundary sequence — consecutive instants are
// at least (1−2·raplJitterFrac) of a period apart — makes the short
// downward walk land on the unique answer.
func lastBoundaryAtOrBefore(end time.Duration, salt uint64) int64 {
	k := int64(end/raplUpdatePeriod) + 2
	for k >= 0 && boundaryTime(k, salt) > end {
		k--
	}
	return k
}

// boundaryTime returns the k-th jittered refresh instant.
func boundaryTime(k int64, salt uint64) time.Duration {
	j := splitmix(uint64(k) ^ salt)
	// Map to [-raplJitterFrac, +raplJitterFrac) of the period.
	frac := (float64(j>>11)/float64(1<<53))*2*raplJitterFrac - raplJitterFrac
	return time.Duration(k)*raplUpdatePeriod + time.Duration(frac*float64(raplUpdatePeriod))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
