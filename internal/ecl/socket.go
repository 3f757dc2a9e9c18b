package ecl

import (
	"strconv"
	"time"

	"ecldb/internal/energy"
	"ecldb/internal/hw"
	"ecldb/internal/obs"
	"ecldb/internal/obs/energyattr"
	qtrace "ecldb/internal/obs/trace"
	"ecldb/internal/units"
	"ecldb/internal/vtime"
)

// MaintenanceMode selects the energy-profile maintenance strategy
// (Section 5.1, evaluated in the paper's Figures 15/16).
type MaintenanceMode int

const (
	// MaintainNone disables profile maintenance ("ECL static"): the
	// profile is never updated after its initial state.
	MaintainNone MaintenanceMode = iota
	// MaintainOnline updates only the configurations the loop actually
	// applies ("ECL online"). Zero overhead, but stale entries linger.
	MaintainOnline
	// MaintainMultiplexed additionally re-evaluates stale entries in
	// dedicated measurement windows when drift is detected
	// ("ECL multiplexed"; includes online adaptation).
	MaintainMultiplexed
)

// String names the mode.
func (m MaintenanceMode) String() string {
	switch m {
	case MaintainNone:
		return "static"
	case MaintainOnline:
		return "online"
	case MaintainMultiplexed:
		return "multiplexed"
	}
	return "unknown"
}

const (
	// measureWindow is the minimum window for a trustworthy RAPL
	// measurement (meta-calibration finds 100 ms, Figure 12).
	measureWindow = 100 * time.Millisecond
	// adaptShare bounds the fraction of an interval spent on multiplexed
	// re-evaluation windows.
	adaptShare = 0.4
	// driftThreshold is the relative efficiency drift that, sustained
	// over consecutive online updates, triggers multiplexed re-adaptation
	// of the whole profile.
	driftThreshold = 0.15
)

// segment is one planned stretch of an interval: a configuration to apply
// and, optionally, a profile entry to update from the stretch's
// measurement.
type segment struct {
	cfg     hw.Configuration
	measure *energy.Entry
	adapt   bool // multiplexed re-evaluation window (re-queued on a failed gate)
	// aggregate marks race-to-idle run slices: individually too short
	// for a trustworthy RAPL measurement, they accumulate into one
	// online measurement per interval (the paper's online adaptation
	// keeps working while the loop races to idle).
	aggregate bool
	// span classifies the segment for query tracing (CtlNone = not
	// recorded): discovery windows and race-to-idle sleeps share the
	// timeline with the query spans they explain.
	span qtrace.CtlKind
	dur  time.Duration
}

// RuntimeStats is the DBMS-side feedback the socket-level ECL consumes:
// demand-relative utilization plus cumulative busy/active thread-seconds
// (for gating profile measurements on full-load windows).
type RuntimeStats interface {
	Utilization(socket int) float64
	BusySeconds(socket int) (busy, active float64)
}

// SocketECL is the per-processor control loop (Section 5.1).
type SocketECL struct {
	socket  int
	opts    Options
	machine *hw.Machine
	clock   *vtime.Clock
	profile *energy.Profile
	stats   RuntimeStats
	idleCfg hw.Configuration

	// demand is the current performance-level demand in instructions/s.
	demand units.Hertz
	// lastCapacity is the performance level offered during the previous
	// interval (duty-weighted across segments).
	lastCapacity units.Hertz

	// The interval's plan, reused across ticks: plan[cur] is the running
	// segment (none when cur == len(plan)), begun at segStart; the next
	// boundary is segStart + plan[cur].dur. planAt is the instant the plan
	// was made, the Controller's same-instant tie-break.
	plan   []segment
	cur    int
	planAt time.Duration

	// Measurement state of the running segment.
	segStart  time.Duration
	segPkgJ   units.Joule
	segDramJ  units.Joule
	segInstr  float64
	segBusy   float64
	segActive float64

	// Interval-level utilization bookkeeping.
	tickBusy   float64
	tickActive float64

	// Aggregated online measurement across RTI run slices.
	aggEntry           *energy.Entry
	aggE               units.Joule
	aggI, aggSec       float64
	aggBusy, aggActive float64

	// Multiplexed adaptation queue and drift tracking.
	adaptQueue    []*energy.Entry
	adaptAttempts map[*energy.Entry]int
	driftHits     int
	// driftScore/driftPower accumulate measured-vs-stored ratios of
	// drifting updates; on a confirmed workload change the stale
	// profile is rescaled by their averages.
	driftScore, driftPower []float64

	// Telemetry and safety state.
	lastRTIDuty   float64
	lastRTICycles int
	rtiActive     bool
	adaptBusy     bool
	lastUtil      float64
	violTicks     int
	ticks         int64

	// Observability (nil when disabled; see internal/obs).
	obsLog      *obs.Log
	lastMode    string
	obsTicks    *obs.Counter
	obsSafety   *obs.Counter
	obsRTI      *obs.Counter
	obsMeasures *obs.Counter
	obsRescales *obs.Counter
	obsDemand   *obs.Gauge
	obsQueue    *obs.Gauge

	// Query tracing (nil when disabled).
	tracer *qtrace.Tracer

	// Energy attribution (nil when disabled): planned discovery and
	// race-to-idle windows are registered ahead of execution so the meter
	// can charge their joules to the control class (settle windows come
	// from hw.Machine.Apply directly).
	eattr *energyattr.Meter
}

// NewSocketECL builds a socket-level loop over an existing profile. The
// profile may be entirely unevaluated; the loop then starts conservatively
// at the full configuration and (in multiplexed mode) measures its way to
// a usable profile. stats may be nil, in which case measurement gating is
// disabled (useful for synthetic full-load tests). Of opts, the loop
// reads the interval, latency limit, maintenance mode, race-to-idle
// switch and power cap; DesyncRTI is the Controller's. A loop driven
// without a Controller must be its clock's agenda (clock.SetAgenda) for
// its plans to run past their first segment.
func NewSocketECL(socket int, opts Options, m *hw.Machine, clock *vtime.Clock, profile *energy.Profile) *SocketECL {
	s := &SocketECL{
		socket:        socket,
		opts:          opts.withDefaults(),
		machine:       m,
		clock:         clock,
		profile:       profile,
		idleCfg:       hw.NewConfiguration(m.Topology()),
		adaptAttempts: make(map[*energy.Entry]int),
	}
	// Never-evaluated entries start on the adaptation queue.
	s.adaptQueue = profile.Stale(0, time.Duration(1<<62))
	return s
}

// SetRuntimeStats attaches the DBMS feedback used to gate profile
// measurements on full-load windows.
func (s *SocketECL) SetRuntimeStats(rs RuntimeStats) { s.stats = rs }

// SetObserver attaches the observability sinks. A nil observer (the
// default) keeps every instrumentation site a no-op.
func (s *SocketECL) SetObserver(ob *obs.Observer) {
	s.obsLog = ob.EventLog()
	reg := ob.Reg()
	sock := strconv.Itoa(s.socket)
	s.obsTicks = reg.Counter(`ecl_ticks_total{socket="` + sock + `"}`)
	s.obsSafety = reg.Counter(`ecl_safety_valve_total{socket="` + sock + `"}`)
	s.obsRTI = reg.Counter(`ecl_rti_intervals_total{socket="` + sock + `"}`)
	s.obsMeasures = reg.Counter(`ecl_profile_measures_total{socket="` + sock + `"}`)
	s.obsRescales = reg.Counter(`ecl_drift_rescales_total{socket="` + sock + `"}`)
	s.obsDemand = reg.Gauge(`ecl_demand_instr_s{socket="` + sock + `"}`)
	s.obsQueue = reg.Gauge(`ecl_adapt_queue_depth{socket="` + sock + `"}`)
	s.tracer = ob.Tracer()
	s.eattr = ob.EnergyMeter()
}

// ttvSeconds renders a time-to-violation for event payloads: seconds,
// with NoViolation mapped to -1 (JSON cannot carry the sentinel).
func ttvSeconds(ttv time.Duration) float64 {
	if ttv == NoViolation {
		return -1
	}
	return ttv.Seconds()
}

// noteMode emits a ZoneTransition when the planning branch changed since
// the previous tick.
func (s *SocketECL) noteMode(mode string) {
	if mode == s.lastMode {
		return
	}
	s.lastMode = mode
	if s.obsLog.Enabled() {
		s.obsLog.Emit(obs.Event{
			At:     units.Virtual(s.clock.Now()),
			Type:   obs.EvZoneTransition,
			Socket: s.socket,
			A:      s.demand.PerSecond(),
			S:      mode,
		})
	}
}

// ResetAdaptation clears the multiplexed adaptation queue. Called after an
// external profile establishment (e.g. the pre-run measurement sweep) so
// the loop does not re-measure entries that are already fresh.
func (s *SocketECL) ResetAdaptation() {
	s.adaptQueue = nil
	s.adaptAttempts = make(map[*energy.Entry]int)
	s.driftHits = 0
}

// ReplaceProfile swaps in an externally provided profile (e.g. one
// restored from disk for a recurring workload). Never-evaluated entries of
// the new profile are queued for multiplexed evaluation; measurement state
// referring to the old profile is dropped.
func (s *SocketECL) ReplaceProfile(p *energy.Profile) {
	s.profile = p
	if s.cur < len(s.plan) {
		s.plan[s.cur].measure = nil
	}
	s.aggEntry = nil
	s.adaptAttempts = make(map[*energy.Entry]int)
	s.driftHits = 0
	s.driftScore, s.driftPower = nil, nil
	s.adaptQueue = p.Stale(s.clock.Now(), time.Duration(1<<62))
}

// Profile returns the loop's energy profile.
func (s *SocketECL) Profile() *energy.Profile { return s.profile }

// Demand returns the current performance-level demand (instr/s).
func (s *SocketECL) Demand() units.Hertz { return s.demand }

// RTI reports whether the last interval used race-to-idle, with its duty
// cycle and cycle count.
func (s *SocketECL) RTI() (active bool, duty float64, cycles int) {
	return s.rtiActive, s.lastRTIDuty, s.lastRTICycles
}

// AdaptPending returns the number of entries queued for multiplexed
// re-evaluation.
func (s *SocketECL) AdaptPending() int { return len(s.adaptQueue) }

// Tick runs one control iteration: it closes the previous interval's
// measurements, recomputes the performance demand from the reported
// utilization and the system-level ECL's time-to-violation, and plans the
// next interval (adaptation windows, then steady or race-to-idle
// operation).
//
// The util argument is the runtime's instantaneous utilization signal;
// when runtime stats are attached, the loop instead derives the
// utilization over its whole past interval from the busy/active
// thread-second counters — a single end-of-interval sample aliases with
// race-to-idle switching and destabilizes the controller.
func (s *SocketECL) Tick(util float64, ttv time.Duration) {
	now := s.clock.Now()
	s.ticks++
	s.finishSegment(now)
	s.flushAggregate(now)

	if s.stats != nil {
		busy, active := s.stats.BusySeconds(s.socket)
		dBusy, dActive := busy-s.tickBusy, active-s.tickActive
		s.tickBusy, s.tickActive = busy, active
		if dActive > 0 {
			util = dBusy / dActive
		}
		// dActive == 0: the socket slept all interval; keep the
		// instantaneous signal (1.0 when work is pending).
	}
	s.lastUtil = util
	if ttv == 0 {
		s.violTicks++
	} else {
		s.violTicks = 0
	}
	s.updateDemand(util, ttv)

	s.obsTicks.Inc()
	s.obsDemand.Set(s.demand.PerSecond())
	s.obsQueue.Set(float64(len(s.adaptQueue)))
	s.obsLog.Emit(obs.Event{
		At:     units.Virtual(now),
		Type:   obs.EvDemandUpdate,
		Socket: s.socket,
		A:      s.demand.PerSecond(),
		B:      util,
		C:      ttvSeconds(ttv),
	})

	s.plan = s.plan[:0]
	s.buildPlan(ttv)
	s.execute(now)
}

// updateDemand implements the utilization controller (Section 5.1): at
// full utilization the demand grows exponentially (discovery), with
// aggressiveness scaled by latency pressure; below full utilization the
// demand is utilization times the offered performance level (formula 3).
func (s *SocketECL) updateDemand(util float64, ttv time.Duration) {
	maxScore := s.profile.MaxScore()
	minDemand := maxScore / 256
	if minDemand <= 0 {
		minDemand = 1
	}
	base := s.lastCapacity
	if base < minDemand {
		base = minDemand
	}
	if util >= 0.98 {
		// Cold start: with no offered capacity yet, begin at full
		// performance and let formula (3) shrink the demand — the
		// reactive analogue of race-to-idle. Ramping up from the bottom
		// instead would violate the latency limit for many intervals.
		if s.lastCapacity == 0 && maxScore > 0 {
			s.demand = maxScore
			return
		}
		switch {
		case ttv == 0:
			// Limit already violated: jump to the top.
			s.demand = maxScore * 1.25
		case ttv < 3*s.opts.Interval:
			s.demand = base * 4
		case ttv < 10*s.opts.Interval:
			s.demand = base * 2.2
		default:
			s.demand = base * 1.6
		}
	} else {
		next := base.Scale(util)
		// Clamp the decrease rate: one drained interval (e.g. right
		// after a load spike passed) must not idle the socket outright.
		if next < s.demand*0.5 {
			next = s.demand * 0.5
		}
		s.demand = next
	}
	if maxScore > 0 && s.demand > maxScore*1.25 {
		s.demand = maxScore * 1.25
	}
	if s.demand < 0 {
		s.demand = 0
	}
}

// provisionHeadroom is the factor by which the offered capacity exceeds
// the measured demand. Without headroom the loop converges to exactly the
// arrival rate and any standing backlog never drains; with ~10 % the
// backlog drains, utilization settles near 0.9, and the discovery
// trigger stays quiet — a stable fixed point.
const provisionHeadroom = 1.1

// buildPlan appends the next interval to the emptied plan: multiplexed
// adaptation windows first, then either steady operation in the chosen
// configuration or race-to-idle switching against the optimal-zone
// configuration.
func (s *SocketECL) buildPlan(ttv time.Duration) {
	interval := s.opts.Interval

	// Safety valve: under a sustained latency violation at full
	// utilization, stop trusting the (possibly stale) profile ranking
	// and ramp up everything. The all-max stretch is itself a
	// measurement, so the profile's top end corrects first.
	if s.violTicks >= 3 && s.lastUtil >= 0.98 {
		all := hw.AllMax(s.machine.Topology())
		cfg, capacity := all, s.profile.MaxScore()
		if s.opts.PowerCapW > 0 {
			// Under a power cap the ramp-up stops at the fastest
			// configuration that fits: the cap outranks the latency limit.
			if e := s.profile.ForPerformance(capacity*2, s.opts.PowerCapW); e != nil {
				cfg, capacity = e.Config, e.Score
			}
		}
		s.rtiActive = false
		s.lastRTIDuty = 1
		s.lastCapacity = capacity
		s.obsSafety.Inc()
		if s.obsLog.Enabled() {
			s.obsLog.Emit(obs.Event{
				At:     units.Virtual(s.clock.Now()),
				Type:   obs.EvSafetyValve,
				Socket: s.socket,
				A:      float64(s.violTicks),
				S:      cfg.Key(s.machine.Topology().ThreadsPerCore),
			})
		}
		s.noteMode("safety")
		var meas *energy.Entry
		if s.opts.Maintenance != MaintainNone {
			meas = s.profile.Lookup(cfg)
		}
		s.plan = append(s.plan, segment{cfg: cfg, measure: meas, dur: interval})
		return
	}

	// Multiplexed adaptation windows. Each measurement is preceded by an
	// idle accumulation slice so the window runs on batched backlog at
	// full tilt — the paper's "leverages the RTI controller to simulate
	// high load situations". Adaptation pauses under latency pressure
	// and throttles with shrinking utilization headroom: stolen windows
	// cannot be compensated when the system is already nearly full.
	s.adaptBusy = false
	if s.opts.Maintenance == MaintainMultiplexed && len(s.adaptQueue) > 0 && ttv > 2*interval {
		share := adaptShare
		if headroom := (1 - s.lastUtil) * 0.8; headroom < share {
			share = headroom
		}
		budget := time.Duration(float64(interval) * share)
		slot := 3 * measureWindow // 2x idle accumulation + window
		for budget >= slot && len(s.adaptQueue) > 0 {
			e := s.popMostRelevant()
			s.plan = append(s.plan,
				segment{cfg: s.idleCfg, span: qtrace.CtlRTISleep, dur: 2 * measureWindow},
				segment{cfg: e.Config, measure: e, adapt: true, span: qtrace.CtlDiscovery, dur: measureWindow})
			budget -= slot
			s.adaptBusy = true
		}
	}
	used := time.Duration(0)
	for _, seg := range s.plan {
		used += seg.dur
	}
	remaining := interval - used

	// Provision for the whole interval's arrivals within the remaining
	// time: adaptation windows (including their idle accumulation) must
	// not silently shrink the offered capacity.
	target := s.demand * provisionHeadroom
	if remaining > 0 && remaining < interval {
		target = target.Scale(float64(interval) / float64(remaining))
	}
	entry := s.profile.ForPerformance(target, s.opts.PowerCapW)
	if entry == nil {
		// Nothing evaluated yet: run everything at full throttle until
		// the profile has substance.
		s.plan = append(s.plan, segment{cfg: hw.AllMax(s.machine.Topology()), dur: remaining})
		s.rtiActive = false
		s.lastCapacity = 0
		s.noteMode("bootstrap")
		return
	}
	opt := s.profile.MostEfficient(s.opts.PowerCapW)

	// Race-to-idle in the under-utilization zone (Section 4.3): switch
	// between the optimal configuration and idle. Disabled under latency
	// pressure, since long idle stretches hurt response times.
	useRTI := !s.opts.DisableRTI && opt != nil && target < opt.Score && ttv > 2*s.opts.Interval
	if useRTI {
		duty := target.Div(opt.Score)
		cycleLen := s.rtiCycleLen(remaining, ttv)
		cycles := int(remaining / cycleLen)
		if cycles < 1 {
			cycles = 1
		}
		const minRun = 2 * time.Millisecond
		for i := 0; i < cycles; i++ {
			// Exact cycle boundaries so the plan covers the interval
			// to the nanosecond.
			start := remaining * time.Duration(i) / time.Duration(cycles)
			end := remaining * time.Duration(i+1) / time.Duration(cycles)
			cl := end - start
			runSlice := time.Duration(duty * float64(cl))
			if runSlice > 0 && runSlice < minRun {
				runSlice = minRun
			}
			if runSlice > cl {
				runSlice = cl
			}
			if runSlice > 0 {
				// Run slices are online measurements of the optimal
				// configuration: individually when long enough,
				// otherwise aggregated over the interval.
				var meas *energy.Entry
				agg := false
				if s.opts.Maintenance != MaintainNone {
					meas = opt
					agg = runSlice < measureWindow
				}
				s.plan = append(s.plan, segment{cfg: opt.Config, measure: meas, aggregate: agg, dur: runSlice})
			}
			if idleSlice := cl - runSlice; idleSlice > 0 {
				var meas *energy.Entry
				if s.opts.Maintenance != MaintainNone && idleSlice >= measureWindow {
					meas = s.profile.Idle()
				}
				s.plan = append(s.plan, segment{cfg: s.idleCfg, measure: meas, span: qtrace.CtlRTISleep, dur: idleSlice})
			}
		}
		s.rtiActive = true
		s.lastRTIDuty = duty
		s.lastRTICycles = cycles
		s.lastCapacity = opt.Score.Scale(duty)
		s.obsRTI.Inc()
		s.obsLog.Emit(obs.Event{
			At:     units.Virtual(s.clock.Now()),
			Type:   obs.EvRTICycle,
			Socket: s.socket,
			A:      duty,
			B:      float64(cycles),
			C:      cycleLen.Seconds(),
		})
		s.noteMode("rti")
		return
	}

	// Steady operation in the chosen configuration; the whole stretch is
	// an online measurement.
	var meas *energy.Entry
	if s.opts.Maintenance != MaintainNone && remaining >= measureWindow {
		meas = entry
	}
	s.plan = append(s.plan, segment{cfg: entry.Config, measure: meas, dur: remaining})
	s.rtiActive = false
	s.lastRTIDuty = 1
	s.lastRTICycles = 0
	s.lastCapacity = entry.Score
	if s.obsLog.Enabled() {
		switch {
		case entry == opt:
			s.noteMode("optimal")
		case s.profile.ZoneOf(entry) == energy.ZoneOver:
			s.noteMode("over")
		default:
			s.noteMode("under")
		}
	}
}

// rtiCycleLen chooses the RTI switching period: short cycles (down to the
// paper's ~10-20 ms, up to 50 cycles per interval) under latency pressure,
// longer cycles when there is headroom. All socket-level ECLs share the
// same tick phase and the same (global) time-to-violation input, so their
// cycle grids align and idle windows synchronize across sockets — a
// prerequisite for the machine-wide deepest sleep state.
func (s *SocketECL) rtiCycleLen(remaining, ttv time.Duration) time.Duration {
	min := remaining / 50
	if min < 10*time.Millisecond {
		min = 10 * time.Millisecond
	}
	// An idle stretch directly adds to query latency, so the cycle must
	// stay well below the latency limit regardless of headroom.
	max := remaining / 4
	if lim := s.opts.LatencyLimit / 3; max > lim {
		max = lim
	}
	if max < min {
		max = min
	}
	var want time.Duration
	if ttv == NoViolation {
		want = max
	} else {
		want = ttv / 10
	}
	if want < min {
		want = min
	}
	if want > max {
		want = max
	}
	return want
}

// execute starts the fresh plan at its first segment. The remaining
// boundaries fire through Next/Fire.
func (s *SocketECL) execute(now time.Duration) {
	s.planAt, s.cur = now, 0
	t := now
	for i, seg := range s.plan {
		if s.eattr.Enabled() {
			// Register the segment's control window ahead of execution.
			// Settle windows are registered by hw.Machine.Apply itself;
			// only discovery and race-to-idle slices are planned here.
			// Stop clips them via cancelPending.
			switch seg.span {
			case qtrace.CtlDiscovery:
				s.eattr.AddWindow(s.socket, energyattr.KindDiscovery, t, t+seg.dur)
			case qtrace.CtlRTISleep:
				s.eattr.AddWindow(s.socket, energyattr.KindRTISleep, t, t+seg.dur)
			}
		}
		if i == 0 {
			s.beginSegment(now)
		}
		t += seg.dur
	}
}

// Next reports the running segment's end when another planned segment
// follows it (ok=false otherwise: the plan's last segment runs until the
// next tick). With Fire it makes the loop a vtime.Agenda.
func (s *SocketECL) Next() (time.Duration, bool) {
	if s.cur+1 >= len(s.plan) {
		return 0, false
	}
	return s.segStart + s.plan[s.cur].dur, true
}

// Fire closes the running segment and begins the next planned one.
func (s *SocketECL) Fire() {
	now := s.clock.Now()
	s.finishSegment(now)
	s.cur++
	s.beginSegment(now)
}

// beginSegment applies the running segment's configuration and snapshots
// counters.
func (s *SocketECL) beginSegment(now time.Duration) {
	if err := s.machine.Apply(s.socket, s.plan[s.cur].cfg); err != nil {
		panic(err) // profile configurations are validated at generation
	}
	s.segStart = now
	s.segPkgJ = s.machine.ReadEnergy(s.socket, hw.DomainPackage)
	s.segDramJ = s.machine.ReadEnergy(s.socket, hw.DomainDRAM)
	s.segInstr = s.machine.SocketInstructions(s.socket)
	if s.stats != nil {
		s.segBusy, s.segActive = s.stats.BusySeconds(s.socket)
	}
}

// finishSegment closes the running segment, updating the profile when the
// segment was a measurement (online adaptation). A measurement only
// counts if the socket's workers ran at full tilt during the window — the
// performance score is the configuration's *capacity*, and instructions
// retired under partial load would corrupt it. Sustained drift of the
// measured efficiency marks the whole profile stale for multiplexed
// re-adaptation.
func (s *SocketECL) finishSegment(now time.Duration) {
	if s.cur >= len(s.plan) {
		return
	}
	seg := &s.plan[s.cur]
	if s.tracer != nil && seg.span != qtrace.CtlNone && now > s.segStart {
		s.tracer.AddCtl(qtrace.CtlSpan{
			Kind:   seg.span,
			Socket: s.socket,
			Start:  s.segStart,
			End:    now,
		})
	}
	entry := seg.measure
	if entry == nil || s.opts.Maintenance == MaintainNone {
		return
	}
	dt := (now - s.segStart).Seconds()
	if dt <= 0 {
		return
	}
	dE := (s.machine.ReadEnergy(s.socket, hw.DomainPackage) - s.segPkgJ) +
		(s.machine.ReadEnergy(s.socket, hw.DomainDRAM) - s.segDramJ)
	dI := s.machine.SocketInstructions(s.socket) - s.segInstr
	var dBusy, dActive float64
	if s.stats != nil {
		busy, active := s.stats.BusySeconds(s.socket)
		dBusy, dActive = busy-s.segBusy, active-s.segActive
	}
	if seg.aggregate {
		// RTI run slice: too short alone; accumulate toward one online
		// measurement per interval.
		if s.aggEntry != entry {
			s.flushAggregate(now)
			s.aggEntry = entry
		}
		s.aggE += dE
		s.aggI += dI
		s.aggSec += dt
		s.aggBusy += dBusy
		s.aggActive += dActive
		return
	}
	if s.stats != nil && !entry.Config.Idle() {
		if dActive <= 0 || dBusy/dActive < 0.85 {
			// Partial-load window: unusable as a capacity measurement.
			if seg.adapt && s.adaptAttempts[entry] < 2 {
				s.adaptAttempts[entry]++
				s.adaptQueue = append(s.adaptQueue, entry)
			}
			return
		}
	}
	delete(s.adaptAttempts, entry)
	s.record(entry, dE, dI, dt, now)
}

// flushAggregate finalizes the accumulated RTI-slice measurement, if it
// amounts to a trustworthy window.
func (s *SocketECL) flushAggregate(now time.Duration) {
	entry := s.aggEntry
	dE, dI, sec := s.aggE, s.aggI, s.aggSec
	busy, active := s.aggBusy, s.aggActive
	s.aggEntry = nil
	s.aggE, s.aggI, s.aggSec, s.aggBusy, s.aggActive = 0, 0, 0, 0, 0
	if entry == nil || sec < measureWindow.Seconds() {
		return
	}
	if s.stats != nil && (active <= 0 || busy/active < 0.85) {
		// The run slices were not fully busy: the backlog drained
		// early, so the instruction rate understates capacity.
		return
	}
	s.record(entry, dE, dI, sec, now)
}

// record updates the profile with a completed measurement and runs the
// drift-triggered re-adaptation policy: sustained drift means the workload
// changed, so the stale profile is rescaled by the observed measurement
// ratios (fresh and stale scores are otherwise in incompatible units), and
// in multiplexed mode everything is queued for re-evaluation.
func (s *SocketECL) record(entry *energy.Entry, dE units.Joule, dI, sec float64, now time.Duration) {
	if dE < 0 || dI < 0 || sec <= 0 {
		return
	}
	oldScore, oldPower := entry.Score, entry.PowerW
	wasEvaluated := entry.Evaluated
	power, score := dE.PerSeconds(sec), units.HertzOf(dI/sec)
	drift, err := s.profile.Update(entry.Config, power, score, now)
	if err != nil {
		return
	}
	s.obsMeasures.Inc()
	if s.obsLog.Enabled() {
		s.obsLog.Emit(obs.Event{
			At:     units.Virtual(now),
			Type:   obs.EvProfileMeasure,
			Socket: s.socket,
			A:      power.Watts(),
			B:      score.PerSecond(),
			C:      drift,
			S:      entry.Config.Key(s.machine.Topology().ThreadsPerCore),
		})
	}
	if s.opts.Maintenance == MaintainNone {
		return
	}
	if drift > driftThreshold {
		s.driftHits++
		if wasEvaluated && oldScore > 0 && oldPower > 0 {
			s.driftScore = append(s.driftScore, score.Div(oldScore))
			s.driftPower = append(s.driftPower, power.Div(oldPower))
		}
	} else if s.driftHits > 0 {
		s.driftHits--
	}
	if s.driftHits < 2 {
		return
	}
	// Confirmed workload change: rescale entries not measured recently,
	// then (multiplexed only) re-measure everything.
	if rs, rp := avgRatio(s.driftScore), avgRatio(s.driftPower); rs > 0 {
		s.profile.RescaleStale(now, 2*s.opts.Interval, rs, rp)
		s.obsRescales.Inc()
		s.obsLog.Emit(obs.Event{
			At:     units.Virtual(now),
			Type:   obs.EvDriftRescale,
			Socket: s.socket,
			A:      rs,
			B:      rp,
		})
	}
	s.driftScore, s.driftPower = nil, nil
	s.driftHits = 0
	if s.opts.Maintenance == MaintainMultiplexed && len(s.adaptQueue) == 0 {
		s.adaptQueue = s.profile.Stale(now, 2*s.opts.Interval)
	}
}

// avgRatio averages ratio samples, returning 0 for none.
func avgRatio(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// popMostRelevant removes and returns the queued entry whose (stale) score
// lies closest to the current demand: the configurations the loop is about
// to rely on refresh first, so the system behaves well within seconds of a
// workload change while the full profile refresh trickles on — the
// "requires more time, but finds a slightly more energy-efficient
// configuration" behaviour of the paper's Figure 15.
func (s *SocketECL) popMostRelevant() *energy.Entry {
	best := 0
	var bestDist units.Hertz = -1
	for i, e := range s.adaptQueue {
		d := e.Score - s.demand
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	e := s.adaptQueue[best]
	s.adaptQueue = append(s.adaptQueue[:best], s.adaptQueue[best+1:]...)
	return e
}

// cancelPending drops the plan's unconsumed segments (the running one
// stays, for the next tick to close) and clips the plan's control windows
// at the current instant. Only Stop needs it: a tick lands where its
// predecessor's plan ends, and the new plan replaces the old.
func (s *SocketECL) cancelPending() {
	if s.cur < len(s.plan) {
		s.plan = s.plan[:s.cur+1]
	}
	if s.eattr.Enabled() {
		// Energy past the stop belongs to no planned window.
		now := s.clock.Now()
		s.eattr.CancelFrom(s.socket, energyattr.KindDiscovery, now)
		s.eattr.CancelFrom(s.socket, energyattr.KindRTISleep, now)
	}
}
