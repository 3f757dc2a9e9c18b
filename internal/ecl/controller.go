package ecl

import (
	"fmt"
	"time"

	"ecldb/internal/energy"
	"ecldb/internal/hw"
	"ecldb/internal/obs"
	"ecldb/internal/units"
	"ecldb/internal/vtime"
)

// Options configures the full ECL hierarchy.
type Options struct {
	// Interval is the base control interval of the socket-level ECLs
	// (the paper evaluates 1 Hz and 2 Hz).
	Interval time.Duration
	// LatencyLimit is the user-defined soft limit on the average query
	// latency (the paper uses 100 ms).
	LatencyLimit time.Duration
	// Maintenance selects the profile maintenance strategy.
	Maintenance MaintenanceMode
	// DisableRTI turns off race-to-idle (ablation).
	DisableRTI bool
	// PowerCapW, when positive, caps each socket's package+DRAM power
	// (the machine-level budget is the cap times the socket count): a
	// socket loop only applies profile configurations whose measured
	// power stays at or below the cap, even when that violates the
	// latency limit (the cap is a hard constraint, like a RAPL power
	// limit, but enforced through the energy profile instead of hardware
	// clamping — the loop keeps its configuration ranking instead of
	// being throttled blindly). Enforcement needs evaluated entries;
	// until the first measurements arrive the loop cannot honor the cap.
	PowerCapW units.Watt
	// DesyncRTI staggers the socket-level loops' tick phases instead of
	// ticking them together (ablation). With aligned phases the sockets'
	// race-to-idle grids coincide, so their idle windows overlap and the
	// machine reaches the deepest sleep state (uncore halted only when
	// *all* sockets idle — Section 2.2); staggered phases destroy that
	// overlap.
	DesyncRTI bool
}

// DefaultOptions returns the paper's standard setting: 1 Hz loops, 100 ms
// latency limit, multiplexed maintenance.
func DefaultOptions() Options {
	return Options{Maintenance: MaintainMultiplexed}.withDefaults()
}

// withDefaults fills a zero interval and latency limit with the paper's
// 1 s and 100 ms.
func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.LatencyLimit <= 0 {
		o.LatencyLimit = 100 * time.Millisecond
	}
	return o
}

// Controller wires the hierarchy: one socket-level ECL per processor plus
// the system-level ECL, ticking on a shared phase so the race-to-idle
// grids of all sockets align (deepest sleep needs machine-wide idle).
// Once started it is its clock's agenda (vtime.Agenda): its ticks and the
// sockets' planned segment boundaries are the clock's only deadlines.
type Controller struct {
	machine *hw.Machine
	clock   *vtime.Clock
	system  *SystemECL
	sockets []*SocketECL
	stats   RuntimeStats
	opts    Options
	// ticks holds the next tick instant while running: one shared
	// instant, or one per socket under DesyncRTI (empty when stopped).
	ticks []time.Duration

	// Observability (nil when disabled; see internal/obs).
	obsLog        *obs.Log
	obsBroadcasts *obs.Counter
}

// NewController builds the ECL hierarchy. Each socket gets its own energy
// profile (the paper: workload characteristics can differ per processor)
// over the configurations of the paper's generator setting
// (fcore=4/funcore=3/cmax=256).
func NewController(m *hw.Machine, clock *vtime.Clock, lat LatencySource, stats RuntimeStats, opts Options) (*Controller, error) {
	if m == nil || clock == nil || lat == nil || stats == nil {
		return nil, fmt.Errorf("ecl: nil dependency")
	}
	opts = opts.withDefaults()
	topo := m.Topology()
	c := &Controller{
		machine: m,
		clock:   clock,
		system:  NewSystemECL(opts.LatencyLimit, lat),
		stats:   stats,
		opts:    opts,
	}
	for s := 0; s < topo.Sockets; s++ {
		cfgs, err := energy.Generate(topo, energy.DefaultGeneratorParams())
		if err != nil {
			return nil, err
		}
		sock := NewSocketECL(s, opts, m, clock, energy.NewProfile(topo, cfgs))
		sock.SetRuntimeStats(stats)
		c.sockets = append(c.sockets, sock)
	}
	return c, nil
}

// SetObserver attaches the observability sinks to the whole hierarchy:
// the controller's broadcast instrumentation and every socket-level loop.
// A nil observer (the default) keeps all sites no-ops.
func (c *Controller) SetObserver(ob *obs.Observer) {
	c.obsLog = ob.EventLog()
	c.obsBroadcasts = ob.Reg().Counter("ecl_ttv_broadcasts_total")
	for _, s := range c.sockets {
		s.SetObserver(ob)
	}
}

// broadcast records a system-level time-to-violation broadcast.
func (c *Controller) broadcast(ttv time.Duration) {
	c.obsBroadcasts.Inc()
	c.obsLog.Emit(obs.Event{
		At:     units.Virtual(c.clock.Now()),
		Type:   obs.EvTTVBroadcast,
		Socket: -1,
		A:      ttvSeconds(ttv),
		B:      float64(c.system.LastAverage()) / float64(time.Millisecond),
	})
}

// Start pins the hardware into explicitly controlled mode (EPB
// performance, automatic uncore scaling off — the paper's Section 2.3
// recommendation) and begins ticking.
func (c *Controller) Start() {
	if len(c.ticks) > 0 {
		return
	}
	c.machine.SetEPB(hw.EPBPerformance)
	c.machine.SetAutoUFS(false)
	n := 1
	if c.opts.DesyncRTI && len(c.sockets) > 1 {
		// Ablation: each socket ticks on its own phase-shifted grid, with
		// a fresh time-to-violation estimate per tick.
		n = len(c.sockets)
	}
	phase := c.opts.Interval / time.Duration(n)
	for i := 0; i < n; i++ {
		c.ticks = append(c.ticks, c.clock.Now()+c.opts.Interval+time.Duration(i)*phase)
	}
	c.clock.SetAgenda(c)
}

// Stop cancels the control loop: no further tick, and every socket drops
// the rest of its plan.
func (c *Controller) Stop() {
	if len(c.ticks) == 0 {
		return
	}
	c.ticks = c.ticks[:0]
	for _, s := range c.sockets {
		s.cancelPending()
	}
}

// Next reports the instant of the earliest pending control action: a tick
// or a socket's next segment boundary. Same-instant actions fire in a
// fixed order: ticks before segment boundaries, then the boundary of the
// socket that planned earlier, then the lower socket index.
func (c *Controller) Next() (time.Duration, bool) {
	at, _, _, ok := c.due()
	return at, ok
}

// Fire runs the action Next reports. A tick runs one hierarchy
// iteration: the system-level ECL first (it produces the
// time-to-violation), then the socket-level ECLs on that tick's grid —
// all of them, or one under DesyncRTI.
func (c *Controller) Fire() {
	_, tick, i, _ := c.due()
	if !tick {
		c.sockets[i].Fire()
		return
	}
	c.ticks[i] += c.opts.Interval
	socks := c.sockets
	if len(c.ticks) > 1 {
		socks = c.sockets[i : i+1]
	}
	ttv := c.system.Tick(c.clock.Now())
	c.broadcast(ttv)
	for _, sock := range socks {
		sock.Tick(c.stats.Utilization(sock.socket), ttv)
	}
}

// due finds the earliest pending action in Next's order: tick i, or
// socket i's segment boundary.
func (c *Controller) due() (at time.Duration, tick bool, i int, ok bool) {
	for j, t := range c.ticks {
		if !ok || t < at {
			at, tick, i, ok = t, true, j, true
		}
	}
	for j, s := range c.sockets {
		b, has := s.Next()
		if has && (!ok || b < at || b == at && !tick && s.planAt < c.sockets[i].planAt) {
			at, tick, i, ok = b, false, j, true
		}
	}
	return at, tick, i, ok
}

// Socket returns the socket-level ECL of one processor.
func (c *Controller) Socket(i int) *SocketECL { return c.sockets[i] }

// Sockets returns the number of socket-level ECLs.
func (c *Controller) Sockets() int { return len(c.sockets) }

// Overhead returns the modeled compute share of the ECL itself. The paper
// measures ~2 % of one hardware thread per socket; the controller's work
// (reading two counters, a profile lookup, scheduling a handful of
// transitions) is negligible next to the control interval, so the
// simulation charges this constant share.
func (c *Controller) Overhead() float64 { return 0.02 }
