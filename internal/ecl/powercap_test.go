package ecl

import (
	"sort"
	"testing"
	"time"

	"ecldb/internal/energy"
	"ecldb/internal/hw"
	"ecldb/internal/units"
)

// medianPower returns the median measured power of a prewarmed profile's
// evaluated non-idle entries — a cap that excludes roughly half the
// configurations, including the fastest ones.
func medianPower(s *SocketECL) units.Watt {
	var ps []units.Watt
	for _, e := range s.Profile().Entries() {
		if e.Evaluated && !e.Config.Idle() {
			ps = append(ps, e.PowerW)
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	return ps[len(ps)/2]
}

// Under a power cap, every configuration the loop applies fits under the
// cap — even through discovery at full utilization and the sustained-
// violation safety valve, where an uncapped loop would ramp to all-max.
func TestPowerCapBoundsAppliedConfigurations(t *testing.T) {
	w := newWorld(1.0)
	s := prewarmedECL(t, w, MaintainNone)
	cap := medianPower(s)
	s.opts.PowerCapW = cap
	ticks := []struct {
		util float64
		ttv  time.Duration
	}{
		{1.0, NoViolation}, {1.0, 2 * time.Second}, {1.0, 0}, {1.0, 0},
		{1.0, 0}, {1.0, 0}, {0.6, NoViolation}, {0.3, NoViolation}, {1.0, 0},
	}
	for i, tk := range ticks {
		s.Tick(tk.util, tk.ttv)
		req := w.m.Requested(0)
		if req.Idle() {
			w.advance(time.Second)
			continue
		}
		e := s.Profile().Lookup(req)
		if e == nil {
			t.Fatalf("tick %d: applied configuration %s not in profile", i, req)
		}
		if e.PowerW > cap {
			t.Errorf("tick %d: applied %s at %.1f W exceeds the %.1f W cap",
				i, req, e.PowerW, cap)
		}
		w.advance(time.Second)
	}
}

// The safety valve respects the cap: with sustained violations at full
// utilization it ramps to the fastest under-cap configuration, not to
// all-max.
func TestPowerCapOverridesSafetyValve(t *testing.T) {
	w := newWorld(1.0)
	s := prewarmedECL(t, w, MaintainNone)
	cap := medianPower(s)
	s.opts.PowerCapW = cap
	for i := 0; i < 5; i++ {
		s.Tick(1.0, 0)
		w.advance(time.Second)
	}
	req := w.m.Requested(0)
	if req.ActiveThreads() == w.m.Topology().ThreadsPerSocket() && req.UncoreMHz == hw.MaxUncoreMHz {
		t.Fatal("safety valve applied all-max despite the power cap")
	}
	e := s.Profile().Lookup(req)
	if e == nil || e.PowerW > cap {
		t.Fatalf("safety valve applied %s (%.1f W) above the cap %.1f W", req, e.PowerW, cap)
	}
	// And it picked the *fastest* fitting entry, not an arbitrary one.
	for _, o := range s.Profile().Entries() {
		if o.Evaluated && !o.Config.Idle() && o.PowerW <= cap && o.Score > e.Score {
			t.Fatalf("safety valve applied %.3g instr/s; %s fits the cap at %.3g",
				e.Score, o.Config, o.Score)
		}
	}
}

// A cap of zero leaves the loop unrestricted (identical plans to the
// uncapped loop over an eventful utilization schedule).
func TestPowerCapZeroUnrestricted(t *testing.T) {
	run := func(capW units.Watt) []string {
		w := newWorld(1.0)
		s := prewarmedECL(t, w, MaintainNone)
		s.opts.PowerCapW = capW
		var applied []string
		for _, u := range []float64{1, 1, 0.7, 0.4, 1, 1, 1} {
			ttv := NoViolation
			if u == 1 {
				ttv = 0
			}
			s.Tick(u, ttv)
			applied = append(applied, w.m.Requested(0).String())
			w.advance(time.Second)
		}
		return applied
	}
	a, b := run(0), run(-1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tick %d: cap 0 applied %s, cap -1 applied %s", i, a[i], b[i])
		}
	}
}

// Options.PowerCapW reaches every socket-level loop.
func TestControllerPropagatesPowerCap(t *testing.T) {
	w := newWorld(0.5)
	opts := DefaultOptions()
	opts.PowerCapW = 77
	c, err := NewController(w.m, w.clock, &fakeLatency{avg: time.Millisecond}, &fakeStats{util: 0.5}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Sockets(); i++ {
		if got := c.Socket(i).opts.PowerCapW; got != 77 {
			t.Errorf("socket %d: PowerCapW = %v, want 77", i, got)
		}
	}
}

// DesyncRTI staggers the socket loops: one tick instant per socket, on
// distinct phase offsets.
func TestDesyncRTIStaggersTicks(t *testing.T) {
	w := newWorld(0.5)
	opts := DefaultOptions()
	opts.DesyncRTI = true
	c, err := NewController(w.m, w.clock, &fakeLatency{avg: time.Millisecond}, &fakeStats{util: 0.5}, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	if got := len(c.ticks); got != c.Sockets() {
		t.Fatalf("tick instants = %d, want one per socket (%d)", got, c.Sockets())
	}
	if d := c.ticks[1] - c.ticks[0]; d != opts.Interval/time.Duration(c.Sockets()) {
		t.Errorf("sockets 0 and 1 tick %v apart, want %v", d, opts.Interval/time.Duration(c.Sockets()))
	}
	// Ticking is alive on the staggered grid: both sockets get demand
	// updates within two intervals.
	w.advance(2*time.Second + 600*time.Millisecond)
	for i := 0; i < c.Sockets(); i++ {
		if c.Socket(i).ticks == 0 {
			t.Errorf("socket %d never ticked", i)
		}
	}
	c.Stop()
	if _, ok := w.clock.NextDeadline(); ok {
		t.Error("Stop left control actions pending")
	}
}

func TestMaintenanceModeString(t *testing.T) {
	cases := map[MaintenanceMode]string{
		MaintainNone: "static", MaintainOnline: "online",
		MaintainMultiplexed: "multiplexed", MaintenanceMode(99): "unknown",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
}

func TestResetAdaptationClearsQueue(t *testing.T) {
	w := newWorld(1.0)
	s := prewarmedECL(t, w, MaintainMultiplexed)
	s.adaptQueue = s.Profile().Stale(0, 0)
	if s.AdaptPending() == 0 {
		t.Fatal("queue should be loaded")
	}
	s.ResetAdaptation()
	if s.AdaptPending() != 0 {
		t.Errorf("AdaptPending = %d after reset", s.AdaptPending())
	}
}

// ReplaceProfile swaps the profile wholesale and queues its unevaluated
// entries, dropping measurement state tied to the old profile.
func TestReplaceProfile(t *testing.T) {
	w := newWorld(1.0)
	s := prewarmedECL(t, w, MaintainMultiplexed)
	s.Tick(0.9, NoViolation) // arm segment measurement state
	cfgs, err := energy.Generate(w.m.Topology(), energy.DefaultGeneratorParams())
	if err != nil {
		t.Fatal(err)
	}
	fresh := energy.NewProfile(w.m.Topology(), cfgs)
	s.ReplaceProfile(fresh)
	if s.Profile() != fresh {
		t.Fatal("profile not swapped")
	}
	if s.AdaptPending() != len(fresh.Stale(0, 0)) {
		t.Errorf("AdaptPending = %d, want all %d unevaluated entries queued",
			s.AdaptPending(), len(fresh.Stale(0, 0)))
	}
	// The next tick must not record into the old profile's entries.
	s.Tick(0.9, NoViolation)
	w.advance(time.Second)
	s.Tick(0.9, NoViolation)
}

// The baseline governor hands clock control back to the hardware and
// keeps every thread active.
func TestBaselineStartStop(t *testing.T) {
	w := newWorld(0.5)
	b := NewBaseline(w.m)
	b.Start()
	topo := w.m.Topology()
	for s := 0; s < topo.Sockets; s++ {
		if got := w.m.Requested(s).ActiveThreads(); got != topo.ThreadsPerSocket() {
			t.Errorf("socket %d: %d active threads, want all %d", s, got, topo.ThreadsPerSocket())
		}
	}
	b.Stop() // no-op, must not panic
}
