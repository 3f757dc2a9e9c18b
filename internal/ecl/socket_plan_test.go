package ecl

import (
	"testing"
	"time"

	"ecldb/internal/hw"
)

// planDuration sums a plan's segment durations.
func planDuration(plan []segment) time.Duration {
	var d time.Duration
	for _, seg := range plan {
		d += seg.dur
	}
	return d
}

// Every plan covers exactly one interval, regardless of demand, latency
// pressure, or adaptation backlog.
func TestPlanCoversInterval(t *testing.T) {
	w := newWorld(1.0)
	s := prewarmedECL(t, w, MaintainMultiplexed)
	cases := []struct {
		util float64
		ttv  time.Duration
	}{
		{1.0, NoViolation}, {1.0, 0}, {0.5, NoViolation},
		{0.1, NoViolation}, {0.5, time.Second}, {0.9, 5 * time.Second},
	}
	for _, c := range cases {
		s.Tick(c.util, c.ttv)
		if got := planDuration(s.plan); got != s.opts.Interval {
			t.Errorf("util=%v ttv=%v: plan covers %v, want %v", c.util, c.ttv, got, s.opts.Interval)
		}
		for _, seg := range s.plan {
			if seg.dur <= 0 {
				t.Errorf("util=%v ttv=%v: non-positive segment %v", c.util, c.ttv, seg.dur)
			}
			if err := seg.cfg.Validate(w.m.Topology()); err != nil {
				t.Errorf("invalid segment config: %v", err)
			}
		}
		w.advance(100 * time.Millisecond)
	}
}

// RTI duty stays within (0, 1] and cycle idle stretches respect the
// latency limit.
func TestRTIBounds(t *testing.T) {
	w := newWorld(1.0)
	s := prewarmedECL(t, w, MaintainNone)
	s.Tick(1.0, NoViolation)
	w.advance(time.Second)
	for _, util := range []float64{0.6, 0.4, 0.25, 0.12} {
		s.Tick(util, NoViolation)
		w.advance(time.Second)
		active, duty, cycles := s.RTI()
		if !active {
			continue
		}
		if duty <= 0 || duty > 1 {
			t.Errorf("util %v: duty %v out of range", util, duty)
		}
		if cycles < 1 {
			t.Errorf("util %v: cycles %d", util, cycles)
		}
		// Idle stretch bound: cycle length <= limit/3.
		cycleLen := s.opts.Interval / time.Duration(cycles)
		if cycleLen > s.opts.LatencyLimit/3+s.opts.Interval/50 {
			t.Errorf("util %v: cycle %v exceeds latency-limit bound", util, cycleLen)
		}
	}
}

// Under sustained violation at full utilization, the safety valve ramps
// the socket to the full configuration.
func TestSafetyValveAllMax(t *testing.T) {
	w := newWorld(1.0)
	s := prewarmedECL(t, w, MaintainNone)
	for i := 0; i < 4; i++ {
		s.Tick(1.0, 0)
		w.advance(time.Second)
	}
	req := w.m.Requested(0)
	topo := w.m.Topology()
	if req.ActiveThreads() != topo.ThreadsPerSocket() {
		t.Errorf("safety valve config = %s, want all threads", req)
	}
	if req.UncoreMHz != hw.MaxUncoreMHz {
		t.Errorf("safety valve uncore = %d, want max", req.UncoreMHz)
	}
}

// A confirmed workload change rescales the stale profile by the observed
// measurement ratio so configuration ranking stays sane.
func TestDriftRescalesStaleEntries(t *testing.T) {
	w := newWorld(1.0)
	s := prewarmedECL(t, w, MaintainOnline)
	// Pretend the stored profile is from a workload twice as fast:
	// double every score. Steady measurement of the applied entry will
	// repeatedly see ~half the stored score (drift), and after two hits
	// the stale entries snap back by the observed ratio.
	for _, e := range s.Profile().Entries() {
		if e.Evaluated && !e.Config.Idle() {
			e.Score *= 2
		}
	}
	witness := s.Profile().Entries()[10] // some entry the loop won't apply
	if witness.Config.Idle() || !witness.Evaluated {
		t.Fatal("bad witness choice")
	}
	before := witness.Score
	for i := 0; i < 8; i++ {
		s.Tick(0.9, 3*time.Second/2) // steady, no RTI, measurable
		w.advance(time.Second)
	}
	after := witness.Score
	ratio := after.Div(before)
	if ratio > 0.75 || ratio < 0.3 {
		t.Errorf("stale witness rescaled by %.2f, want ~0.5", ratio)
	}
}

// The adaptation budget shrinks with utilization headroom: a nearly full
// socket gets no multiplexed windows.
func TestAdaptationThrottledByHeadroom(t *testing.T) {
	w := newWorld(1.0)
	s := prewarmedECL(t, w, MaintainMultiplexed)
	s.adaptQueue = s.Profile().Stale(w.clock.Now(), 0)
	queued := len(s.adaptQueue)
	// High utilization: no windows may be planned.
	s.Tick(1.0, NoViolation)
	w.advance(time.Second)
	s.Tick(0.97, NoViolation)
	if s.AdaptPending() != queued {
		t.Errorf("adaptation ran at 97%% utilization: %d left of %d", s.AdaptPending(), queued)
	}
	// With headroom, windows run.
	for i := 0; i < 4; i++ {
		s.Tick(0.4, NoViolation)
		w.advance(time.Second)
	}
	if s.AdaptPending() >= queued {
		t.Error("adaptation did not progress despite headroom")
	}
}

// Demand never goes negative and never exceeds the profile cap.
func TestDemandBounds(t *testing.T) {
	w := newWorld(1.0)
	s := prewarmedECL(t, w, MaintainNone)
	max := s.Profile().MaxScore()
	utils := []float64{1, 0, 1, 1, 1, 0.001, 1, 0.5, 1, 1, 1, 1}
	ttvs := []time.Duration{NoViolation, 0, 0, NoViolation, time.Second, NoViolation,
		0, 0, NoViolation, NoViolation, 0, time.Millisecond}
	for i := range utils {
		s.Tick(utils[i], ttvs[i])
		w.advance(time.Second)
		if d := s.Demand(); d < 0 || d > max*1.25+1 {
			t.Fatalf("step %d: demand %g outside [0, %g]", i, d, max*1.25)
		}
	}
}
