// Package serve is the live serving surface of the reproduction: it
// turns a running simulation into something you can *watch* — a
// Prometheus /metrics endpoint, a Server-Sent-Events stream of decision
// events, samples, and query spans, and an embedded single-file HTML
// dashboard — without perturbing the byte-deterministic core by a single
// bit.
//
// The package sits deliberately OUTSIDE the determinism fence (ecllint's
// layering rules pin this from both sides: no fence package may import
// net/http or internal/serve, and serve itself may use goroutines,
// channels, locks, and the wall clock). The boundary protocol is narrow:
//
//   - The simulation thread owns all mutable observability state. At
//     quantum boundaries sim calls the Publisher through sim.Options.Hook
//     (a structural interface — sim never imports this package).
//   - The Publisher deep-copies the obs registry/log/tracer (their
//     Snapshot APIs) while the sim thread is parked inside the hook, then
//     hands the immutable Snapshot to the HTTP side through a single
//     latest-wins channel.
//   - The HTTP side only ever reads snapshots. Nothing flows back.
//
// Pacing rides on the same hook: in paced mode the Publisher sleeps in
// OnSample, before each publish, until the wall clock catches up with
// virtual time, so a "3 minute" experiment can be watched in real time
// (or at any multiple). A viewer only ever sees published snapshots, so
// pacing at sample boundaries gives every snapshot the same wall
// placement a per-quantum pace would.
// Sleeping changes only wall-clock placement, never simulation state, so
// a served run's determinism digest is byte-identical to a headless run
// (TestServingBehaviorNeutral).
package serve

import (
	"time"

	"ecldb/internal/obs"
)

// Snapshot is one immutable cut of a run's observability state, taken at
// a quantum boundary on the simulation thread. Everything reachable from
// it is a deep copy: readers on any goroutine may hold it as long as
// they like.
type Snapshot struct {
	// Seq numbers snapshots from 1; the SSE stream exposes it so clients
	// can detect skipped publishes.
	Seq uint64
	// At is the virtual instant of the capture.
	At time.Duration
	// Done marks the final snapshot of a finished run.
	Done bool
	// Obs bundles the deep-copied event log, metrics registry, and (when
	// query tracing is attached) tracer.
	Obs *obs.Observer
}

// Publisher drives the boundary between the simulation thread and the
// HTTP side. It implements sim.StepHook structurally: wire it with
//
//	opts.Hook = pub        // sim.Options
//
// and consume Snapshots() from the serving goroutine.
type Publisher struct {
	ob *obs.Observer
	ch chan *Snapshot

	// pace is the virtual-to-wall speed ratio: 1 replays in real time,
	// 10 at ten times real time, 0 runs unpaced (max speed).
	pace float64

	seq uint64

	// wallStart and virtStart anchor pacing at the first sample; a zero
	// wallStart means no sample has been paced yet.
	wallStart time.Time
	virtStart time.Duration
}

// NewPublisher builds a publisher over the observer a simulation is wired
// with. It publishes at every trace sample of the run; pace <= 0 runs
// unpaced.
func NewPublisher(ob *obs.Observer, pace float64) *Publisher {
	return &Publisher{ob: ob, pace: pace, ch: make(chan *Snapshot, 1)}
}

// Snapshots returns the channel the publisher hands snapshots over. It
// carries at most one pending snapshot (latest wins) and is closed after
// the final, Done-marked snapshot of the run.
func (p *Publisher) Snapshots() <-chan *Snapshot { return p.ch }

// OnSample implements sim.StepHook: a snapshot is taken at every trace
// sample (when the gauges were just refreshed). In paced mode the
// simulation thread first parks until the wall clock catches up with the
// virtual clock. The wall anchor is set on the first sample, so prewarm
// (which runs before the loop) is never paced.
func (p *Publisher) OnSample(now time.Duration) {
	if p.pace > 0 {
		if p.wallStart.IsZero() {
			p.wallStart, p.virtStart = time.Now(), now
		}
		time.Sleep(time.Until(p.wallStart.Add(time.Duration(float64(now-p.virtStart) / p.pace))))
	}
	p.publish(now, false)
}

// OnDone implements sim.StepHook: it publishes the final snapshot and
// closes the channel.
func (p *Publisher) OnDone(now time.Duration) {
	p.publish(now, true)
	close(p.ch)
}

// publish deep-copies the observer — legal exactly here, on the parked
// simulation thread — and offers the snapshot latest-wins: if the HTTP
// side has not drained the previous one, it is displaced, never blocking
// the simulation on a slow consumer.
func (p *Publisher) publish(now time.Duration, done bool) {
	p.seq++
	snap := &Snapshot{Seq: p.seq, At: now, Done: done, Obs: p.ob.Snapshot()}
	for {
		select {
		case p.ch <- snap:
			return
		default:
			select {
			case <-p.ch:
			default:
			}
		}
	}
}
