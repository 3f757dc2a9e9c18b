package sim

import (
	"fmt"
	"time"

	"ecldb/internal/perfmodel"
	"ecldb/internal/units"
)

// This file holds the discrete-event run loop, the production loop:
// instead of inspecting every 1 ms quantum for boundaries (sample due?
// switch due? idle window ahead?), the loop pops the next scheduled event
// from a deterministic priority queue and jumps the simulation to it.
// Quanta between events fall into two classes:
//
//   - Active quanta (queries in flight, load offered, or workers carrying
//     debt) run the full per-quantum body — identical, statement for
//     statement, to the reference walk's (runQuanta).
//   - Quiescent stretches (engine empty, zero offered load) fast-forward:
//     idle sockets skip the engine entirely (the macro-step), and
//     active-but-workless sockets run Engine.IdleQuantum plus a constant
//     activity set, replicating the full path's per-quantum arithmetic
//     without its hub and budget scans. Where the machine proves a
//     stretch constant-state it integrates it in closed form
//     (hw.Machine.StepStretch).
//
// Closed-form stretches regroup float sums, so through quiescent windows
// results agree with the reference walk within 1e-9 relative (every
// integer observable bit-identical); on a profile that never quiesces
// the two are bit-identical (TestStepPathsByteIdentical proves both).

// gridCeil rounds an instant up to the quantum grid: the profile time of
// the first run-loop iteration at or after x. Duration division is exact
// integer math.
func gridCeil(x, q time.Duration) time.Duration {
	return (x + q - 1) / q * q
}

// runEvents executes the load profile on the event scheduler. It must
// record, count, and integrate exactly what runQuanta would.
func (s *Sim) runEvents(dur time.Duration) error {
	q := s.opts.Quantum
	hook := s.opts.Hook
	eq := &s.events
	switched := false

	// The spine: the end of the run, the first trace-sample boundary
	// (each firing schedules its successor), and the workload switch.
	eq.push(dur, evEnd)
	eq.push(0, evSample)
	if s.opts.SwitchAt > 0 && s.opts.SwitchTo != nil {
		eq.push(s.opts.SwitchAt, evSwitch)
	}

	t := time.Duration(0) // profile time of the next unstepped quantum
	lastSampled := time.Duration(-1)
	for {
		at, kind, ok := eq.pop()
		if !ok {
			return fmt.Errorf("sim: event queue drained before the end event")
		}
		switch kind {
		case evEnd:
			return s.advanceTo(&t, dur, &switched)
		case evSwitch:
			// Re-synchronize at the switch instant: advancing to the
			// switch's grid point makes the next advanceTo iteration
			// perform the switch at its top, exactly where the quantum
			// loop checks it. (Stretches are bounded by SwitchAt, so the
			// grind top is guaranteed to see it.)
			T := gridCeil(at, q)
			if T > dur {
				T = dur
			}
			if err := s.advanceTo(&t, T, &switched); err != nil {
				return err
			}
		case evSample:
			// The quantum loop samples at the bottom of the first
			// iteration T >= boundary, after stepping T's quantum.
			T := gridCeil(at, q)
			if T <= lastSampled {
				// Sub-quantum sample periods: at most one sample fires
				// per iteration, so a boundary already covered by the
				// last sampled quantum fires at the next one.
				T = lastSampled + q
			}
			if T >= dur {
				// Never reached inside the loop; the final sample(dur)
				// in Run covers the tail, as in the quantum loop.
				continue
			}
			if err := s.advanceTo(&t, T+q, &switched); err != nil {
				return err
			}
			s.sample(T)
			lastSampled = T
			if hook != nil {
				hook.OnSample(s.clock.Now())
			}
			eq.push(at+s.opts.SampleEvery, evSample)
		case evAdmission:
			// Pushed by the stretch planner when it discovers the next
			// nonzero-load instant; by the time it pops, advanceTo has
			// already ground through it. It exists so the queue remains
			// the arbiter of every scheduled occurrence.
		}
	}
}

// advanceTo advances the run from *t (a grid point) to target: every
// quantum in [*t, target) is either stepped by the full per-quantum body
// or covered by a quiescent fast-forward stretch. On return *t == target
// (grid-aligned targets; a target inside a quantum steps that whole
// quantum, as the quantum loop does at the profile's tail).
func (s *Sim) advanceTo(t *time.Duration, target time.Duration, switched *bool) error {
	q := s.opts.Quantum
	hook := s.opts.Hook
	for *t < target {
		if !*switched && s.opts.SwitchAt > 0 && *t >= s.opts.SwitchAt && s.opts.SwitchTo != nil {
			if err := s.engine.SwitchWorkload(s.opts.SwitchTo); err != nil {
				return err
			}
			*switched = true
		}
		if k, idle := s.stretchQuantaFrom(*t, target, *switched); k > 1 {
			if idle {
				s.macroStep(k)
				*t += time.Duration(k) * q
			} else {
				done := s.stretchStep(k)
				*t += time.Duration(done) * q
			}
			continue
		}
		now := s.clock.Now()
		if err := s.engine.OfferLoad(units.HertzOf(s.opts.Load.QPS(*t)), q, now); err != nil {
			return err
		}
		s.step(q)
		if hook != nil {
			hook.OnQuantum(s.clock.Now())
		}
		*t += q
	}
	return nil
}

// stretchQuantaFrom plans a quiescent fast-forward from grid point t: it
// returns how many consecutive quanta are provably workless (engine
// quiescent, zero offered load throughout) and whether every socket is
// also configured idle (licensing the engine-skipping macro-step instead
// of the IdleQuantum stretch). 0 or 1 means "grind". The window is
// licensed only when every quantum it replaces would provably do nothing
// the fast-forward does not reproduce: a pending workload switch caps the
// span; a clock task deadline D may mutate any state, so the last quantum
// may at most end at D (a task exactly at the end fires with the machine
// in the identical state); and — for the idle macro only, where no
// per-quantum epoch check runs — a pending settle at instant A changes
// the configuration read at quantum starts, so quantum starts stay before
// A. The active stretch needs no settle bound: stretchStep re-checks the
// configuration epochs after every quantum and bails out the moment one
// moves.
func (s *Sim) stretchQuantaFrom(t, target time.Duration, switched bool) (int, bool) {
	if !s.engine.Quiescent() {
		return 0, false
	}
	q := s.opts.Quantum
	span := target - t
	if !switched && s.opts.SwitchAt > 0 && s.opts.SwitchTo != nil {
		if sp := s.opts.SwitchAt - t; sp < span {
			span = sp
		}
	}
	if span < 2*q {
		return 0, false
	}
	k := int((span + q - 1) / q)
	now := s.clock.Now()
	if d, ok := s.clock.NextDeadline(); ok {
		if kd := int((d - now) / q); kd < k {
			k = kd
		}
	}
	// No early exit: the scan refreshes every socket's kernel, which the
	// active stretch replays.
	idle := true
	for sock := 0; sock < s.topo.Sockets; sock++ {
		if !s.socketIdle(sock) {
			idle = false
		}
	}
	if idle {
		if a, ok := s.machine.NextSettle(); ok {
			if ka := int((a - now + q - 1) / q); ka < k {
				k = ka
			}
		}
	}
	if k < 2 {
		return 0, false
	}
	// Admission discovery: scan the load profile along the quantum grid
	// for the first nonzero offer. Finding one inside the window turns it
	// into a scheduled admission event and caps the stretch before it.
	n := 0
	for n < k && s.opts.Load.QPS(t+time.Duration(n)*q) == 0 {
		n++
	}
	if n < k {
		s.events.push(t+time.Duration(n)*q, evAdmission)
	}
	if n < 2 {
		return 0, false
	}
	return n, idle
}

// kernelsFresh reports whether every socket's step kernel is still valid
// for the current machine and workload epochs — the per-quantum guard of
// the active stretch.
func (s *Sim) kernelsFresh() bool {
	we := s.engine.CharacteristicsEpoch()
	for sock := range s.kernels {
		k := &s.kernels[sock]
		if !k.valid || k.cfgEpoch != s.machine.StateEpoch(sock) || k.chEpoch != we {
			return false
		}
	}
	return true
}

// initStretch allocates the active stretch's reused buffers.
func (s *Sim) initStretch() {
	s.stretchActs = newZeroActs(s.topo)
	s.stretchEligible = make([]int, s.topo.Sockets)
	s.stretchActive = make([]int, s.topo.Sockets)
}

// stretchStep fast-forwards up to k quanta through an engine-quiescent
// window with active sockets: per quantum it runs Engine.IdleQuantum (the
// bookkeeping Step degenerates to), steps the machine under the constant
// spin-only activity the full path would compute, and advances the clock.
// It bails out early when any configuration or characteristics epoch
// moves (UFS decay, settle commits, throttle transitions — anything that
// would change the next quantum's activity), returning how many quanta it
// actually covered.
//
// Arithmetic identity with the ground path, term by term: the activity
// set below evaluates stepCached's expressions with every busy fraction
// and used-instruction count pinned to their provable zeros, and
// Engine.IdleQuantum reproduces Step's accounting adds (see its contract).
func (s *Sim) stretchStep(k int) int {
	if s.stretchActs == nil {
		s.initStretch()
	}
	q := s.opts.Quantum
	qs := q.Seconds()
	n := s.topo.ThreadsPerSocket()
	for sock := range s.kernels {
		kn := &s.kernels[sock]
		a := &s.stretchActs[sock]
		elig := 0
		nActive := 0
		firstActive := -1
		for lt := 0; lt < n; lt++ {
			a.Busy[lt] = 0
			a.Spin[lt] = 0
			a.Instr[lt] = 0
			if !kn.active[lt] {
				continue
			}
			nActive++
			if firstActive < 0 {
				firstActive = lt
			}
			// stepCached: spin = 1 - BusyFrac = 1 - 0; Instr = UsedInstr +
			// spin*SpinIPC*fGHz*1e9*qs = 0 + (positive product). Adding
			// zero terms to positive operands is exact, so the literals
			// below carry identical bits.
			a.Spin[lt] = 1
			a.Instr[lt] = 1 * perfmodel.SpinIPC * kn.fGHz[lt] * 1e9 * qs
			if kn.budget[lt] > 0 {
				elig++
			}
		}
		a.MemGBs = 0 // stats.MemBytes/1e9/qs with MemBytes == 0
		a.DynScale = kn.caps.DynScale
		if s.controller != nil && firstActive >= 0 {
			// The ECL overhead lands on a zero busy fraction: b = 0 +
			// Overhead(), clamped as in the full path.
			b := s.controller.Overhead()
			if b > 1 {
				b = 1
			}
			a.Busy[firstActive] = b
		}
		s.stretchEligible[sock] = elig
		s.stretchActive[sock] = nActive
	}
	done := 0
	for done < k {
		// Closed-form fast path: integrate the rest of the stretch in one
		// StepStretch call when its guards prove the whole span is
		// constant-state (no settle, below TDP, EET stable, UFS at its
		// decay fixed point). A guard bail grinds exactly one per-quantum
		// iteration — with the reference grouping and the per-quantum
		// epoch check — and retries, so drift resolves at quantum
		// granularity and batching re-engages the moment state stabilizes.
		now := s.clock.Now()
		if n := s.machine.StepStretch(k-done, q, s.stretchActs); n > 0 {
			span := time.Duration(n) * q
			s.engine.IdleStretch(now+q, q, n, s.stretchEligible, s.stretchActive)
			s.accrueIdleBaseline(span)
			s.advanceQuanta(n)
			s.settleStretchAttr(span)
			done += n
			s.batchQuanta += int64(n)
			// StepStretch's guards prove no machine epoch moved, and
			// IdleStretch cannot move the characteristics epoch, so the
			// kernels are still fresh.
			continue
		}
		s.engine.IdleQuantum(now+q, q, s.stretchEligible, s.stretchActive)
		s.machine.Step(q, s.stretchActs)
		s.accrueIdleBaseline(q)
		s.clock.Advance(q)
		s.settleStretchAttr(q)
		done++
		if s.opts.Hook != nil {
			s.opts.Hook.OnQuantum(s.clock.Now())
		}
		if !s.kernelsFresh() {
			break
		}
	}
	// Applied-configuration time, batched: the ground path adds one
	// quantum per step per non-idle socket; Duration sums are exact
	// integers, so the batched add is identical.
	if s.controller != nil {
		for i := range s.kernels {
			if !s.kernels[i].idle {
				s.kernels[i].timeAcc += time.Duration(done) * q
			}
		}
	}
	s.stretchWindows++
	return done
}
