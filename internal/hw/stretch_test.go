package hw

import (
	"math/rand"
	"testing"
	"time"

	"ecldb/internal/units"
)

// ---- boundaryTime properties --------------------------------------------

// TestBoundaryTimeStrictlyMonotone checks the property the closed-form
// boundary index relies on: with jitter capped at raplJitterFrac < 0.5 of
// the period, consecutive refresh instants are strictly increasing for
// any salt.
func TestBoundaryTimeStrictlyMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		salt := rng.Uint64()
		start := int64(rng.Intn(1_000_000))
		prev := boundaryTime(start, salt)
		for k := start + 1; k < start+500; k++ {
			b := boundaryTime(k, salt)
			if b <= prev {
				t.Fatalf("salt %#x: boundaryTime(%d)=%v <= boundaryTime(%d)=%v",
					salt, k, b, k-1, prev)
			}
			prev = b
		}
	}
}

// TestBoundaryTimeJitterBounded checks that every refresh instant stays
// within raplJitterFrac of its nominal grid point.
func TestBoundaryTimeJitterBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	maxJitter := time.Duration(raplJitterFrac * float64(raplUpdatePeriod))
	for trial := 0; trial < 200; trial++ {
		salt := rng.Uint64()
		for i := 0; i < 500; i++ {
			k := int64(rng.Intn(10_000_000))
			nominal := time.Duration(k) * raplUpdatePeriod
			d := boundaryTime(k, salt) - nominal
			if d < -maxJitter || d > maxJitter {
				t.Fatalf("salt %#x: boundaryTime(%d) jitter %v exceeds ±%v", salt, k, d, maxJitter)
			}
		}
	}
}

// TestLastBoundaryAtOrBeforeMatchesLinearWalk checks the closed-form
// index computation against the obvious linear walk from index zero, over
// random window ends and salts.
func TestLastBoundaryAtOrBeforeMatchesLinearWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		salt := rng.Uint64()
		end := time.Duration(rng.Int63n(int64(200 * raplUpdatePeriod)))
		if trial%5 == 0 {
			// Land some ends exactly on refresh instants: the contract
			// is "at or before", so exact hits must be included.
			end = boundaryTime(int64(rng.Intn(200)), salt)
		}
		want := int64(-1)
		for boundaryTime(want+1, salt) <= end {
			want++
		}
		if got := lastBoundaryAtOrBefore(end, salt); got != want {
			t.Fatalf("salt %#x end %v: lastBoundaryAtOrBefore=%d, linear walk=%d",
				salt, end, got, want)
		}
	}
}

// TestIntegrateStretchMatchesLinearWalk checks the production stretch
// integrator against its definition, the per-quantum walk — n integrate
// calls, one quantum each — bit for bit (trueNJ, snapNJ and nextIdx), over
// random salts, counter states, window starts, quantum lengths and
// counts, including windows ending exactly on a refresh instant and
// starting nextIdx values both behind and ahead of the window.
func TestIntegrateStretchMatchesLinearWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 5000; trial++ {
		salt := rng.Uint64()
		t0 := time.Duration(rng.Int63n(int64(100 * raplUpdatePeriod)))
		q := time.Duration(1 + rng.Int63n(int64(3*raplUpdatePeriod)))
		n := 1 + rng.Intn(40)
		if trial%4 == 0 {
			// End exactly on a refresh instant after t0: "at or before"
			// must include it, and the snapshot lands on a quantum end.
			k := int64(t0/raplUpdatePeriod) + 1 + rng.Int63n(20)
			q = boundaryTime(k, salt) - t0
			n = 1
			if rng.Intn(2) == 0 && q%2 == 0 {
				q, n = q/2, 2
			}
		}
		// The counter's next boundary normally lies just past t0, but
		// the integrator must not rely on it: start it anywhere from
		// well behind the window to beyond its end.
		next := int64(t0/raplUpdatePeriod) + rng.Int63n(30) - 8
		if next < 0 {
			next = 0
		}
		start := raplCounter{
			trueNJ:  rng.Int63n(1e13),
			snapNJ:  rng.Int63n(1e13),
			nextIdx: next,
		}
		powerW := units.WattsOf(rng.Float64() * 200)
		got, want := start, start
		added := got.integrateStretch(t0, q, n, powerW, salt)
		var walked int64
		for i := 0; i < n; i++ {
			walked += want.integrate(t0+time.Duration(i)*q, q, powerW, salt)
		}
		if got != want || added != walked {
			t.Fatalf("salt %#x t0 %v q %v n %d from %+v: integrateStretch %+v (+%d), walk %+v (+%d)",
				salt, t0, q, n, start, got, added, want, walked)
		}
	}
}

// ---- StepStretch guard bails --------------------------------------------

// machineObservables snapshots every accumulator and observable of the
// two-socket test machine: what a bailing StepStretch must leave
// untouched, and what a committed one must leave bit-identical to the
// per-quantum walk.
type machineObservables struct {
	now                 time.Duration
	pkgJ, dramJ         [2]units.Joule
	readPkg, readDram   [2]units.Joule
	active, idle, sleep [2]float64
	instr               [2]float64
	epoch               [2]uint64
	throttle            [2]float64
	turboNJ             [2]int64
	psuJ                units.Joule
	lastPkg, lastDram   [2]units.Watt
	lastPSU             units.Watt
	threadInstr         [48]float64
}

func observeMachine(m *Machine) machineObservables {
	var o machineObservables
	o.now = m.Now()
	for s := 0; s < m.Topology().Sockets; s++ {
		o.pkgJ[s] = m.TrueEnergy(s, DomainPackage)
		o.dramJ[s] = m.TrueEnergy(s, DomainDRAM)
		o.readPkg[s] = m.ReadEnergy(s, DomainPackage)
		o.readDram[s] = m.ReadEnergy(s, DomainDRAM)
		o.active[s], o.idle[s], o.sleep[s] = m.Residency(s)
		o.instr[s] = m.SocketInstructions(s)
		o.epoch[s] = m.StateEpoch(s)
		o.throttle[s] = m.ThrottleFactor(s)
		o.turboNJ[s] = m.turboBudget[s]
	}
	o.psuJ = m.PSUEnergy()
	pkg, dram, psu := m.LastPower()
	copy(o.lastPkg[:], pkg)
	copy(o.lastDram[:], dram)
	o.lastPSU = psu
	for gt := range o.threadInstr {
		o.threadInstr[gt] = m.ReadInstructions(gt)
	}
	return o
}

// requireBailUntouched asserts StepStretch returns 0 and mutates nothing.
func requireBailUntouched(t *testing.T, m *Machine, n int, q time.Duration, acts []SocketActivity, why string) {
	t.Helper()
	before := observeMachine(m)
	if got := m.StepStretch(n, q, acts); got != 0 {
		t.Fatalf("%s: StepStretch = %d, want 0 (guard bail)", why, got)
	}
	if after := observeMachine(m); after != before {
		t.Fatalf("%s: bailing StepStretch mutated the machine:\n before %+v\n after  %+v", why, before, after)
	}
}

// settle commits the pending apply: one step to the settle instant and a
// short one past it (Step consumes a due pending at the start of the next
// call, so the second step is what clears it).
func settle(t *testing.T, m *Machine) {
	t.Helper()
	m.Step(ApplyLatency, idleActs(m))
	m.Step(time.Millisecond, idleActs(m))
}

// overTDPActs returns the activity recipe that pushes socket 0 above TDP
// under an AllMax configuration (the turbo-budget clamp test's load).
func overTDPActs(m *Machine) []SocketActivity {
	acts := idleActs(m)
	for i := range acts[0].Busy {
		acts[0].Busy[i] = 1
	}
	acts[0].DynScale = 1.3
	acts[0].MemGBs = PeakBandwidthGBs
	return acts
}

func TestStepStretchBailsOnPendingApply(t *testing.T) {
	m := newTestMachine()
	cfg := NewConfiguration(m.Topology())
	cfg.Threads[0] = true
	if err := m.Apply(0, cfg); err != nil {
		t.Fatal(err)
	}
	// The apply settles at ApplyLatency; a stretch ending beyond it must
	// bail.
	requireBailUntouched(t, m, 4, ApplyLatency/2, idleActs(m), "apply inside stretch")
	// A stretch ending exactly at the settle instant batches: the
	// per-quantum path would not have committed it inside the stretch
	// either.
	if got := m.StepStretch(2, ApplyLatency/2, idleActs(m)); got != 2 {
		t.Fatalf("StepStretch ending at the settle instant = %d, want 2", got)
	}
}

func TestStepStretchBailsOnTDPExceedingPower(t *testing.T) {
	m := newTestMachine()
	if err := m.Apply(0, AllMax(m.Topology())); err != nil {
		t.Fatal(err)
	}
	settle(t, m)
	acts := overTDPActs(m)
	// Sanity: this activity really draws more than TDP.
	m.Step(time.Millisecond, acts)
	if pkg, _, _ := m.LastPower(); pkg[0] <= m.Params().TDPWatts {
		t.Fatalf("test activity draws %v W, need > TDP %v W", pkg[0], m.Params().TDPWatts)
	}
	requireBailUntouched(t, m, 10, time.Millisecond, acts, "above-TDP power")
}

func TestStepStretchBailsOnThrottle(t *testing.T) {
	m := newTestMachine()
	if err := m.Apply(0, AllMax(m.Topology())); err != nil {
		t.Fatal(err)
	}
	settle(t, m)
	acts := overTDPActs(m)
	for i := 0; i < 60; i++ {
		m.Step(100*time.Millisecond, acts)
	}
	if f := m.ThrottleFactor(0); f >= 1 {
		t.Fatalf("machine not throttled after budget drain (factor %v)", f)
	}
	// Even workless quanta must grind while a throttle factor is not 1:
	// limitPower may transition it back, bumping the epoch.
	requireBailUntouched(t, m, 10, time.Millisecond, idleActs(m), "throttle != 1")
}

func TestStepStretchBailsOnAutoUFSDrift(t *testing.T) {
	m := newTestMachine()
	m.SetAutoUFS(true)
	cfg := NewConfiguration(m.Topology())
	for i := range cfg.Threads {
		cfg.Threads[i] = true
	}
	if err := m.Apply(0, cfg); err != nil {
		t.Fatal(err)
	}
	settle(t, m)
	busy := idleActs(m)
	for i := range busy[0].Busy {
		busy[0].Busy[i] = 1
	}
	m.Step(10*time.Millisecond, busy)
	if got := m.Effective(0).UncoreMHz; got != MaxUncoreMHz {
		t.Fatalf("uncore = %d after load, want %d", got, MaxUncoreMHz)
	}
	// Idle activity decays the fractional UFS state every quantum: a
	// stretch would skip that drift, so StepStretch must grind.
	requireBailUntouched(t, m, 10, time.Millisecond, idleActs(m), "auto-UFS decay")
	// Under full load the governor pins the uncore at its maximum — a
	// fixed point of ufsNext — and the same machine batches fine (only
	// socket 0 has threads, so its power stays under TDP).
	if got := m.StepStretch(10, time.Millisecond, busy); got != 10 {
		t.Fatalf("StepStretch at the UFS fixed point = %d, want 10", got)
	}
}

func TestStepStretchBailsOnEETEngagement(t *testing.T) {
	m := newTestMachine()
	m.SetEPB(EPBBalanced)
	cfg := NewConfiguration(m.Topology())
	cfg.Threads[0] = true
	cfg.CoreMHz[0] = TurboMHz
	if err := m.Apply(0, cfg); err != nil {
		t.Fatal(err)
	}
	settle(t, m)
	// The energy-efficient turbo engages EETDelay after the request: a
	// stretch spanning that instant sees different engaged counts at its
	// first and last quantum tops.
	n := int(2 * EETDelay / time.Millisecond)
	requireBailUntouched(t, m, n, time.Millisecond, idleActs(m), "EET engagement inside stretch")
	// Under the performance bias there is no delayed engagement and the
	// same stretch batches.
	m.SetEPB(EPBPerformance)
	if got := m.StepStretch(n, time.Millisecond, idleActs(m)); got != n {
		t.Fatalf("StepStretch under EPBPerformance = %d, want %d; EET guard must not apply", got, n)
	}
}

// ---- StepStretch vs per-quantum equivalence -----------------------------

// TestStepStretchMatchesPerQuantum runs the same constant-state stretch
// through StepStretch and through n per-quantum Steps on an identical
// twin: every accumulator and observable must be bit-identical
// (DESIGN.md §16).
func TestStepStretchMatchesPerQuantum(t *testing.T) {
	build := func() (*Machine, []SocketActivity) {
		m := newTestMachine()
		cfg := NewConfiguration(m.Topology())
		for i := 0; i < 4; i++ {
			cfg.Threads[i] = true
			cfg.CoreMHz[i] = MinCoreMHz + 2*FreqStepMHz
		}
		if err := m.Apply(0, cfg); err != nil {
			t.Fatal(err)
		}
		settle(t, m)
		acts := idleActs(m)
		for i := 0; i < 4; i++ {
			acts[0].Spin[i] = 1
			acts[0].Instr[i] = 2.5e6
		}
		acts[0].Busy[0] = 0.02
		acts[0].MemGBs = 3.5
		return m, acts
	}
	const n, q = 500, time.Millisecond

	batched, acts := build()
	if got := batched.StepStretch(n, q, acts); got != n {
		t.Fatalf("StepStretch = %d, want %d (guards unexpectedly failed)", got, n)
	}
	ground, acts2 := build()
	for i := 0; i < n; i++ {
		ground.Step(q, acts2)
	}
	if a, b := observeMachine(batched), observeMachine(ground); a != b {
		t.Fatalf("stretch diverged from the per-quantum walk:\n batched %+v\n ground  %+v", a, b)
	}
}

// TestStepStretchMatchesPerQuantumRandomized is the property behind the
// closed form: for random stretch lengths, quantum lengths, power draws,
// TDP headroom, turbo-budget clamp states and starting RAPL refresh
// phases, StepStretch(n) leaves the machine bit-identical to n Step
// calls on a twin, through every accessor.
func TestStepStretchMatchesPerQuantumRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		seed := rng.Int63()
		topo := HaswellEP()
		cfgs := make([]Configuration, topo.Sockets)
		acts := idleActs(NewMachine(topo, DefaultPowerParams(), seed))
		for s := range cfgs {
			cfgs[s] = NewConfiguration(topo)
			active := rng.Intn(topo.ThreadsPerSocket() + 1)
			mhz := MinCoreMHz + rng.Intn(15)*FreqStepMHz
			for i := 0; i < active; i++ {
				cfgs[s].Threads[i] = true
				cfgs[s].CoreMHz[topo.CoreOfLocal(i)] = mhz
				acts[s].Busy[i] = rng.Float64()
				acts[s].Spin[i] = 1 - acts[s].Busy[i]
				acts[s].Instr[i] = rng.Float64() * 1e7
			}
			cfgs[s].UncoreMHz = MinUncoreMHz + rng.Intn(19)*FreqStepMHz
			acts[s].MemGBs = rng.Float64() * 40
			acts[s].DynScale = 0.8 + rng.Float64()*0.5
		}
		n := 2 + rng.Intn(2000)
		q := time.Duration(100_000 + rng.Int63n(int64(2*time.Millisecond)))
		warm := time.Duration(1 + rng.Int63n(int64(5*time.Millisecond)))
		budgetFrac := rng.Float64()
		headroom := rng.Float64() * 50
		noTDP := rng.Intn(8) == 0
		build := func() *Machine {
			m := NewMachine(topo, DefaultPowerParams(), seed)
			for s, c := range cfgs {
				if err := m.Apply(s, c); err != nil {
					t.Fatal(err)
				}
			}
			// Settle, then leave the RAPL refresh grid at a random
			// phase against the quantum grid.
			m.Step(ApplyLatency, idleActs(m))
			m.Step(warm, acts)
			pkg, _, _ := m.LastPower()
			m.pp.TDPWatts = units.WattsOf(headroom) + max(pkg[0], pkg[1])
			if noTDP {
				m.pp.TDPWatts = 0
			}
			for s := range m.turboBudget {
				m.turboBudget[s] = int64(budgetFrac * float64(m.turboMaxNJ))
			}
			return m
		}
		batched, ground := build(), build()
		if got := batched.StepStretch(n, q, acts); got != n {
			t.Fatalf("trial %d: StepStretch = %d, want %d (guards unexpectedly failed)", trial, got, n)
		}
		for i := 0; i < n; i++ {
			ground.Step(q, acts)
		}
		if a, b := observeMachine(batched), observeMachine(ground); a != b {
			t.Fatalf("trial %d (n %d, q %v, warm %v, turbo %.3f, headroom %.1f W): stretch diverged from the walk:\n batched %+v\n ground  %+v",
				trial, n, q, warm, budgetFrac, headroom, a, b)
		}
	}
}

// ---- LastPowerInto ------------------------------------------------------

func TestLastPowerIntoMatchesLastPowerWithoutAllocating(t *testing.T) {
	m := newTestMachine()
	if err := m.Apply(0, AllMax(m.Topology())); err != nil {
		t.Fatal(err)
	}
	settle(t, m)

	pkg, dram, psu := m.LastPower()
	sockets := m.Topology().Sockets
	gotPkg := make([]units.Watt, sockets)
	gotDram := make([]units.Watt, sockets)
	psu2 := m.LastPowerInto(gotPkg, gotDram)
	for s := 0; s < sockets; s++ {
		if gotPkg[s] != pkg[s] || gotDram[s] != dram[s] {
			t.Fatalf("socket %d: LastPowerInto %v/%v vs LastPower %v/%v", s, gotPkg[s], gotDram[s], pkg[s], dram[s])
		}
	}
	if psu2 != psu {
		t.Fatalf("PSU: LastPowerInto %v vs LastPower %v", psu2, psu)
	}

	if allocs := testing.AllocsPerRun(100, func() {
		m.LastPowerInto(gotPkg, gotDram)
	}); allocs != 0 {
		t.Fatalf("LastPowerInto allocates %.1f per call, want 0", allocs)
	}
}
