// Package energyattr attributes the joules the hardware model integrates
// to the work that caused them: concurrently-resident queries, the
// control plane's own activity (its busy-poll loop, reconfiguration
// settle transitions, discovery measurement passes, RTI sleep windows),
// and an idle/asleep residual. The meter is fed from three layers —
// hw.Machine reports every integration term, dodb.Engine reports
// per-query work shares, ecl reports its planned control windows — and
// never reaches back into any of them: it sees only the units
// vocabulary.
//
// Conservation contract (DESIGN.md §17). Every accumulator is an integer
// count of nanojoules, as the machine's RAPL counters are. Accrue is
// called once per counter-integration site with exactly the nanojoules
// the machine adds to its true counters, so the meter's integrated total
// equals hw.Machine.TrueEnergy on every step path. Query and control
// shares are carved out of that total by Settle, each rounded down to a
// whole nanojoule per quantum, so they never claim more than the quantum
// integrated; the residual is *derived* — integrated minus attributed —
// so
//
//	attributed(queries) + attributed(control) + residual == integrated
//
// holds exactly per socket per domain, in integer arithmetic.
// TestStepPathsByteIdentical asserts both halves on both step paths.
//
// Attribution model. Each settle span (one machine step: a quantum, or a
// closed-form stretch of n quanta) splits each quantum's pending joules
// by virtual-time-weighted shares:
//
//   - Queries claim weight/active of the span, where weight is the sum of
//     per-message work shares (instructions executed over the thread's
//     full-quantum budget — at most 1 per active thread) and active is
//     the number of configured-active threads.
//   - The control loop's busy-poll overhead claims overhead/active (the
//     same constant the engine model charges against query capacity).
//   - Control windows (settle > discovery > RTI sleep, in that priority)
//     claim their time-overlap fraction of the remainder.
//   - Whatever is left — idle wait, deep sleep, spin slack — is residual.
//
// The meter also carries a frozen-baseline counterfactual: the power the
// machine would draw with every knob at maximum (the paper's race-to-idle
// strawman), characterized once at attach time from the same power model
// and advanced per span by linear interpolation between its spin-only and
// full-load operating points. EnergySaved is baseline minus measured —
// the paper's headline claim as a continuously observable quantity.
//
// Everything is deterministic: the meter does arithmetic on values the
// simulation already computes, allocates nothing on the accrual/settle
// paths after warm-up, and is nil-safe throughout (a nil *Meter no-ops).
package energyattr

import (
	"math"
	"time"

	"ecldb/internal/units"
)

// Energy domains, mirroring the machine's RAPL counters. The meter keeps
// them distinct so conservation is provable per domain, not just in sum.
const (
	DomainPackage = 0
	DomainDRAM    = 1
	NumDomains    = 2
)

// DomainName returns the exposition name of a domain index.
func DomainName(d int) string {
	if d == DomainDRAM {
		return "dram"
	}
	return "package"
}

// Kind classifies control-plane energy.
type Kind uint8

const (
	// KindLoop is the controller's always-on busy-poll overhead.
	KindLoop Kind = iota
	// KindSettle is a reconfiguration's hardware transition window.
	KindSettle
	// KindDiscovery is a measurement pass of the discovery mode.
	KindDiscovery
	// KindRTISleep is a planned idle window of the RTI mode.
	KindRTISleep
	numKinds
)

// String returns the exposition name of a control kind.
func (k Kind) String() string {
	switch k {
	case KindLoop:
		return "loop"
	case KindSettle:
		return "settle"
	case KindDiscovery:
		return "discovery"
	case KindRTISleep:
		return "rti-sleep"
	}
	return "unknown"
}

// ClassStats aggregates attributed energy per workload class.
type ClassStats struct {
	Name            string
	Queries         uint64
	Ops             uint64
	EnergyJ         units.Joule
	ViolatedQueries uint64
	ViolatedJ       units.Joule
	DroppedQueries  uint64
	DroppedJ        units.Joule
}

// EnergySpan is the energy companion of a traced QuerySpan: the joules a
// sampled query was attributed over its residency. Spans exist only for
// queries the tracer sampled, so their population matches the latency
// phase spans they join onto.
type EnergySpan struct {
	QID       uint64
	Class     string
	Submitted time.Duration
	Done      time.Duration
	Ops       int
	EnergyJ   units.Joule
	Violated  bool
}

// Reconfig is one audit-ledger record: a configuration's reign on a
// socket, with the energy measured under it and the frozen-baseline
// counterfactual over the same span. The running difference of the two
// columns is the "energy saved" series.
type Reconfig struct {
	Socket     int
	Key        string
	Start, End time.Duration
	MeasuredJ  units.Joule
	BaselineJ  units.Joule
}

// window is a registered control window on the virtual timeline.
type window struct {
	start, end time.Duration
}

// Per-query energy histogram: logarithmic buckets from 1 nJ to 10 kJ.
const (
	histMinExp    = -9
	histPerDecade = 16
	histDecades   = 13
	histBuckets   = histDecades*histPerDecade + 2 // + under/overflow
)

// socketState is the per-socket accounting. Every energy is a count of
// nanojoules.
type socketState struct {
	// integ mirrors the machine's true RAPL counters.
	integ [NumDomains]int64
	// pending is the portion of integ accrued since the last Settle.
	pending [NumDomains]int64
	// queries and ctl are the attributed carve-outs; the residual is
	// derived (integ − queries − Σctl) so the partition is exact.
	queries [NumDomains]int64
	ctl     [numKinds][NumDomains]int64

	// Registered control windows per kind, consumed in timeline order.
	win  [numKinds][]window
	head [numKinds]int

	// Frozen-baseline counterfactual operating points.
	hasBase         bool
	spinW           [NumDomains]units.Watt
	fullW           [NumDomains]units.Watt
	fullInstrPerSec float64
	baseNJ          int64
	// run0 marks the energy integrated before the attributed run window
	// opened (prewarm sweeps, governor start-up): the baseline
	// counterfactual only accrues inside the window, so the saved-energy
	// comparison must subtract what came before it.
	run0 int64

	// Open audit-ledger record for the currently reigning configuration.
	open      bool
	openKey   string
	openStart time.Duration
	open0     int64
	openBase0 int64
}

// Meter is the attribution accumulator. The zero value is not usable;
// construct with New. A nil *Meter is valid everywhere and no-ops.
type Meter struct {
	socks   []socketState
	classes []ClassStats
	spans   []EnergySpan
	ledger  []Reconfig
	hist    [histBuckets]uint64
	histN   uint64
}

// New creates a meter for the given socket count.
func New(sockets int) *Meter {
	return &Meter{socks: make([]socketState, sockets)}
}

// Enabled reports whether the meter is live; a nil meter is disabled.
func (m *Meter) Enabled() bool { return m != nil }

// Sockets returns the socket count the meter was sized for.
func (m *Meter) Sockets() int {
	if m == nil {
		return 0
	}
	return len(m.socks)
}

// Accrue mirrors one machine integration term: the package and DRAM
// nanojoules one integration segment (or closed-form stretch) added to a
// socket's RAPL counters, which is what makes Integrated equal to
// hw.Machine.TrueEnergy.
//
//ecllint:hotpath
func (m *Meter) Accrue(socket int, pkgNJ, dramNJ int64) {
	if m == nil {
		return
	}
	s := &m.socks[socket]
	s.integ[DomainPackage] += pkgNJ
	s.integ[DomainDRAM] += dramNJ
	s.pending[DomainPackage] += pkgNJ
	s.pending[DomainDRAM] += dramNJ
}

// AddWindow registers a control window on a socket's timeline. Windows
// of one kind must be registered in start order (the planners emit them
// that way); later settles consume them in timeline order.
func (m *Meter) AddWindow(socket int, k Kind, start, end time.Duration) {
	if m == nil || end <= start {
		return
	}
	s := &m.socks[socket]
	s.win[k] = append(s.win[k], window{start: start, end: end})
}

// CancelFrom drops the not-yet-elapsed portion of a socket's windows of
// one kind from the given instant on: a re-plan (or a superseding Apply)
// invalidates the windows its predecessor registered.
func (m *Meter) CancelFrom(socket int, k Kind, from time.Duration) {
	if m == nil {
		return
	}
	s := &m.socks[socket]
	ws := s.win[k]
	i := len(ws)
	for i > s.head[k] && ws[i-1].start >= from {
		i--
	}
	ws = ws[:i]
	if i > s.head[k] && ws[i-1].end > from {
		ws[i-1].end = from
	}
	s.win[k] = ws
}

// takeOverlap sums the overlap of kind-k windows with [start, end) and
// advances past fully consumed windows. Settle spans are contiguous and
// non-overlapping, so each window portion is counted exactly once.
func (s *socketState) takeOverlap(k Kind, start, end time.Duration) time.Duration {
	var ov time.Duration
	ws := s.win[k]
	h := s.head[k]
	for h < len(ws) {
		w := ws[h]
		if w.end <= start {
			h++
			continue
		}
		if w.start >= end {
			break
		}
		a, b := w.start, w.end
		if a < start {
			a = start
		}
		if b > end {
			b = end
		}
		ov += b - a
		if w.end > end {
			break
		}
		h++
	}
	s.head[k] = h
	if h == len(ws) && h > 0 {
		// Queue drained: rewind onto the same backing array so steady
		// state appends allocate nothing.
		s.win[k] = ws[:0]
		s.head[k] = 0
	}
	return ov
}

// Settle splits the joules accrued since the last settle on one socket
// across queries, control, and (implicitly) residual, for the n quanta of
// length q starting at start that were just integrated. A stretch of n
// quanta accrued n equal terms, so each quantum settles pending/n. active
// is the number of configured-active threads, weight the summed
// per-message query work shares (≤ active), and loop the controller's
// busy-poll overhead in thread units (0 when no controller runs). It
// returns the joules per unit of query weight, which the engine uses to
// distribute the query share to individual queries.
//
// Each carve-out is one quantum's share rounded down to a whole
// nanojoule, times n, so settling a stretch at once equals settling its
// quanta one by one. When a control window begins or ends inside the
// stretch its quanta claim different fractions, and they settle one by
// one.
//
//ecllint:hotpath
func (m *Meter) Settle(socket int, start, q time.Duration, n, active int, weight, loop float64) units.Joule {
	if m == nil {
		return 0
	}
	s := &m.socks[socket]
	pq := s.pending
	s.pending = [NumDomains]int64{}
	if q <= 0 || n <= 0 {
		return 0
	}
	for d := range pq {
		pq[d] /= int64(n)
	}
	var shareQ, shareLoop float64
	if active > 0 {
		a := float64(active)
		shareQ = weight / a
		if shareQ > 1 {
			shareQ = 1
		}
		shareLoop = loop / a
		if shareLoop > 1-shareQ {
			shareLoop = 1 - shareQ
		}
	}
	rem := 1 - shareQ - shareLoop
	end := start + time.Duration(n)*q
	if n == 1 || s.windowsUniform(start, end) {
		s.carve(pq, shareQ, shareLoop, rem, s.ctlFracs(start, end), int64(n))
	} else {
		for i := 0; i < n; i++ {
			a := start + time.Duration(i)*q
			s.carve(pq, shareQ, shareLoop, rem, s.ctlFracs(a, a+q), 1)
		}
	}
	if weight <= 0 || shareQ <= 0 {
		return 0
	}
	return units.NanojoulesOf(pq[DomainPackage] + pq[DomainDRAM]).Scale(shareQ / weight)
}

// windowsUniform reports whether no control window begins or ends
// strictly inside [start, end): every window then covers all of the span
// or none of it, so every quantum of the span claims the same fractions.
func (s *socketState) windowsUniform(start, end time.Duration) bool {
	for k := range s.win {
		for _, w := range s.win[k][s.head[k]:] {
			if w.start >= end {
				break
			}
			if w.start > start || w.end > start && w.end < end {
				return false
			}
		}
	}
	return true
}

// ctlFracs consumes the control windows overlapping [start, end) and
// returns each kind's time-overlap fraction of the span, in priority
// order (settle > discovery > RTI sleep); the fractions are made disjoint
// by clamping against what earlier kinds already claimed.
func (s *socketState) ctlFracs(start, end time.Duration) [numKinds]float64 {
	var f [numKinds]float64
	left := 1.0
	for _, k := range [...]Kind{KindSettle, KindDiscovery, KindRTISleep} {
		fk := float64(s.takeOverlap(k, start, end)) / float64(end-start)
		if fk > left {
			fk = left
		}
		f[k] = fk
		left -= fk
	}
	return f
}

// carve adds n quanta's carve-outs: queries claim shareQ of each
// quantum's pending nanojoules, the busy-poll loop shareLoop, and each
// control window its fraction of the remainder, each rounded down.
func (s *socketState) carve(pq [NumDomains]int64, shareQ, shareLoop, rem float64, ctlFrac [numKinds]float64, n int64) {
	for d, e := range pq {
		s.queries[d] += n * share(e, shareQ)
		s.ctl[KindLoop][d] += n * share(e, shareLoop)
		for k := KindSettle; k < numKinds; k++ {
			s.ctl[k][d] += n * share(e, ctlFrac[k]*rem)
		}
	}
}

// share is the fraction f of nj nanojoules, rounded down.
func share(nj int64, f float64) int64 { return int64(float64(nj) * f) }

// FlushPending opens the attributed run window: unsettled accruals from
// before it (prewarm, capacity probing) are discarded into the residual —
// they stay counted in Integrated but are attributed to nobody, and the
// derived residual absorbs them with no further bookkeeping — and the
// per-socket window mark is set so the saved-energy comparison spans
// exactly what the baseline counterfactual does.
func (m *Meter) FlushPending() {
	if m == nil {
		return
	}
	for i := range m.socks {
		s := &m.socks[i]
		s.pending = [NumDomains]int64{}
		s.run0 = s.integ[DomainPackage] + s.integ[DomainDRAM]
	}
}

// SetBaseline freezes a socket's counterfactual operating points: the
// power the machine draws at the maximum configuration when fully loaded
// and when merely spinning, plus the instruction rate a full load
// sustains. AccrueBaseline interpolates between the two on utilization.
func (m *Meter) SetBaseline(socket int, spinPkgW, spinDramW, fullPkgW, fullDramW units.Watt, fullInstrPerSec float64) {
	if m == nil {
		return
	}
	s := &m.socks[socket]
	s.hasBase = true
	s.spinW[DomainPackage] = spinPkgW
	s.spinW[DomainDRAM] = spinDramW
	s.fullW[DomainPackage] = fullPkgW
	s.fullW[DomainDRAM] = fullDramW
	s.fullInstrPerSec = fullInstrPerSec
}

// HasBaseline reports whether any socket has a frozen baseline.
func (m *Meter) HasBaseline() bool {
	if m == nil {
		return false
	}
	for i := range m.socks {
		if m.socks[i].hasBase {
			return true
		}
	}
	return false
}

// AccrueBaseline advances a socket's counterfactual accumulator over n
// quanta of length q: in each, the always-max machine would have spent
// the interpolated power for the work actually done (usedInstr
// instructions per quantum), spinning away the rest of the quantum.
//
//ecllint:hotpath
func (m *Meter) AccrueBaseline(socket int, usedInstr float64, q time.Duration, n int) {
	if m == nil {
		return
	}
	s := &m.socks[socket]
	if !s.hasBase || q <= 0 {
		return
	}
	util := 0.0
	if full := s.fullInstrPerSec * q.Seconds(); full > 0 && usedInstr > 0 {
		util = usedInstr / full
		if util > 1 {
			util = 1
		}
	}
	pw := s.spinW[DomainPackage] + (s.fullW[DomainPackage] - s.spinW[DomainPackage]).Scale(util)
	dw := s.spinW[DomainDRAM] + (s.fullW[DomainDRAM] - s.spinW[DomainDRAM]).Scale(util)
	s.baseNJ += int64(n) * (pw.NanojoulesOver(q) + dw.NanojoulesOver(q))
}

// NoteReconfig closes the reigning configuration's ledger record on a
// socket and opens one for the configuration taking over at the given
// instant.
func (m *Meter) NoteReconfig(socket int, key string, at time.Duration) {
	if m == nil {
		return
	}
	s := &m.socks[socket]
	m.closeOpen(s, socket, at)
	s.open = true
	s.openKey = key
	s.openStart = at
	s.open0 = s.integ[DomainPackage] + s.integ[DomainDRAM]
	s.openBase0 = s.baseNJ
}

// closeOpen appends the closed record for a socket's open reign, if any.
func (m *Meter) closeOpen(s *socketState, socket int, at time.Duration) {
	if !s.open {
		return
	}
	m.ledger = append(m.ledger, Reconfig{
		Socket:    socket,
		Key:       s.openKey,
		Start:     s.openStart,
		End:       at,
		MeasuredJ: units.NanojoulesOf(s.integ[DomainPackage] + s.integ[DomainDRAM] - s.open0),
		BaselineJ: units.NanojoulesOf(s.baseNJ - s.openBase0),
	})
	s.open = false
}

// CloseLedger closes every socket's open reign at the end of a run, so
// the ledger covers the full attributed timeline.
func (m *Meter) CloseLedger(at time.Duration) {
	if m == nil {
		return
	}
	for i := range m.socks {
		m.closeOpen(&m.socks[i], i, at)
	}
}

// Ledger returns the closed reconfiguration records in event order.
func (m *Meter) Ledger() []Reconfig {
	if m == nil {
		return nil
	}
	return m.ledger
}

// ClassIndex finds or adds a workload class and returns its index. It is
// called on workload install (cold path); per-query observation then uses
// the index, so the steady state never searches.
func (m *Meter) ClassIndex(name string) int {
	if m == nil {
		return 0
	}
	for i := range m.classes {
		if m.classes[i].Name == name {
			return i
		}
	}
	m.classes = append(m.classes, ClassStats{Name: name})
	return len(m.classes) - 1
}

// ClassName resolves a class index to its name ("" when out of range).
func (m *Meter) ClassName(cls int) string {
	if m == nil || cls < 0 || cls >= len(m.classes) {
		return ""
	}
	return m.classes[cls].Name
}

// ObserveQuery records one completed query's attributed energy under its
// workload class and SLO outcome, and feeds the per-query histogram.
//
//ecllint:hotpath
func (m *Meter) ObserveQuery(cls int, ops int, j units.Joule, violated bool) {
	if m == nil || cls < 0 || cls >= len(m.classes) {
		return
	}
	c := &m.classes[cls]
	c.Queries++
	c.Ops += uint64(ops)
	c.EnergyJ += j
	if violated {
		c.ViolatedQueries++
		c.ViolatedJ += j
	}
	m.histN++
	m.hist[histIndex(j.Joules())]++
}

// ObserveDropped records a query dropped mid-flight (workload switch)
// with whatever energy it had already been attributed.
func (m *Meter) ObserveDropped(cls int, j units.Joule) {
	if m == nil || cls < 0 || cls >= len(m.classes) {
		return
	}
	c := &m.classes[cls]
	c.DroppedQueries++
	c.DroppedJ += j
}

// AddSpan records the energy span of a traced query.
func (m *Meter) AddSpan(sp EnergySpan) {
	if m == nil {
		return
	}
	//ecllint:allow hotpath amortized span-buffer growth; the tracer's sampling keeps the population small
	m.spans = append(m.spans, sp)
}

// Spans returns the recorded energy spans in completion order.
func (m *Meter) Spans() []EnergySpan {
	if m == nil {
		return nil
	}
	return m.spans
}

// Classes returns the per-class aggregates in first-seen order. The
// returned slice is the meter's own storage; callers must not mutate it.
func (m *Meter) Classes() []ClassStats {
	if m == nil {
		return nil
	}
	return m.classes
}

// log10of2 converts the base-2 log histIndex extracts from the float
// representation into the decades the bucket grid is defined over.
const log10of2 = 0.30102999566398119521

// log2Mant refines histIndex's exponent-derived floor(log2(v)) with the
// top eight mantissa bits: entry k holds log2 of the cell's midpoint
// 1 + (k+0.5)/256, so the worst-case log2 error is half a cell (~0.003),
// two orders of magnitude below one bucket width.
var log2Mant = func() [256]float64 {
	var t [256]float64
	for k := range t {
		t[k] = math.Log2(1 + (float64(k)+0.5)/256)
	}
	return t
}()

// histIndex maps a joule value to its logarithmic bucket. It runs once
// per completed query, so the log comes from the float representation
// itself (exponent bits plus the mantissa table) instead of a libm call:
// deterministic, monotone in v, and an order of magnitude cheaper.
// Bucket edges snap to mantissa-cell edges rather than exact powers of
// 10^(1/16) — a sub-percent shift against the ~15% bucket width the
// quantiles already quote.
func histIndex(v float64) int {
	if v < 1e-9 {
		// Zero-energy and sub-nanojoule queries land in the underflow
		// bucket (v <= 0 included: log is undefined there). 1e-9 is far
		// above the subnormal range, so the exponent extraction below
		// only ever sees normal floats.
		return 0
	}
	bits := math.Float64bits(v)
	exp := int(bits>>52) - 1023
	l10 := (float64(exp) + log2Mant[(bits>>44)&0xff]) * log10of2
	i := 1 + int((l10-histMinExp)*histPerDecade)
	if i < 1 {
		i = 1
	}
	if i > histBuckets-1 {
		i = histBuckets - 1
	}
	return i
}

// Quantile returns the p-quantile (0..1) of per-query attributed energy
// from the logarithmic histogram, as the geometric midpoint of the
// matched bucket (bucket resolution: 16 buckets per decade, ~15% width).
func (m *Meter) Quantile(p float64) units.Joule {
	if m == nil || m.histN == 0 {
		return 0
	}
	rank := uint64(p * float64(m.histN))
	if rank < 1 {
		rank = 1
	}
	if rank > m.histN {
		rank = m.histN
	}
	var cum uint64
	for i, c := range m.hist {
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			switch i {
			case 0:
				return units.JoulesOf(1e-9)
			case histBuckets - 1:
				return units.JoulesOf(math.Pow(10, histMinExp+histDecades))
			}
			exp := float64(histMinExp) + (float64(i-1)+0.5)/histPerDecade
			return units.JoulesOf(math.Pow(10, exp))
		}
	}
	return 0
}

// QueryCount returns how many queries the histogram has observed.
func (m *Meter) QueryCount() uint64 {
	if m == nil {
		return 0
	}
	return m.histN
}

// Integrated returns the meter's mirror of a socket/domain RAPL counter.
func (m *Meter) Integrated(socket, domain int) units.Joule {
	if m == nil {
		return 0
	}
	return units.NanojoulesOf(m.socks[socket].integ[domain])
}

// QueriesJ returns the query-attributed energy of a socket/domain.
func (m *Meter) QueriesJ(socket, domain int) units.Joule {
	if m == nil {
		return 0
	}
	return units.NanojoulesOf(m.socks[socket].queries[domain])
}

// ControlJ returns the control-attributed energy of a socket/domain,
// summed over all control kinds.
func (m *Meter) ControlJ(socket, domain int) units.Joule {
	if m == nil {
		return 0
	}
	return units.NanojoulesOf(m.socks[socket].ctlNJ(domain))
}

// ctlNJ sums a domain's control carve-outs over all kinds.
func (s *socketState) ctlNJ(domain int) int64 {
	var t int64
	for k := Kind(0); k < numKinds; k++ {
		t += s.ctl[k][domain]
	}
	return t
}

// ControlKindJ returns one control kind's energy on a socket/domain.
func (m *Meter) ControlKindJ(socket, domain int, k Kind) units.Joule {
	if m == nil {
		return 0
	}
	return units.NanojoulesOf(m.socks[socket].ctl[k][domain])
}

// ResidualJ is the derived residual of a socket/domain: integrated minus
// attributed, computed in whole nanojoules, so queries + control +
// residual equals integrated exactly. Carve-outs round down, so it is
// never negative.
func (m *Meter) ResidualJ(socket, domain int) units.Joule {
	if m == nil {
		return 0
	}
	s := &m.socks[socket]
	return units.NanojoulesOf(s.integ[domain] - s.queries[domain] - s.ctlNJ(domain))
}

// IntegratedTotalJ sums Integrated over sockets and domains.
func (m *Meter) IntegratedTotalJ() units.Joule { return m.total((*Meter).Integrated) }

// QueriesTotalJ sums QueriesJ over sockets and domains.
func (m *Meter) QueriesTotalJ() units.Joule { return m.total((*Meter).QueriesJ) }

// ControlTotalJ sums ControlJ over sockets and domains.
func (m *Meter) ControlTotalJ() units.Joule { return m.total((*Meter).ControlJ) }

// ResidualTotalJ sums ResidualJ over sockets and domains.
func (m *Meter) ResidualTotalJ() units.Joule { return m.total((*Meter).ResidualJ) }

func (m *Meter) total(f func(*Meter, int, int) units.Joule) units.Joule {
	if m == nil {
		return 0
	}
	var t units.Joule
	for s := range m.socks {
		for d := 0; d < NumDomains; d++ {
			t += f(m, s, d)
		}
	}
	return t
}

// BaselineTotalJ sums the counterfactual accumulators over sockets.
func (m *Meter) BaselineTotalJ() units.Joule {
	if m == nil {
		return 0
	}
	var t int64
	for i := range m.socks {
		t += m.socks[i].baseNJ
	}
	return units.NanojoulesOf(t)
}

// MeasuredRunJ sums the energy integrated inside the attributed run
// window (from the FlushPending mark on), over all sockets and domains.
func (m *Meter) MeasuredRunJ() units.Joule {
	if m == nil {
		return 0
	}
	var t int64
	for i := range m.socks {
		s := &m.socks[i]
		t += s.integ[DomainPackage] + s.integ[DomainDRAM] - s.run0
	}
	return units.NanojoulesOf(t)
}

// SavedJ is the continuously observable "energy saved": the frozen
// always-max baseline minus the energy actually integrated over the same
// attributed window. Negative values are reported as-is (the controller
// can lose).
func (m *Meter) SavedJ() units.Joule {
	if m == nil || !m.HasBaseline() {
		return 0
	}
	return m.BaselineTotalJ() - m.MeasuredRunJ()
}

// Snapshot returns an independent deep copy for cross-fence publication
// (the serving layer reads snapshots while the simulation keeps writing).
func (m *Meter) Snapshot() *Meter {
	if m == nil {
		return nil
	}
	c := &Meter{
		socks:   append([]socketState(nil), m.socks...),
		classes: append([]ClassStats(nil), m.classes...),
		spans:   append([]EnergySpan(nil), m.spans...),
		ledger:  append([]Reconfig(nil), m.ledger...),
		hist:    m.hist,
		histN:   m.histN,
	}
	for i := range c.socks {
		for k := range c.socks[i].win {
			c.socks[i].win[k] = append([]window(nil), c.socks[i].win[k]...)
		}
	}
	return c
}
