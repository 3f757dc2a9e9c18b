// Package units defines the physical quantities the reproduction's
// control loops compute with — energy, power, rate, and virtual time — as
// distinct Go types. Watts and joules flowing through a control loop as
// bare float64 are the classic unit-confusion bug class; a defined type
// per quantity makes cross-unit mixing a compile error and gives the
// `unit` analyzer (internal/lint) an anchor: outside this package, core
// code must build values through the constructors and read them through
// the accessors, never via raw conversions.
//
// Bit-identity contract: a defined type over float64 compiles to exactly
// the float64 it wraps, and every helper in this package reproduces — op
// for op, in evaluation order — the float expression its call sites used
// before the types existed. Adopting these types cannot change a single
// bit of any simulation output; the determinism digests and the
// AllocsPerRun/benchmark figures prove it.
//
// Conversion rules (enforced by the `unit` analyzer in core packages):
//
//   - Construct with JoulesOf / WattsOf / HertzOf / Virtual, read with
//     Joules() / Watts() / PerSecond() / Duration() / Nanos() / Seconds().
//     Raw conversions like units.Watt(x) or float64(w) are findings.
//   - Same-unit multiplication (Watt*Watt, Joule*Joule, …) is meaningless
//     and flagged; scaling by a dimensionless factor uses Scale, ratios
//     use Div, and unit-changing arithmetic uses the named helpers
//     (Watt.Over, Joule.PerSeconds, …).
//   - Untyped constants still work naturally: w * 1.25, j / 2, and
//     comparisons against 0 need no ceremony.
package units

import (
	"math"
	"time"
)

// Joule is an amount of energy. The hardware model's RAPL counters, PSU
// accumulator, and turbo budgets carry it.
type Joule float64

// Watt is power: energy per second. Power-model outputs, caps, and
// profile measurements carry it.
type Watt float64

// Hertz is a per-second rate. The reproduction uses it for performance
// scores and demands (instructions/s) and for offered load (queries/s).
type Hertz float64

// VirtualNanos is a timestamp on the simulation's virtual clock, in
// nanoseconds since run start. Inside the core, scheduling keeps using
// time.Duration offsets (already a defined unit type); VirtualNanos marks
// the serialization boundary — exported event streams and spans — where
// "these nanoseconds are virtual, not wall time" must survive the type
// system leaving the process.
type VirtualNanos int64

// JoulesOf constructs an energy amount from a raw joule count.
func JoulesOf(j float64) Joule { return Joule(j) }

// WattsOf constructs a power value from a raw watt count.
func WattsOf(w float64) Watt { return Watt(w) }

// HertzOf constructs a rate from a raw per-second count.
func HertzOf(perSec float64) Hertz { return Hertz(perSec) }

// Virtual stamps a virtual-clock offset as a virtual timestamp.
func Virtual(d time.Duration) VirtualNanos { return VirtualNanos(d) }

// Joules reads the raw joule count.
func (j Joule) Joules() float64 { return float64(j) }

// Watts reads the raw watt count.
func (w Watt) Watts() float64 { return float64(w) }

// PerSecond reads the raw per-second count.
func (h Hertz) PerSecond() float64 { return float64(h) }

// Duration converts the timestamp back to a virtual-clock offset.
func (v VirtualNanos) Duration() time.Duration { return time.Duration(v) }

// Nanos reads the raw nanosecond count (the JSONL encoders use it).
func (v VirtualNanos) Nanos() int64 { return int64(v) }

// Seconds is the timestamp in seconds. It delegates to
// time.Duration.Seconds so the division decomposition (integer seconds
// plus fractional remainder) matches what untyped call sites computed.
func (v VirtualNanos) Seconds() float64 { return time.Duration(v).Seconds() }

// Scale multiplies energy by a dimensionless factor.
func (j Joule) Scale(f float64) Joule { return Joule(float64(j) * f) }

// Scale multiplies power by a dimensionless factor.
func (w Watt) Scale(f float64) Watt { return Watt(float64(w) * f) }

// Scale multiplies a rate by a dimensionless factor.
func (h Hertz) Scale(f float64) Hertz { return Hertz(float64(h) * f) }

// Div is the dimensionless ratio of two energies.
func (j Joule) Div(o Joule) float64 { return float64(j) / float64(o) }

// Div is the dimensionless ratio of two powers.
func (w Watt) Div(o Watt) float64 { return float64(w) / float64(o) }

// Div is the dimensionless ratio of two rates.
func (h Hertz) Div(o Hertz) float64 { return float64(h) / float64(o) }

// Min returns the smaller energy, with math.Min's NaN/signed-zero
// semantics (the turbo-budget clamp used math.Min directly).
func (j Joule) Min(o Joule) Joule { return Joule(math.Min(float64(j), float64(o))) }

// Min returns the smaller power, with math.Min's semantics.
func (w Watt) Min(o Watt) Watt { return Watt(math.Min(float64(w), float64(o))) }

// Abs is the magnitude of a rate difference (profile drift tests).
func (h Hertz) Abs() Hertz { return Hertz(math.Abs(float64(h))) }

// Over integrates constant power over a time span: w × span seconds,
// yielding energy. Multiplication order matches the integrators'
// original `powerW * seg.Seconds()` expression.
func (w Watt) Over(d time.Duration) Joule { return Joule(float64(w) * d.Seconds()) }

// PerSeconds divides energy by a window length in seconds, yielding the
// average power over the window.
func (j Joule) PerSeconds(sec float64) Watt { return Watt(float64(j) / sec) }

// Over integrates a rate over a time span, yielding a dimensionless
// count (queries, instructions): h × span seconds.
func (h Hertz) Over(d time.Duration) float64 { return float64(h) * d.Seconds() }

// NanojoulesOf constructs an energy amount from a whole nanojoule count,
// the unit the hardware model's integer accumulators keep (1 W × 1 ns =
// 1 nJ). The division is correctly rounded, so equal counts give equal
// joules.
func NanojoulesOf(nj int64) Joule { return Joule(float64(nj) / 1e9) }

// Nanojoules rounds energy to the nearest whole nanojoule (halves round
// up).
func (j Joule) Nanojoules() int64 { return int64(math.Floor(float64(j)*1e9 + 0.5)) }

// NanojoulesOver integrates constant power over a time span into whole
// nanojoules: w × span nanoseconds, rounded once to the nearest integer
// (halves round up). Integer accumulators add this term per quantum, so
// a stretch of n equal quanta adds exactly n times it, in any grouping.
func (w Watt) NanojoulesOver(d time.Duration) int64 {
	return int64(math.Floor(float64(w)*float64(d) + 0.5))
}

// PerQuery divides a total energy over a query count, yielding the
// average joules per query. A zero count yields zero energy, so the
// attribution reports can divide by "queries completed so far" without
// guarding every call site.
func (j Joule) PerQuery(n uint64) Joule {
	if n == 0 {
		return 0
	}
	return Joule(float64(j) / float64(n))
}

// PerOp divides a total energy over an operation count, yielding the
// average joules per operation, with the same zero-count behavior as
// PerQuery. The two helpers are the typed spellings of the paper-style
// efficiency metrics (energy per transaction, energy per operator).
func (j Joule) PerOp(n uint64) Joule {
	if n == 0 {
		return 0
	}
	return Joule(float64(j) / float64(n))
}

// PerWatt is rate per power — the profile's efficiency metric
// (instructions per joule, since Hz/W = 1/s ÷ J/s).
func PerWatt(h Hertz, w Watt) float64 { return float64(h) / float64(w) }
