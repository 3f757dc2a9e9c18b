package units

import (
	"math"
	"testing"
	"time"
)

// TestBitIdentity pins every helper to the exact float expression its
// call sites used before the types existed. These are equality checks on
// bits, not tolerances: the whole point of the package is that adopting
// it cannot perturb a single ULP.
func TestBitIdentity(t *testing.T) {
	// Variables, not constants: the Go compiler folds untyped-constant
	// arithmetic in arbitrary precision, which is exactly what runtime
	// float64 code does not do.
	w := 83.7219
	j := 1912.000331
	h := 2.31e9
	seg := 1700 * time.Microsecond

	if got, want := WattsOf(w).Over(seg).Joules(), w*seg.Seconds(); got != want {
		t.Errorf("Watt.Over: %v != %v", got, want)
	}
	if got, want := JoulesOf(j).PerSeconds(0.1).Watts(), j/0.1; got != want {
		t.Errorf("Joule.PerSeconds: %v != %v", got, want)
	}
	if got, want := HertzOf(h).Over(seg), h*seg.Seconds(); got != want {
		t.Errorf("Hertz.Over: %v != %v", got, want)
	}
	if got, want := WattsOf(w).Scale(1.25).Watts(), w*1.25; got != want {
		t.Errorf("Watt.Scale: %v != %v", got, want)
	}
	if got, want := JoulesOf(j).Div(JoulesOf(w)), j/w; got != want {
		t.Errorf("Joule.Div: %v != %v", got, want)
	}
	if got, want := WattsOf(w).NanojoulesOver(seg), int64(math.Floor(w*float64(seg)+0.5)); got != want {
		t.Errorf("Watt.NanojoulesOver: %v != %v", got, want)
	}
	if got, want := NanojoulesOf(1912000331000).Joules(), 1912000331000/1e9; got != want {
		t.Errorf("NanojoulesOf: %v != %v", got, want)
	}
	if got := JoulesOf(j).Nanojoules(); got != 1912000331000 {
		t.Errorf("Joule.Nanojoules: %v != 1912000331000", got)
	}
	if got, want := JoulesOf(j).Min(JoulesOf(w)).Joules(), math.Min(j, w); got != want {
		t.Errorf("Joule.Min: %v != %v", got, want)
	}
	if got, want := HertzOf(-h).Abs().PerSecond(), math.Abs(-h); got != want {
		t.Errorf("Hertz.Abs: %v != %v", got, want)
	}
	if got, want := PerWatt(HertzOf(h), WattsOf(w)), h/w; got != want {
		t.Errorf("PerWatt: %v != %v", got, want)
	}
	// Virtual seconds must match time.Duration.Seconds, which is NOT
	// float64(d)/1e9 — it splits integer seconds from the remainder.
	odd := 7*time.Second + 123456789*time.Nanosecond
	if got, want := Virtual(odd).Seconds(), odd.Seconds(); got != want {
		t.Errorf("VirtualNanos.Seconds: %v != %v", got, want)
	}
	if got := Virtual(odd).Nanos(); got != int64(odd) {
		t.Errorf("VirtualNanos.Nanos: %v != %v", got, int64(odd))
	}
	if got := Virtual(odd).Duration(); got != odd {
		t.Errorf("VirtualNanos.Duration: %v != %v", got, odd)
	}
}

// TestUntypedConstantsCompose documents that untyped constants need no
// constructors: the defined types keep natural arithmetic.
func TestUntypedConstantsCompose(t *testing.T) {
	w := WattsOf(10)
	if w*1.5 != WattsOf(15) {
		t.Errorf("untyped constant scaling broke: %v", w*1.5)
	}
	if w <= 0 {
		t.Errorf("comparison against zero broke")
	}
	j := JoulesOf(8)
	if j/2 != JoulesOf(4) {
		t.Errorf("untyped constant division broke: %v", j/2)
	}
}
