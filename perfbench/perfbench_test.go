package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"ecldb/internal/loadprofile"
	"ecldb/internal/sim"
	"ecldb/internal/units"
)

func TestLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, want string }{
		{"ecldb/internal/storage.(*HashIndex32).Get", "storage"},
		{"ecldb/internal/storage.(*BTree).Insert", "storage"},
		{"ecldb/internal/workload.(*KV).AppendQuery", "workload"},
		{"ecldb/internal/dodb.(*Engine).Step", "dodb"},
		{"ecldb/internal/msg.(*Hub).DequeueOne", "msg"},
		{"ecldb/internal/hw.(*Machine).StepStretch", "hw"},
		{"ecldb/internal/sim.(*Sim).runEvents.func1", "sim"},
		{"ecldb/internal/ecl.(*SocketECL).tick", "ecl"},
		{"ecldb/internal/energy.(*Profile).Update", "energy"},
		{"ecldb/internal/perfmodel.SocketCapacity", "perfmodel"},
		{"ecldb/internal/obs.(*Log).Emit", "obs"},
		{"ecldb/internal/obs/energyattr.(*Meter).Accrue", "obs"},
		{"ecldb/internal/obs/trace.(*Tracer).AddQuery", "obs"},
		{"ecldb/internal/units.Joule.Joules", "other"},
		{"ecldb/internal/vtime.(*Clock).Now", "other"},
		{"ecldb/internal/bench.SweepN[go.shape.struct {}]", "other"},
		{"runtime.mallocgc", "runtime"},
		{"runtime.gcBgMarkWorker", "runtime"},
		{"runtime/internal/atomic.Xadd", "runtime"},
		{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime"},
		{"math.Exp", "other"},
		{"math/rand.(*Rand).Int63", "other"},
		{"sort.Float64s", "other"},
		{"main.runOnce", "other"},
		{"?", "other"},
	} {
		if got := layerOf(c.fn); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.fn, got, c.want)
		}
	}
}

// TestSelfSecondsDecodesRealProfile profiles a busy loop with
// runtime/pprof and decodes the result: the samples must land in known
// layers and sum to the profile's total.
func TestSelfSecondsDecodesRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler unavailable:", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1e5; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	sink = x
	got, n, err := selfSeconds(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(layers) {
		t.Errorf("got %d layers, want %d", len(got), len(layers))
	}
	total := 0.0
	for l, s := range got {
		if s < 0 {
			t.Errorf("layer %s has negative time %v", l, s)
		}
		total += s
	}
	if n > 0 && total <= 0 {
		t.Errorf("%d samples but no time attributed", n)
	}
}

var sink float64

func TestSelfSecondsRejectsGarbage(t *testing.T) {
	if _, _, err := selfSeconds([]byte("not a profile")); err == nil {
		t.Error("want an error for a non-gzip input")
	}
}

func TestOverloadSeconds(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	for _, c := range []struct {
		name  string
		times []time.Duration
		vals  []float64
		want  float64
	}{
		{"none over", ms(0, 500, 1000), []float64{10, 99, 100}, 0},
		{"one interval", ms(0, 500, 1000), []float64{150, 20, 30}, 0.5},
		{"run of intervals", ms(0, 500, 1000, 1500), []float64{101, 200, 300, 20}, 1.5},
		{"last sample opens nothing", ms(0, 500, 1000), []float64{20, 20, 500}, 0},
		{"uneven spacing", ms(0, 500, 700, 1500), []float64{20, 101, 101, 0}, 1.0},
		{"empty", nil, nil, 0},
	} {
		if got := overloadSeconds(c.times, c.vals, 100); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: overloadSeconds = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSLOMissPct(t *testing.T) {
	for _, c := range []struct {
		violations, dropped, inflight, submitted int64
		want                                     float64
	}{
		{0, 0, 0, 1000, 0},
		{10, 0, 0, 1000, 1},
		{10, 5, 0, 1000, 1.5},
		{10, 5, 5, 1000, 2},
		{0, 0, 250, 1000, 25},
		{1000, 0, 0, 1000, 100},
		{0, 0, 0, 0, 0},
	} {
		if got := sloMissPct(c.violations, c.dropped, c.inflight, c.submitted); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("sloMissPct(%d, %d, %d, %d) = %v, want %v",
				c.violations, c.dropped, c.inflight, c.submitted, got, c.want)
		}
	}
}

func TestSameRun(t *testing.T) {
	a := govRun{res: &sim.Result{EnergyJ: 100, PSUEnergyJ: 150, Submitted: 10, Completed: 9, Violations: 2}, inflight: 1}
	b := a
	if err := sameRun(a, b); err != nil {
		t.Errorf("identical runs differ: %v", err)
	}
	res := *a.res
	res.PSUEnergyJ = units.JoulesOf(math.Nextafter(150, 200))
	b.res = &res
	if sameRun(a, b) == nil {
		t.Error("a one-ulp PSU energy difference went unnoticed")
	}
	b = a
	b.inflight = 0
	if sameRun(a, b) == nil {
		t.Error("an in-flight difference went unnoticed")
	}
}

func TestSavingsPct(t *testing.T) {
	if got := savingsPct(200, 150); got != 25 {
		t.Errorf("savingsPct(200, 150) = %v, want 25", got)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := percentile(s, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one = %v", got)
	}
}

func TestIdleBurstProfile(t *testing.T) {
	a, b := idleBurst(1000, 7), idleBurst(1000, 7)
	if a.Duration() != burstCount*burstSlot {
		t.Fatalf("duration %v, want %v", a.Duration(), burstCount*burstSlot)
	}
	for at := time.Duration(0); at < a.Duration(); at += burstLen {
		if a.QPS(at) != b.QPS(at) {
			t.Fatalf("same seed, different profile at %v", at)
		}
		if a.QPS(at) > 0 && (at < 10*time.Second || at >= a.Duration()-drainTail) {
			t.Errorf("burst at %v: the profile must start and end idle", at)
		}
	}
	for i := 0; i < burstCount; i++ {
		busy := 0
		for at := time.Duration(i) * burstSlot; at < time.Duration(i+1)*burstSlot; at += burstLen {
			if a.QPS(at) > 0 {
				busy++
			}
		}
		if busy != 1 {
			t.Errorf("slot %d has %d busy steps, want 1", i, busy)
		}
	}
}

func TestTailAppendsIdle(t *testing.T) {
	for _, sp := range specs {
		p := sp.load(1000, 1)
		end := p.Duration()
		if q := p.QPS(end - time.Millisecond); q != 0 {
			t.Errorf("%s: load %v just before the end, want an idle tail", sp.name, q)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "kv-twitter", "-seconds", "0"},
		{"-workload", "kv-twitter", "-trace", "2"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("run(%q) exited 0", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("run(%q) printed a result", args)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON runs one short rep and its traced
// twin, which must pass every proof, and checks that the two modes print
// exactly the metrics BENCHMARK.json declares, with the declared units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a short simulation")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	sp := spec{
		name:     "short",
		workload: "kv-indexed",
		load: func(capacity float64, _ int64) loadprofile.Profile {
			return withTail(loadprofile.Constant{Qps: 0.5 * capacity, Len: 2 * time.Second})
		},
	}
	r, err := runOnce(sp, 3, hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.check(); err != nil {
		t.Fatal(err)
	}
	tr, err := runTraced(sp, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	e2e, layer := map[string]metric{}, map[string]metric{}
	endToEnd([]rep{r}, e2e, map[string]int{})
	perLayer([]rep{r}, tr, layer, map[string]int{})
	for _, c := range []struct {
		mode string
		got  map[string]metric
		want []struct{ Name, Unit string }
	}{{"trace 0", e2e, decl.EndToEnd}, {"trace 1", layer, decl.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s prints %d metrics, BENCHMARK.json declares %d", c.mode, len(c.got), len(c.want))
		}
		for _, w := range c.want {
			if m, ok := c.got[w.Name]; !ok {
				t.Errorf("%s: %s declared but not printed", c.mode, w.Name)
			} else if m.Unit != w.Unit {
				t.Errorf("%s: %s unit %q, declared %q", c.mode, w.Name, m.Unit, w.Unit)
			}
		}
	}
}
