package sim

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"ecldb/internal/loadprofile"
	"ecldb/internal/obs"
	"ecldb/internal/workload"
)

func shortECLOpts(seed int64, ob *obs.Observer) Options {
	return Options{
		Workload: workload.NewKV(false),
		Load:     loadprofile.Constant{Qps: 4000, Len: 8 * time.Second},
		Governor: GovernorECL,
		Prewarm:  true,
		Seed:     seed,
		Obs:      ob,
	}
}

// resultFingerprint summarizes everything a run reports numerically.
func resultFingerprint(t *testing.T, res *Result) string {
	t.Helper()
	var b strings.Builder
	if err := res.Rec.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestObserverIsBehaviorNeutral runs the same seeded scenarios with and
// without an observer attached: the recorded series and the energy
// counters must be bit-identical. Instrumentation is read-only — it must
// never draw randomness, change timing, or otherwise perturb the
// simulation. The idle-heavy stepped profile covers the quiescent fast
// paths too: an attached observer must not keep them from engaging.
func TestObserverIsBehaviorNeutral(t *testing.T) {
	idle := func(ob *obs.Observer) Options {
		opts := stepEquivOptions(false)
		opts.Obs = ob
		return opts
	}
	for _, sc := range []struct {
		name string
		opts func(*obs.Observer) Options
	}{
		{"busy", func(ob *obs.Observer) Options { return shortECLOpts(7, ob) }},
		{"idle-heavy", idle},
	} {
		plain, err := Run(sc.opts(nil))
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []struct {
			name string
			ob   *obs.Observer
		}{{"empty observer", &obs.Observer{}}, {"observer", obs.New(0)}} {
			observed, err := Run(sc.opts(o.ob))
			if err != nil {
				t.Fatal(err)
			}
			if a, b := resultFingerprint(t, plain), resultFingerprint(t, observed); a != b {
				t.Errorf("%s: attaching an %s changed the run's recorded series", sc.name, o.name)
			}
			if plain.Completed != observed.Completed || plain.EnergyJ != observed.EnergyJ ||
				plain.PSUEnergyJ != observed.PSUEnergyJ {
				t.Errorf("%s: %s changed outcomes: completed %d vs %d, energy %v vs %v J, PSU %v vs %v J",
					sc.name, o.name, plain.Completed, observed.Completed, plain.EnergyJ.Joules(), observed.EnergyJ.Joules(),
					plain.PSUEnergyJ.Joules(), observed.PSUEnergyJ.Joules())
			}
		}
	}
}

// TestObserverCapturesRun asserts that a wired run actually produces the
// decision events, metrics, and explain report the layer promises.
func TestObserverCapturesRun(t *testing.T) {
	ob := obs.New(0)
	res, err := Run(shortECLOpts(11, ob))
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs != ob {
		t.Fatal("Result.Obs not set")
	}
	for _, typ := range []obs.Type{
		obs.EvDemandUpdate, obs.EvConfigApply, obs.EvTTVBroadcast,
		obs.EvQueryAdmit, obs.EvQueryComplete, obs.EvProfileMeasure,
	} {
		if ob.Log.Count(typ) == 0 {
			t.Errorf("no %v events recorded", typ)
		}
	}
	if got, want := ob.Log.Count(obs.EvQueryAdmit), uint64(res.Submitted); got != want {
		t.Errorf("QueryAdmit count %d != submitted %d", got, want)
	}
	if got, want := ob.Log.Count(obs.EvQueryComplete), uint64(res.Completed); got != want {
		t.Errorf("QueryComplete count %d != completed %d", got, want)
	}

	var prom bytes.Buffer
	if err := ob.Metrics.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		`ecl_ticks_total{socket="0"}`,
		`hw_config_applies_total{socket="0"}`,
		"dodb_queries_submitted_total",
		"dodb_query_latency_ms_bucket",
		"dodb_inflight",
		"hw_active_threads",
	} {
		if !strings.Contains(prom.String(), name) {
			t.Errorf("exposition missing %s", name)
		}
	}

	rep := obs.Report(ob.Log)
	if !strings.Contains(rep, "socket 0") || !strings.Contains(rep, "residency:") {
		t.Errorf("explain report incomplete:\n%s", rep)
	}

	var jsonl bytes.Buffer
	if err := ob.Log.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if jsonl.Len() == 0 || !strings.HasPrefix(jsonl.String(), `{"t_ns":`) {
		t.Error("JSONL export empty or malformed")
	}
}

// TestObserverRingCapped verifies capacity-bounded logs keep exact
// counters while evicting old events during a real run.
func TestObserverRingCapped(t *testing.T) {
	ob := obs.New(256)
	if _, err := Run(shortECLOpts(13, ob)); err != nil {
		t.Fatal(err)
	}
	if ob.Log.Len() != 256 {
		t.Fatalf("ring holds %d events, want 256", ob.Log.Len())
	}
	if ob.Log.Total() <= 256 || ob.Log.Dropped() == 0 {
		t.Fatalf("total %d dropped %d: eviction accounting wrong",
			ob.Log.Total(), ob.Log.Dropped())
	}
}

// latencyGaugeHook checks, at every trace sample, that the latency gauges
// are the window's exact quantiles: p99 the value the latency_p99_ms
// series just recorded, p50 and p95 the tracker's Percentile at now. It
// keeps each gauge's mismatch count and its largest mismatch.
type latencyGaugeHook struct {
	s       *Sim
	samples int
	maxP99  float64
	bad     [3]gaugeMismatch
}

type gaugeMismatch struct {
	n              int
	at             time.Duration
	got, want, gap float64
}

var latencyGauges = [3]string{"dodb_latency_p50_ms", "dodb_latency_p95_ms", "dodb_latency_p99_ms"}

func (h *latencyGaugeHook) OnSample(now time.Duration) {
	h.samples++
	lt := h.s.engine.Latency()
	series := h.s.rec.Series("latency_p99_ms").Values
	want := [3]float64{
		float64(lt.Percentile(now, 0.50)) / float64(time.Millisecond),
		float64(lt.Percentile(now, 0.95)) / float64(time.Millisecond),
		series[len(series)-1],
	}
	for i, name := range latencyGauges {
		got, _ := h.s.opts.Obs.Reg().Value(name)
		if got == want[i] {
			continue
		}
		b := &h.bad[i]
		b.n++
		if gap := math.Abs(got - want[i]); gap > b.gap {
			b.at, b.got, b.want, b.gap = now, got, want[i], gap
		}
	}
	h.maxP99 = max(h.maxP99, want[2])
}

func (h *latencyGaugeHook) OnDone(time.Duration) {}

// TestLatencyGaugesAreWindowQuantiles overloads kv non-indexed at 1.5x
// its capacity, so the backlog drives window latencies past 1 s, and
// checks the served latency gauges against the tracker at every sample.
func TestLatencyGaugesAreWindowQuantiles(t *testing.T) {
	capacity, err := MeasureCapacity(workload.NewKV(false), 7)
	if err != nil {
		t.Fatal(err)
	}
	h := &latencyGaugeHook{}
	s, err := New(Options{
		Workload: workload.NewKV(false),
		Load:     loadprofile.Constant{Qps: 1.5 * capacity, Len: 6 * time.Second},
		Governor: GovernorBaseline,
		Seed:     7,
		Obs:      obs.New(0),
		Hook:     h,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.s = s
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if h.samples < 10 {
		t.Fatalf("hook saw %d samples, want a per-sample check", h.samples)
	}
	if h.maxP99 <= 1000 {
		t.Fatalf("window p99 peaked at %.0f ms; the overload must push it past 1 s", h.maxP99)
	}
	for i, b := range h.bad {
		if b.n > 0 {
			t.Errorf("%s differs at %d of %d samples; worst at %v: %v, want %v",
				latencyGauges[i], b.n, h.samples, b.at, b.got, b.want)
		}
	}
}
