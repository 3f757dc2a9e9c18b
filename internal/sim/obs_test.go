package sim

import (
	"bytes"
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
// paths too: an attached observer must not keep them from engaging (their
// closed-form integration would otherwise regroup float sums differently
// from an unobserved run).
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
