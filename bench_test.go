// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment end to end
// and reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the full evaluation. The experiments are deterministic;
// ns/op measures the wall cost of regenerating a figure, not a paper
// quantity. See EXPERIMENTS.md for paper-vs-measured values.
package ecldb_test

import (
	"testing"
	"time"

	"ecldb/internal/bench"
	"ecldb/internal/hw"
	"ecldb/internal/obs"
	"ecldb/internal/obs/energyattr"
	"ecldb/internal/sim"
	"ecldb/internal/workload"
)

// skipInShort exempts the end-to-end simulation benchmarks from -short
// runs (scripts/bench.sh, CI): a single Table 1 sweep takes tens of
// minutes. The model-based hardware and profile figures stay in.
func skipInShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("full-simulation benchmark; skipped in -short mode")
	}
}

func BenchmarkFigure3PowerBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.Figure3()
		b.ReportMetric(r.StaticFrac*100, "static/peak_%")
		b.ReportMetric(r.OverheadFrac*100, "overhead_%")
		b.ReportMetric(r.PeakPSUW, "peak_PSU_W")
	}
}

func BenchmarkFigure4ActivationCosts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.Figure4()
		last := r.Combos[len(r.Combos)-1]
		b.ReportMetric(last.FirstCoreW, "first_core_W")
		b.ReportMetric(last.AddlCoreW, "addl_core_W")
		b.ReportMetric(last.SiblingW, "HT_sibling_W")
	}
}

func BenchmarkFigure5UncoreHalting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.Figure5()
		b.ReportMetric(r.HaltedW[0], "halted_s0_W")
		b.ReportMetric(r.Socket1W[len(r.Socket1W)-1], "idle_unhalted_s1_W")
	}
}

func BenchmarkFigure6Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.Figure6()
		var minCoreMaxUnc float64
		for _, c := range r.Cells {
			if c.CoreMHz == 1200 && c.UncoreMHz == 3000 {
				minCoreMaxUnc = c.BandwidthGBs
			}
		}
		b.ReportMetric(minCoreMaxUnc, "minclk_maxunc_GBs")
	}
}

func BenchmarkFigure7EET(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.Figure7()
		b.ReportMetric(r.BalancedCompute.TurboAt.Seconds(), "balanced_turbo_s")
		b.ReportMetric(r.PerformanceCompute.TurboAt.Seconds(), "perf_turbo_s")
		b.ReportMetric(r.BalancedMemory.PerfGain(), "membound_perf_gain")
	}
}

func BenchmarkFigure8UFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.Figure8()
		b.ReportMetric(r.Rows[0].PkgW-r.Rows[1].PkgW, "auto_vs_1.2GHz_W")
	}
}

func BenchmarkFigure9GeneratorGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.A.Configurations), "configs_default")
		b.ReportMetric(float64(r.B.Configurations), "configs_fcore7")
		b.ReportMetric(float64(r.C.Configurations), "configs_mixed")
	}
}

func BenchmarkFigure10WorkloadProfiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MemoryBound.MaxRTISavings*100, "membound_save_%")
		b.ReportMetric(r.Atomic.MaxRTISavings*100, "atomic_save_%")
		b.ReportMetric(r.Atomic.RespAdvantage*100, "atomic_resp_%")
		b.ReportMetric(r.HashTable.MaxRTISavings*100, "hashtable_save_%")
	}
}

func BenchmarkFigure11GuidingExample(b *testing.B) {
	skipInShort(b)
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Times)), "samples")
	}
}

func BenchmarkFigure12MetaCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.Figure12()
		b.ReportMetric(r.MeasureWindow.Seconds()*1000, "measure_window_ms")
		b.ReportMetric(r.ApplySettle.Seconds()*1000, "apply_settle_ms")
	}
}

// sequentially pins the sweep orchestrator to one worker for the
// duration of a benchmark, so the pre-existing figure benchmarks keep
// measuring the sequential baseline and the *Parallel variants below
// measure the orchestrated fan-out. Successive BENCH_*.json snapshots
// then carry both points of the sequential-vs-parallel trajectory.
func sequentially(b *testing.B) {
	b.Helper()
	bench.SetParallelism(1)
	b.Cleanup(func() { bench.SetParallelism(0) })
}

func BenchmarkFigure13Spike(b *testing.B) {
	skipInShort(b)
	sequentially(b)
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure13(bench.Figure13Len, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Savings1Hz*100, "ecl_savings_%")
		b.ReportMetric(r.Baseline.OverloadSec, "baseline_overload_s")
		b.ReportMetric(r.ECL1Hz.OverloadSec, "ecl_overload_s")
	}
}

func BenchmarkFigure14Twitter(b *testing.B) {
	skipInShort(b)
	sequentially(b)
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure14(bench.Figure14Len, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Savings1Hz*100, "ecl_savings_%")
		b.ReportMetric(r.ECL1Hz.ViolationFrac*100, "ecl1hz_viol_%")
		b.ReportMetric(r.ECL2Hz.ViolationFrac*100, "ecl2hz_viol_%")
	}
}

func BenchmarkFigure15And16Adaptation(b *testing.B) {
	skipInShort(b)
	for i := 0; i < b.N; i++ {
		r, err := bench.FigureAdaptation(bench.AdaptationLen/4, bench.AdaptationLen)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Static.PostSwitchEnergyJ, "static_J")
		b.ReportMetric(r.Online.PostSwitchEnergyJ, "online_J")
		b.ReportMetric(r.Multi.PostSwitchEnergyJ, "multiplexed_J")
		b.ReportMetric(r.Static.PostSwitchOverloadSec, "static_overload_s")
	}
}

func BenchmarkTable1EnergySavings(b *testing.B) {
	skipInShort(b)
	sequentially(b)
	for i := 0; i < b.N; i++ {
		r, err := bench.Table1(bench.Table1Len)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.LoadProfile == "twitter" {
				b.ReportMetric(row.Savings*100, row.Workload+"_save_%")
			}
		}
	}
}

// BenchmarkTable1Parallel regenerates Table 1 through the sweep
// orchestrator at the default pool size (GOMAXPROCS). Compare against
// BenchmarkTable1EnergySavings (pinned sequential) to read the fan-out
// speedup off a BENCH_*.json snapshot.
func BenchmarkTable1Parallel(b *testing.B) {
	skipInShort(b)
	bench.SetParallelism(0)
	for i := 0; i < b.N; i++ {
		r, err := bench.Table1(bench.Table1Len)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Rows)), "rows")
	}
}

// BenchmarkFigure13And14Parallel regenerates the spike/twitter pair with
// the orchestrator at the default pool size: the two figures fan out as
// jobs, and each figure's three governor runs fan out beneath them.
func BenchmarkFigure13And14Parallel(b *testing.B) {
	skipInShort(b)
	bench.SetParallelism(0)
	for i := 0; i < b.N; i++ {
		results, err := bench.Sweep([]bench.Job[bench.LoadAdaptResult]{
			func() (bench.LoadAdaptResult, error) { return bench.Figure13(bench.Figure13Len, nil) },
			func() (bench.LoadAdaptResult, error) { return bench.Figure14(bench.Figure14Len, nil) },
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(results[0].Savings1Hz*100, "spike_save_%")
		b.ReportMetric(results[1].Savings1Hz*100, "twitter_save_%")
	}
}

// The profile-sweep pair runs in -short mode (model-based, no full
// simulation), so every BENCH_*.json snapshot records orchestrated sweep
// timing: the same four appendix profiles, pinned sequential versus the
// default pool.
func BenchmarkProfileSweepSequential(b *testing.B) {
	sequentially(b)
	for i := 0; i < b.N; i++ {
		if _, err := bench.AppendixProfiles(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProfileSweepParallel(b *testing.B) {
	bench.SetParallelism(0)
	for i := 0; i < b.N; i++ {
		if _, err := bench.AppendixProfiles(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendixProfiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.AppendixProfiles()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.TATPIndexed.OptimalUncoreMHz), "tatp_idx_unc_MHz")
		b.ReportMetric(float64(r.SSBNonIndexed.OptimalUncoreMHz), "ssb_scan_unc_MHz")
	}
}

// BenchmarkTable1RowSingleRun times the harness itself on one Table 1
// cell (kv-indexed x twitter, 30 s profile) run strictly sequentially:
// a baseline run followed by an ECL run on one goroutine, capacity probe
// memoized and warmed before timing. This is the headline metric of the
// production step path; the Reference variant below runs the same cell
// on the per-quantum reference walk, so the pair reads the speedup
// directly off a BENCH_*.json snapshot. Both run in -short mode.
func BenchmarkTable1RowSingleRun(b *testing.B) { benchTable1Row(b, nil) }

// BenchmarkTable1RowSingleRunReference is the reference point: the same
// sequential Table 1 cell on the per-quantum reference walk
// (sim.Options.Reference). Only the wall time differs: the outputs are
// bit-identical to the production path's.
func BenchmarkTable1RowSingleRunReference(b *testing.B) {
	benchTable1Row(b, func(o *sim.Options) { o.Reference = true })
}

// BenchmarkTable1RowSingleRunAttr is the same cell with the energy
// attribution meter attached to the ECL run — meter only, no event log
// or registry, so the pair with the plain variant reads the attribution
// layer's accrual cost directly off a BENCH_*.json snapshot; the layer
// promises <2%.
func BenchmarkTable1RowSingleRunAttr(b *testing.B) {
	benchTable1Row(b, func(o *sim.Options) {
		if o.Governor == sim.GovernorECL {
			o.Obs = &obs.Observer{Energy: energyattr.New(hw.HaswellEP().Sockets)}
		}
	})
}

// benchTable1Row times bench.Table1SingleRow on kv-indexed/twitter, each
// run's options adjusted by opt.
func benchTable1Row(b *testing.B, opt func(*sim.Options)) {
	sequentially(b)
	// Warm the memoized capacity probe so timing covers only the runs.
	if _, err := bench.MeasureCapacity(workload.ByName("kv-indexed"), 21); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := bench.Table1SingleRow("kv-indexed", "twitter", 30*time.Second, opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Savings*100, "save_%")
	}
}

// BenchmarkAblationElasticity quantifies design decision 5 (DESIGN.md):
// static worker binding versus the elastic hierarchical message layer.
// Run separately from the paper figures; see internal/bench ablation
// tests for the assertions.
func BenchmarkAblationElasticity(b *testing.B) {
	skipInShort(b)
	for i := 0; i < b.N; i++ {
		r, err := bench.AblationElasticity()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ElasticCompleted, "elastic_done_frac")
		b.ReportMetric(r.StaticCompleted, "static_done_frac")
	}
}

// BenchmarkAblationNUMA quantifies NUMA-aware query admission.
func BenchmarkAblationNUMA(b *testing.B) {
	skipInShort(b)
	for i := 0; i < b.N; i++ {
		r, err := bench.AblationNUMA()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.RandomComm), "random_transfers")
		b.ReportMetric(float64(r.NUMAComm), "numa_transfers")
	}
}

// BenchmarkAblationRTI quantifies the race-to-idle controller's
// contribution to the savings (design decision 4).
func BenchmarkAblationRTI(b *testing.B) {
	skipInShort(b)
	for i := 0; i < b.N; i++ {
		r, err := bench.AblationRTI()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.WithRTISavings*100, "with_rti_save_%")
		b.ReportMetric(r.WithoutRTISavings*100, "without_rti_save_%")
	}
}

// BenchmarkExtensionPowerCap sweeps RAPL-style per-socket power caps
// (enforced through the energy profile) and reports the power/latency
// trade-off at the tightest cap.
func BenchmarkExtensionPowerCap(b *testing.B) {
	skipInShort(b)
	for i := 0; i < b.N; i++ {
		r, err := bench.PowerCap()
		if err != nil {
			b.Fatal(err)
		}
		uncapped := r.Points[0]
		tightest := r.Points[len(r.Points)-1]
		b.ReportMetric(uncapped.AvgRAPLW, "uncapped_W")
		b.ReportMetric(tightest.AvgRAPLW, "tightest_cap_W")
		b.ReportMetric(tightest.Violations*100, "tightest_viol_%")
	}
}

// BenchmarkAblationRTISync quantifies cross-socket race-to-idle phase
// alignment (design decision 4): aligned grids reach the deepest sleep
// state, staggered ones forfeit it.
func BenchmarkAblationRTISync(b *testing.B) {
	skipInShort(b)
	for i := 0; i < b.N; i++ {
		r, err := bench.AblationRTISync()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SyncedDeepSleepSec, "synced_deepsleep_s")
		b.ReportMetric(r.DesyncedDeepSleepSec, "desynced_deepsleep_s")
	}
}

// BenchmarkAblationQuantum verifies discretization insensitivity (design
// decision 1): the same experiment at half/default/double quantum.
func BenchmarkAblationQuantum(b *testing.B) {
	skipInShort(b)
	for i := 0; i < b.N; i++ {
		r, err := bench.AblationQuantum()
		if err != nil {
			b.Fatal(err)
		}
		for j, q := range r.Quanta {
			b.ReportMetric(r.EnergyJ[j], "J_at_"+q.String())
		}
	}
}
