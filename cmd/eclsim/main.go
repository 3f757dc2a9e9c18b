// Command eclsim runs the paper's end-to-end evaluation experiments
// (Figures 11, 13-16 and Table 1) or a custom simulation of the elastic
// data-oriented DBMS under a chosen governor, workload, and load profile.
//
// Usage:
//
//	eclsim -fig 13               # spike-profile experiment
//	eclsim -fig 14               # twitter-profile experiment
//	eclsim -fig 15               # adaptation experiment (also figure 16)
//	eclsim -table 1              # full Table 1 sweep
//	eclsim -workload tatp-indexed -load spike -duration 2m
//
// The observability flags export the ECL control plane of a run:
//
//	eclsim -fig 13 -events ev.jsonl -metrics m.prom -explain
//	eclsim -fig 13 -qtrace trace.json -qtrace-sample 8
//
// -events writes the decision-event stream as JSONL, -metrics writes the
// post-run counters in Prometheus text format, and -explain prints an
// ASCII report of per-socket zone residency, safety-valve activations,
// and applied configurations. -qtrace samples per-query latency phase
// spans (route/wake/queue/exec) plus control-loop spans and writes them
// as Chrome/Perfetto trace-event JSON — open the file at ui.perfetto.dev
// — and prints the per-phase latency breakdown table. They apply to
// -fig 13, -fig 14, and custom runs (where the ECL governor's pass is
// the one observed).
//
// -eattr attaches the energy-attribution meter and prints its post-run
// report: the class split of every joule the run integrated (queries,
// control, idle/residual — shares sum to 100% by construction), the
// per-query energy quantiles, per-workload-class joules, and the energy
// saved versus a frozen always-max baseline, with the reconfiguration
// audit ledger behind it. -eattr-out additionally writes the meter's
// JSONL export (spans, ledger, class stats) to a file:
//
//	eclsim -fig 13 -eattr
//	eclsim -workload tatp-indexed -load twitter -eattr -eattr-out eattr.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"ecldb/internal/bench"
	"ecldb/internal/ecl"
	"ecldb/internal/hw"
	"ecldb/internal/loadprofile"
	"ecldb/internal/obs"
	"ecldb/internal/obs/energyattr"
	"ecldb/internal/obs/trace"
	"ecldb/internal/sim"
	"ecldb/internal/units"
	"ecldb/internal/workload"
)

// obsOut bundles the observability flags: where to export the decision
// event stream, metrics, and query trace, and whether to print the
// explain report.
type obsOut struct {
	events       string
	metrics      string
	explain      bool
	qtrace       string
	qtraceSample int
	eattr        bool
	eattrOut     string
}

func (o obsOut) wanted() bool {
	return o.events != "" || o.metrics != "" || o.explain || o.qtrace != "" ||
		o.eattr || o.eattrOut != ""
}

// observer creates the observer when any observability output is wanted,
// with the query tracer attached when -qtrace asks for one and the
// energy-attribution meter when -eattr (or -eattr-out) asks for it.
func (o obsOut) observer() *obs.Observer {
	if !o.wanted() {
		return nil
	}
	ob := obs.New(0)
	if o.qtrace != "" {
		ob.Trace = trace.New(o.qtraceSample)
	}
	if o.eattr || o.eattrOut != "" {
		ob.Energy = energyattr.New(hw.HaswellEP().Sockets)
	}
	return ob
}

// flush writes the requested exports after the observed run.
func (o obsOut) flush(ob *obs.Observer) error {
	if ob == nil {
		return nil
	}
	if o.events != "" {
		f, err := os.Create(o.events)
		if err != nil {
			return err
		}
		if err := ob.Log.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("decision events written to %s (%d events)\n", o.events, ob.Log.Len())
	}
	if o.metrics != "" {
		f, err := os.Create(o.metrics)
		if err != nil {
			return err
		}
		if err := ob.Metrics.WriteProm(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("metrics exposition written to %s\n", o.metrics)
	}
	if o.qtrace != "" {
		f, err := os.Create(o.qtrace)
		if err != nil {
			return err
		}
		if err := ob.Trace.WritePerfetto(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("query trace written to %s (%d spans; open in ui.perfetto.dev)\n",
			o.qtrace, len(ob.Trace.Queries()))
		if !o.explain {
			// -explain prints the breakdown as part of the full report.
			fmt.Println()
			fmt.Print(ob.Trace.Report())
		}
	}
	if o.eattrOut != "" {
		f, err := os.Create(o.eattrOut)
		if err != nil {
			return err
		}
		if err := ob.Energy.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("energy attribution written to %s (%d spans, %d ledger records)\n",
			o.eattrOut, len(ob.Energy.Spans()), len(ob.Energy.Ledger()))
	}
	if o.eattr || o.eattrOut != "" {
		fmt.Println()
		fmt.Print(ob.Energy.Report())
	}
	if o.explain {
		fmt.Println()
		fmt.Print(ob.Explain())
	}
	return nil
}

func main() {
	fig := flag.Int("fig", 0, "figure number (11, 13, 14, 15/16)")
	table := flag.Int("table", 0, "table number (1)")
	wlName := flag.String("workload", "", "custom run: workload name")
	loadName := flag.String("load", "spike", "custom run: load profile (spike, twitter, constant, idleburst, replay)")
	traceFile := flag.String("trace", "", "custom run with -load replay: CSV trace with t_seconds,qps columns")
	level := flag.Float64("level", 0.5, "custom run: constant-load level relative to capacity")
	duration := flag.Duration("duration", 2*time.Minute, "custom run: profile duration")
	seed := flag.Int64("seed", 42, "random seed")
	csvPrefix := flag.String("csv", "", "custom run: write per-governor trace CSVs to <prefix>-<governor>.csv")
	capW := flag.Float64("cap", 0, "custom run: per-socket power cap in W for the ECL (0 = none)")
	parallel := flag.Int("parallel", 0, "worker goroutines for multi-run sweeps (<1 = GOMAXPROCS); results are identical at any setting")
	runLen := flag.Duration("len", 0, "override the experiment length for -fig 13/14/15 and -table 1 (0 = the figure's default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	var oo obsOut
	flag.StringVar(&oo.events, "events", "", "write the ECL decision-event stream as JSONL to this file")
	flag.StringVar(&oo.metrics, "metrics", "", "write the post-run metrics in Prometheus text format to this file")
	flag.BoolVar(&oo.explain, "explain", false, "print the post-run control-plane explain report")
	flag.StringVar(&oo.qtrace, "qtrace", "", "write sampled query spans as Perfetto trace-event JSON to this file (open at ui.perfetto.dev)")
	flag.IntVar(&oo.qtraceSample, "qtrace-sample", 16, "trace one query span per N admissions (1 = every query)")
	flag.BoolVar(&oo.eattr, "eattr", false, "attach the energy-attribution meter and print its post-run breakdown report")
	flag.StringVar(&oo.eattrOut, "eattr-out", "", "write the energy-attribution export (spans, ledger, class stats) as JSONL to this file; implies -eattr")
	flag.Parse()
	bench.SetParallelism(*parallel)
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	exitOn(err)
	defer stopProfiles()

	switch {
	case *table == 1:
		warnNoObs(oo)
		r, err := bench.Table1(orDefault(*runLen, bench.Table1Len))
		exitOn(err)
		fmt.Println(r.Render())
	case *fig == 11:
		warnNoObs(oo)
		r, err := bench.Figure11()
		exitOn(err)
		fmt.Println(r.Render())
	case *fig == 13:
		ob := oo.observer()
		r, err := bench.Figure13(orDefault(*runLen, bench.Figure13Len), ob)
		exitOn(err)
		fmt.Println(r.Render())
		exitOn(oo.flush(ob))
	case *fig == 14:
		ob := oo.observer()
		r, err := bench.Figure14(orDefault(*runLen, bench.Figure14Len), ob)
		exitOn(err)
		fmt.Println(r.Render())
		exitOn(oo.flush(ob))
	case *fig == 15, *fig == 16:
		warnNoObs(oo)
		d := orDefault(*runLen, bench.AdaptationLen)
		r, err := bench.FigureAdaptation(d/4, d)
		exitOn(err)
		fmt.Println(r.Render())
	case *wlName != "":
		exitOn(customRun(*wlName, *loadName, *traceFile, *level, *duration, *seed, *csvPrefix, *capW, oo))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// orDefault substitutes the figure's default length when -len is unset.
func orDefault(v, def time.Duration) time.Duration {
	if v > 0 {
		return v
	}
	return def
}

func customRun(wlName, loadName, traceFile string, level float64, duration time.Duration, seed int64, csvPrefix string, capW float64, oo obsOut) error {
	wl := workload.ByName(wlName)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", wlName)
	}
	capacity, err := bench.MeasureCapacity(wl, seed)
	if err != nil {
		return err
	}
	var load loadprofile.Profile
	switch loadName {
	case "spike":
		load = loadprofile.Spike{PeakQps: capacity * 1.15, Len: duration}
	case "twitter":
		load = loadprofile.Twitter{BaseQps: capacity * 0.8, Len: duration}
	case "constant":
		load = loadprofile.Constant{Qps: capacity * level, Len: duration}
	case "idleburst":
		// Two short bursts around a long zero plateau: the shape of
		// BenchmarkIdleHeavyRun, and the one that exercises the
		// closed-form stretch integration (DESIGN.md §16) hardest.
		levels := make([]float64, 30)
		levels[0] = capacity * level
		levels[len(levels)-1] = capacity * level
		load = loadprofile.Step{Levels: levels, StepLen: duration / 30}
	case "replay":
		if traceFile == "" {
			return fmt.Errorf("-load replay needs -trace <csv>")
		}
		f, err := os.Open(traceFile)
		if err != nil {
			return err
		}
		rp, err := loadprofile.LoadReplayCSV(traceFile, f, duration)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("replaying %s compressed %.0fx\n", traceFile, rp.Compression())
		load = rp
	default:
		return fmt.Errorf("unknown load profile %q", loadName)
	}
	fmt.Printf("workload %s, capacity %.0f qps, load %s for %v\n", wlName, capacity, loadName, duration)
	var baseJ units.Joule
	for _, gov := range []sim.Governor{sim.GovernorBaseline, sim.GovernorECL} {
		opts := sim.Options{
			Workload: workload.ByName(wlName),
			Load:     load,
			Governor: gov,
			Prewarm:  gov == sim.GovernorECL,
			Seed:     seed,
		}
		if gov == sim.GovernorECL && capW > 0 {
			opts.ECL = ecl.DefaultOptions()
			opts.ECL.PowerCapW = units.WattsOf(capW)
		}
		// Observe the ECL run only: the baseline has no control plane
		// worth explaining, and a single observer must not span runs.
		var ob *obs.Observer
		if gov == sim.GovernorECL {
			ob = oo.observer()
			opts.Obs = ob
		}
		res, err := sim.Run(opts)
		if err != nil {
			return err
		}
		if csvPrefix != "" {
			path := fmt.Sprintf("%s-%s.csv", csvPrefix, gov)
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := res.Rec.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("trace written to %s\n", path)
		}
		fmt.Printf("%-9s energy %8.0f J  PSU %8.0f J  completed %9d  avg latency %12v  violations %5.1f%%",
			gov, res.EnergyJ, res.PSUEnergyJ, res.Completed, res.AvgLatency, res.ViolationFrac*100)
		if gov == sim.GovernorBaseline {
			baseJ = res.EnergyJ
			fmt.Println()
		} else {
			fmt.Printf("  savings %5.1f%%  most applied %s\n", (1-res.EnergyJ.Div(baseJ))*100, res.MostApplied)
			if err := oo.flush(ob); err != nil {
				return err
			}
		}
	}
	return nil
}

// warnNoObs notes that the observability flags only cover the runs that
// exercise the ECL with its base interval (-fig 13, -fig 14, custom).
func warnNoObs(oo obsOut) {
	if oo.wanted() {
		fmt.Fprintln(os.Stderr, "eclsim: -events/-metrics/-explain/-qtrace/-eattr apply to -fig 13, -fig 14, and custom runs only; ignoring")
	}
}

// stopProfilesFn finalizes any requested profiles; exitOn invokes it so
// profiles survive error exits too (os.Exit skips deferred calls).
var stopProfilesFn = func() {}

// startProfiles starts a CPU profile and arranges a heap profile at
// shutdown, returning the finalizer (also stored for exitOn).
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	done := false
	stopProfilesFn = func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Fprintf(os.Stderr, "cpu profile written to %s\n", cpuPath)
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "eclsim:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "eclsim:", err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "heap profile written to %s\n", memPath)
		}
	}
	return stopProfilesFn, nil
}

func exitOn(err error) {
	if err != nil {
		stopProfilesFn()
		fmt.Fprintln(os.Stderr, "eclsim:", err)
		os.Exit(1)
	}
}
