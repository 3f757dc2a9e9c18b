// Command perfbench is the repository benchmark: for one workload it
// measures the set-up and run wall time of a baseline-governor run
// followed by an ECL run (the pair behind Table 1 and Figures 13/14),
// checks the outputs, and prints the end-to-end metrics — or, with
// -trace 1, the per-layer metrics of an additional traced run.
//
//	perfbench -workload kv-twitter -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it records the
// host facts and the sample counts behind every percentile. run.sh builds
// the program from source and runs it; NOTES.md lists the measurement
// pitfalls.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"syscall"
	"time"

	"ecldb/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: kv-twitter, tatp-spike or idle-burst")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 30, "measurement budget in wall seconds")
	traced := fs.Int("trace", 0, "1 adds a traced run and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := specByName(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: need -workload kv-twitter|tatp-spike|idle-burst, -seconds >= 1, -trace 0|1")
		return 2
	}
	// One simulation goroutine; the second core is left to the GC.
	bench.SetParallelism(1)

	budget := time.Duration(*seconds) * time.Second
	if *traced == 1 {
		// The traced run and its empty-observer twin take about as long
		// as the untraced reps; keep the whole run near the budget.
		budget /= 2
	}
	reps, err := measure(sp, *seed, budget, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range reps {
		res.Attempted += r.attempted()
		res.Failed += r.failed()
	}
	samples := map[string]int{"reps": len(reps)}
	checkErr := checkReps(reps)
	if *traced == 0 {
		endToEnd(reps, res.Metrics, samples)
	} else if checkErr == nil {
		var tr tracedRep
		tr, checkErr = runTraced(sp, *seed, reps[0])
		if checkErr == nil {
			res.Attempted += tr.attempted()
			res.Failed += tr.failed()
			perLayer(reps, tr, res.Metrics, samples)
		}
	}
	info := map[string]any{"workload": sp.name, "seed": *seed, "host": hostFacts(), "samples": samples}
	if checkErr != nil {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %v\n", sp.name, checkErr)
		res.Correct = false
	}
	printLine(stdout, info)
	printLine(stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs untraced reps until the next one would overrun the budget
// (at least one), logging each rep's timings to progress.
func measure(sp spec, seed int64, budget time.Duration, progress io.Writer) ([]rep, error) {
	start := time.Now()
	var reps []rep
	var durs []float64
	for {
		t := time.Now()
		r, err := runOnce(sp, seed, hooks{})
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		durs = append(durs, time.Since(t).Seconds())
		fmt.Fprintf(progress, "rep %d: setup %.3fs (capacity %.3f, build %.3f, prewarm %.3f) run %.3fs (baseline %.3f, ecl %.3f) alloc %.0fMB gc %d\n",
			len(reps), r.setupS(), r.capacityS, r.buildS, r.prewarmS, r.runS(), r.baselineS, r.eclS, float64(r.allocB)/1e6, r.gcCount)
		next := time.Duration(median(durs) * float64(time.Second))
		if time.Since(start)+next > budget {
			return reps, nil
		}
	}
}

// checkReps applies the correctness checks to every rep and requires the
// modelled outcome of every rep to equal the first: the simulation is
// deterministic per seed, so any difference is a bug.
func checkReps(reps []rep) error {
	for i, r := range reps {
		if err := r.check(); err != nil {
			return fmt.Errorf("rep %d: %w", i, err)
		}
		if i == 0 {
			continue
		}
		if r.capacity != reps[0].capacity {
			return fmt.Errorf("rep %d: capacity %v != rep 0's %v at the same seed", i, r.capacity, reps[0].capacity)
		}
		if err := sameRun(reps[0].base, r.base); err != nil {
			return fmt.Errorf("rep %d: baseline run differs from rep 0 at the same seed: %w", i, err)
		}
		if err := sameRun(reps[0].ecl, r.ecl); err != nil {
			return fmt.Errorf("rep %d: ecl run differs from rep 0 at the same seed: %w", i, err)
		}
	}
	return nil
}

// endToEnd fills the end-to-end metrics: medians of the set-up time and
// allocation over the reps, peak RSS, and the modelled metrics (identical
// in every rep). The run phase's wall time is reported per layer: the
// shared host's speed drifts too much for a bound on it (NOTES.md).
func endToEnd(reps []rep, m map[string]metric, samples map[string]int) {
	var setup, alloc []float64
	for _, r := range reps {
		setup = append(setup, r.setupS())
		alloc = append(alloc, float64(r.allocB)/1e6)
	}
	md := reps[0].modelled()
	m["setup_s"] = metric{median(setup), "s"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	m["alloc_mb"] = metric{median(alloc), "MB"}
	m["savings_pct"] = metric{md.savingsPct, "%"}
	m["slo_miss_pct"] = metric{md.sloMissPct, "%"}
	m["latency_p99_ms"] = metric{md.latencyP99Ms, "ms"}
	// latency_p99_ms is the worst of the recorded 1-s-window p99 samples.
	samples["latency_p99_ms.windows"] = len(reps[0].ecl.res.Rec.Series("latency_p99_ms").Values)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func printLine(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(errors.New("perfbench: unencodable output: " + err.Error()))
	}
	fmt.Fprintln(w, string(b))
}
