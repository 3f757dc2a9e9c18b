// Command profilegen renders energy profiles (the paper's Figures 9, 10
// and the appendix Figures 17-20): configuration generation, skyline,
// ruling zones, and the savings metrics per workload.
//
// Usage:
//
//	profilegen                 # Figures 9, 10 and the appendix profiles
//	profilegen -fig 9          # generator-granularity comparison
//	profilegen -fig 10         # workload-dependent shapes
//	profilegen -fig 17         # appendix (17-20 are printed together)
//	profilegen -workload tatp-indexed   # one workload's profile
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"ecldb/internal/bench"
	"ecldb/internal/energy"
	"ecldb/internal/hw"
	"ecldb/internal/workload"
)

func main() {
	fig := flag.Int("fig", 0, "figure number (9, 10, or 17-20); 0 runs all")
	wlName := flag.String("workload", "", "render the profile of one workload by name")
	parallel := flag.Int("parallel", 0, "worker goroutines for multi-profile sweeps (<1 = GOMAXPROCS); results are identical at any setting")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()
	bench.SetParallelism(*parallel)
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	exitOn(err)
	defer stopProfiles()

	if *wlName != "" {
		if err := renderWorkload(*wlName); err != nil {
			stopProfilesFn()
			fmt.Fprintln(os.Stderr, "profilegen:", err)
			os.Exit(1)
		}
		return
	}

	want9 := *fig == 0 || *fig == 9
	want10 := *fig == 0 || *fig == 10
	wantApp := *fig == 0 || (*fig >= 17 && *fig <= 20)
	if !want9 && !want10 && !wantApp {
		fmt.Fprintf(os.Stderr, "profilegen: unknown figure %d (want 9, 10, or 17-20)\n", *fig)
		os.Exit(2)
	}
	if want9 {
		r, err := bench.Figure9()
		exitOn(err)
		fmt.Println(r.Render())
	}
	if want10 {
		r, err := bench.Figure10()
		exitOn(err)
		fmt.Println(r.Render())
	}
	if wantApp {
		r, err := bench.AppendixProfiles()
		exitOn(err)
		fmt.Println(r.Render())
	}
}

func renderWorkload(name string) error {
	wl := workload.ByName(name)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	topo := hw.HaswellEP()
	cfgs, err := energy.Generate(topo, energy.DefaultGeneratorParams())
	if err != nil {
		return err
	}
	p := energy.NewProfile(topo, cfgs)
	if err := energy.EvaluateModel(p, topo, hw.DefaultPowerParams(), wl.Characteristics(), 0); err != nil {
		return err
	}
	opt := p.MostEfficient(0)
	fmt.Printf("workload %s: %d configurations, optimal %s (eff %.3g instr/J)\n",
		name, p.Size(), opt.Config, opt.Efficiency())
	fmt.Println("skyline (performance level -> efficiency level):")
	max := p.MaxScore()
	for _, e := range p.Skyline() {
		fmt.Printf("  %5.3f -> %5.3f   %s\n", e.Score/max, e.Efficiency()/opt.Efficiency(), e.Config)
	}
	return nil
}

func exitOn(err error) {
	if err != nil {
		stopProfilesFn()
		fmt.Fprintln(os.Stderr, "profilegen:", err)
		os.Exit(1)
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
				fmt.Fprintln(os.Stderr, "profilegen:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "profilegen:", err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "heap profile written to %s\n", memPath)
		}
	}
	return stopProfilesFn, nil
}
