// Command eclserve runs one ECL-governed simulation and serves it live
// over HTTP: a built-in dashboard at /, the Prometheus text exposition at
// /metrics, and a Server-Sent-Events stream of decision events, samples,
// and query spans at /events — all from a single stdlib-only binary.
//
// Usage:
//
//	eclserve -fig 13 -listen :8080 -pace 1x     # watch the spike experiment in real time
//	eclserve -fig 14 -pace 10x                  # twitter profile at 10x speed
//	eclserve -workload tatp -load constant -level 0.6 -duration 2m -pace max
//
// -pace sets the virtual-to-wall speed ratio: "1x" replays the run in
// real time, "10x" ten times faster, "max" (or "0") as fast as the host
// can simulate. Pacing only parks the simulation thread between quanta —
// it never changes simulation state, so a served run is byte-identical
// to a headless one (the serve package's neutrality test pins this).
//
// -eattr (on by default) attaches the energy-attribution meter: the
// dashboard gains the energy panel (per-query joules, class split,
// saving versus the frozen always-max baseline) and /metrics gains the
// ecl_energy_* series. The meter only mirrors values the run already
// computes, so attaching it never changes simulation results.
//
// When the run finishes the process keeps serving the final state —
// dashboard, metrics, and late /events subscribers all keep working — so
// the result can be inspected at leisure; interrupt to quit.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"ecldb/internal/bench"
	"ecldb/internal/hw"
	"ecldb/internal/loadprofile"
	"ecldb/internal/obs"
	"ecldb/internal/obs/energyattr"
	"ecldb/internal/obs/trace"
	"ecldb/internal/serve"
	"ecldb/internal/sim"
	"ecldb/internal/workload"
)

// admitSampling thins QueryAdmit/QueryComplete events in the ring buffer:
// at thousands of queries per second they would otherwise evict every
// control decision between two snapshots. Counters stay exact; the
// decision stream excludes them anyway.
const admitSampling = 256

func main() {
	fig := flag.Int("fig", 0, "serve a figure experiment's ECL run (13 = spike, 14 = twitter)")
	wlName := flag.String("workload", "", "custom run: workload name (kv, tatp, tatp-indexed, ...)")
	loadName := flag.String("load", "spike", "custom run: load profile (spike, twitter, constant)")
	level := flag.Float64("level", 0.5, "custom run: constant-load level relative to capacity")
	duration := flag.Duration("duration", 3*time.Minute, "profile duration (virtual)")
	seed := flag.Int64("seed", 42, "random seed")
	listen := flag.String("listen", ":8080", "HTTP listen address")
	paceFlag := flag.String("pace", "1x", `virtual-to-wall speed ratio: "1x", "2.5x", ... or "max"/"0" for unpaced`)
	eventsCap := flag.Int("events-cap", 65536, "decision-event ring capacity (0 = unbounded; exact counts are kept either way)")
	qtraceSample := flag.Int("qtrace-sample", 16, "trace one query span per N admissions (1 = every query, 0 = tracing off)")
	eattr := flag.Bool("eattr", true, "attach the energy-attribution meter (dashboard energy panel, ecl_energy_* metrics)")
	flag.Parse()

	pace, err := parsePace(*paceFlag)
	exitOn(err)

	var wl workload.Workload
	var title, loadKind string
	switch {
	case *fig == 13:
		wl, title, loadKind = workload.NewKV(false), "fig 13 — spike overload", "spike"
	case *fig == 14:
		wl, title, loadKind = workload.NewKV(false), "fig 14 — twitter day", "twitter"
	case *wlName != "":
		wl = workload.ByName(*wlName)
		if wl == nil {
			exitOn(fmt.Errorf("unknown workload %q", *wlName))
		}
		title, loadKind = *wlName+" / "+*loadName, *loadName
	default:
		flag.Usage()
		os.Exit(2)
	}

	fmt.Printf("measuring %s capacity...\n", wl.Name())
	capacity, err := bench.MeasureCapacity(wl, *seed)
	exitOn(err)

	var load loadprofile.Profile
	switch loadKind {
	case "spike":
		load = loadprofile.Spike{PeakQps: capacity * 1.15, Len: *duration}
	case "twitter":
		load = loadprofile.Twitter{BaseQps: capacity * 0.8, Len: *duration}
	case "constant":
		load = loadprofile.Constant{Qps: capacity * *level, Len: *duration}
	default:
		exitOn(fmt.Errorf("unknown load profile %q", loadKind))
	}

	ob := obs.New(*eventsCap)
	ob.Log.SetSampling(obs.EvQueryAdmit, admitSampling)
	ob.Log.SetSampling(obs.EvQueryComplete, admitSampling)
	if *qtraceSample > 0 {
		ob.Trace = trace.New(*qtraceSample)
	}
	if *eattr {
		ob.Energy = energyattr.New(hw.HaswellEP().Sockets)
	}

	pub := serve.NewPublisher(ob, pace)
	topo := hw.HaswellEP()
	srv := serve.NewServer(serve.Meta{
		Title:       title,
		Workload:    wl.Name(),
		Level:       loadKind,
		Sockets:     topo.Sockets,
		Threads:     topo.TotalThreads(),
		DurationNs:  duration.Nanoseconds(),
		Pace:        pace,
		Seed:        uint64(*seed),
		QTraceEvery: *qtraceSample,
	})
	go srv.Run(pub.Snapshots())

	l, err := net.Listen("tcp", *listen)
	exitOn(err)
	fmt.Printf("serving http://%s  (dashboard /, metrics /metrics, stream /events)\n", hostURL(*listen, l))
	go func() {
		if err := http.Serve(l, srv.Handler()); err != nil {
			fmt.Fprintln(os.Stderr, "eclserve:", err)
		}
	}()

	fmt.Printf("running %s: capacity %.0f qps, %s load for %v at %s\n",
		wl.Name(), capacity, loadKind, *duration, paceLabel(pace))
	start := time.Now()
	res, err := sim.Run(sim.Options{
		Workload: wl,
		Load:     load,
		Governor: sim.GovernorECL,
		Prewarm:  true,
		Seed:     *seed,
		Obs:      ob,
		Hook:     pub,
	})
	exitOn(err)
	fmt.Printf("run finished in %v wall: energy %.0f J  PSU %.0f J  completed %d  avg latency %v  violations %.1f%%\n",
		time.Since(start).Round(time.Millisecond), res.EnergyJ.Joules(), res.PSUEnergyJ.Joules(),
		res.Completed, res.AvgLatency, res.ViolationFrac*100)
	fmt.Println("still serving the final state; interrupt (Ctrl-C) to quit")
	select {}
}

// parsePace turns "1x", "2.5x", "0.5", "max", or "0" into the ratio the
// publisher expects (0 = unpaced).
func parsePace(s string) (float64, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "max" || s == "" {
		return 0, nil
	}
	s = strings.TrimSuffix(s, "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad -pace %q: want \"1x\", \"10x\", \"max\", or \"0\"", s)
	}
	return v, nil
}

func paceLabel(pace float64) string {
	if pace <= 0 {
		return "max speed"
	}
	return fmt.Sprintf("%gx real time", pace)
}

// hostURL renders a clickable address for the startup line: a bare
// ":8080" listen flag becomes "localhost:8080".
func hostURL(flagAddr string, l net.Listener) string {
	if strings.HasPrefix(flagAddr, ":") {
		return "localhost" + flagAddr
	}
	return l.Addr().String()
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "eclserve:", err)
		os.Exit(1)
	}
}
