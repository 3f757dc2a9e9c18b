package lint

// modulePath is the import path of this module; ecllint is project-native
// and encodes the repository's own contract.
const modulePath = "ecldb"

// CorePackages lists the deterministic core: every package that runs
// inside a simulation. internal/bench drives simulations (it may use
// testing helpers), internal/lint is tooling, and cmd/ and examples/ are
// CLIs at the edge of the virtual world — none of those are core.
//
// internal/bench being outside the fence is deliberate, not an
// oversight: the parallel sweep orchestrator (bench/sweep.go) fans
// *whole* simulation runs across goroutines, each run owning its clock,
// RNG, machine, engine, and observer. Concurrency between runs cannot
// perturb determinism within a run, so the contract is "no concurrency
// inside a simulation", enforced here, plus "runs share no mutable
// state", proven by the parallel-vs-sequential byte-identity test under
// the race detector (bench.TestParallelSweepByteIdentical). The
// noconc/sweeplike fixture pins the boundary from both sides.
func CorePackages() []string {
	names := []string{
		"vtime", "units", "hw", "dodb", "msg", "ecl", "energy", "obs",
		"obs/trace", "obs/energyattr", "perfmodel", "sim", "storage",
		"workload", "loadprofile", "trace", "ring",
	}
	core := make([]string, 0, len(names))
	for _, n := range names {
		core = append(core, modulePath+"/internal/"+n)
	}
	return core
}

// WalltimeAllowed lists where wall-clock use is legal: the virtual clock
// itself, the CLIs (which report real elapsed time to humans), and the
// serving layer (which paces virtual time against the wall clock and
// runs SSE keepalive timers — all outside the fence).
func WalltimeAllowed() []string {
	return []string{
		modulePath + "/internal/vtime",
		modulePath + "/internal/serve",
		modulePath + "/cmd/",
		modulePath + "/examples/",
	}
}

// DefaultLayering encodes DESIGN.md's dependency direction. Relax a rule
// here — with a review — rather than suppressing findings inline.
func DefaultLayering() LayeringConfig {
	in := func(n string) string { return modulePath + "/internal/" + n }
	return LayeringConfig{
		Rules: []LayerRule{
			{
				Pkg:    in("vtime"),
				Forbid: []string{modulePath + "/internal/"},
				Reason: "the virtual clock is the bottom layer and imports no internal package",
			},
			{
				Pkg:    in("units"),
				Forbid: []string{modulePath + "/internal/"},
				Reason: "the quantity types are a leaf vocabulary package and import no internal package",
			},
			{
				Pkg:    in("ring"),
				Forbid: []string{modulePath + "/internal/"},
				Reason: "the ring container is a leaf data structure under dodb and msg and imports no internal package",
			},
			{
				Pkg:    in("hw"),
				Forbid: []string{in("ecl"), in("dodb"), in("sim"), in("bench")},
				Reason: "the hardware model is observed and actuated by upper layers, never the reverse",
			},
			{
				Pkg:    in("storage"),
				Forbid: []string{in("dodb"), in("ecl"), in("sim"), in("bench")},
				Reason: "data structures sit below the DBMS runtime",
			},
			{
				Pkg: in("obs"),
				Forbid: []string{
					in("bench"), in("dodb"), in("ecl"), in("energy"),
					in("hw"), in("lint"), in("loadprofile"), in("msg"),
					in("perfmodel"), in("sim"), in("storage"), in("trace"),
					in("workload"),
				},
				Reason: "the observability layer is imported by every core package and must depend only on vtime timestamps, never on the packages it observes",
			},
			{
				Pkg: in("obs/trace"),
				Forbid: []string{
					in("bench"), in("dodb"), in("ecl"), in("energy"),
					in("hw"), in("lint"), in("loadprofile"), in("msg"),
					in("perfmodel"), in("sim"), in("storage"), in("trace"),
					in("workload"),
				},
				Reason: "the query span model sits at the bottom of the observability stack: it may see only vtime timestamps and obs, never the runtime packages whose spans it records",
			},
			{
				Pkg: in("obs/energyattr"),
				Forbid: []string{
					in("bench"), in("dodb"), in("ecl"), in("energy"),
					in("hw"), in("lint"), in("loadprofile"), in("msg"),
					in("perfmodel"), in("sim"), in("storage"), in("trace"),
					in("workload"), in("obs"), in("obs/trace"),
				},
				Reason: "the energy-attribution meter is fed by hw/dodb/ecl and must see only the units vocabulary, never the runtime packages whose joules it splits",
			},
		},
		Restricted: []RestrictedImport{
			{
				Target:  in("sim"),
				Within:  modulePath + "/internal/",
				Allowed: []string{in("bench")},
				Reason:  "bench is the only internal consumer of sim; other core packages must not depend on the full wiring",
			},
		},
	}
}

// FenceForbidsServing extends a layering config with the serving fence:
// no core package may import net/http or the serving layer. The serving
// surface (internal/serve, cmd/eclserve) observes the core through
// immutable snapshots only; a fence package reaching for HTTP — or for
// serve's goroutine-ful machinery — would put nondeterminism inside a
// simulation. DefaultLayering applies it to CorePackages; the servelike
// fixture pins the boundary from both sides.
func FenceForbidsServing(cfg LayeringConfig, core []string) LayeringConfig {
	forbid := []string{"net/http", modulePath + "/internal/serve"}
	for _, pkg := range core {
		cfg.Rules = append(cfg.Rules, LayerRule{
			Pkg:    pkg,
			Forbid: forbid,
			Reason: "the determinism fence must not reach the serving surface; serve consumes snapshots from outside",
		})
	}
	return cfg
}

// Default returns the analyzer suite with the repository's configuration
// — what cmd/ecllint runs.
func Default() []*Analyzer {
	core := CorePackages()
	return []*Analyzer{
		NewWalltime(WalltimeAllowed()),
		NewGlobalrand(),
		NewNoconc(core),
		NewMapiter(core),
		NewLayering(FenceForbidsServing(DefaultLayering(), core)),
		hotPathAnalyzer(),
		floatOrderAnalyzer(),
		NewUnit(core),
	}
}
