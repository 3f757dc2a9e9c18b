package hw

import (
	"math"

	"ecldb/internal/units"
)

// PowerParams calibrates the machine's power model. The defaults reproduce
// the paper's Section 2 measurements on the 2-socket Haswell-EP system:
//
//   - static (idle, uncore halted) power is ~18 % of sustained peak
//     (Figure 3),
//   - activating the first core of a socket is expensive because it wakes
//     the uncore/LLC; halting the uncore saves up to ~30 W (Figure 4),
//   - additional physical cores cost a clock-dependent, roughly constant
//     increment; HyperThread siblings are almost free (Figure 4),
//   - socket 0 draws slightly more power than socket 1, an asymmetry the
//     authors observed but could not explain (Figure 5),
//   - running the uncore at 3.0 GHz instead of 1.2 GHz costs ~12 W under
//     a compute-bound load (Figure 8),
//   - the PSU-level measurement exceeds the RAPL-visible power by a
//     conversion/fan/motherboard overhead of ~15 % plus a fixed floor
//     (Figure 3).
type PowerParams struct {
	// PkgFloorW is the package power of a socket whose uncore clock is
	// halted (deepest package sleep). Indexed by socket to model the
	// asymmetry of Figure 5; sockets beyond the slice reuse the last
	// entry.
	PkgFloorW []units.Watt
	// UncoreBaseW is the uncore+LLC power at the minimum uncore clock.
	UncoreBaseW units.Watt
	// UncoreDynW is the additional uncore power at the maximum uncore
	// clock (quadratic in between, DVFS-style).
	UncoreDynW units.Watt
	// UncoreLoadW is the extra uncore power at full memory-controller
	// utilization.
	UncoreLoadW units.Watt
	// CoreIdleW is the power of an active (C0) but idle physical core.
	CoreIdleW units.Watt
	// CoreDynCoefW scales the dynamic power of a fully busy core:
	// P = CoreDynCoefW * (GHz)^2. Watts per GHz², not a power — it stays
	// a raw coefficient by design.
	//ecllint:allow unit W-per-GHz² coefficient, not a power
	CoreDynCoefW float64
	// HTSiblingFrac is the fraction of a second sibling's load that adds
	// to core activity (HyperThreads share the core pipeline, so the
	// second sibling is nearly free).
	HTSiblingFrac float64
	// SpinPowerFrac is the activity equivalent of a spin-polling thread
	// relative to a fully busy one.
	SpinPowerFrac float64
	// DRAMStaticW is the idle DRAM power per socket (LRDIMM refresh).
	DRAMStaticW units.Watt
	// DRAMPerGBsW is the DRAM power per GB/s of traffic — a mixed unit,
	// deliberately a raw coefficient.
	//ecllint:allow unit W-per-GB/s coefficient, not a power
	DRAMPerGBsW float64
	// PSUOverheadFrac is the fractional conversion overhead of the power
	// supply unit on top of the RAPL-visible power.
	PSUOverheadFrac float64
	// PSUFixedW is the fixed non-RAPL power (fans, motherboard, PSU
	// floor).
	PSUFixedW units.Watt
	// TDPWatts is the per-socket sustained package power limit. Power
	// above it is tolerated only for TurboBudgetJ joules, after which
	// the package throttles (the paper notes the 500 W turbo peak can
	// endure only ~1 s).
	TDPWatts units.Watt
	// TurboBudgetJ is the energy budget for exceeding TDP.
	TurboBudgetJ units.Joule
}

// DefaultPowerParams returns the calibration used throughout the
// reproduction (see PowerParams for the paper anchors).
func DefaultPowerParams() PowerParams {
	return PowerParams{
		PkgFloorW:       []units.Watt{8.0, 5.5},
		UncoreBaseW:     15.0,
		UncoreDynW:      13.0,
		UncoreLoadW:     4.0,
		CoreIdleW:       0.3,
		CoreDynCoefW:    0.87,
		HTSiblingFrac:   0.22,
		SpinPowerFrac:   0.70,
		DRAMStaticW:     14.0,
		DRAMPerGBsW:     0.25,
		PSUOverheadFrac: 0.15,
		PSUFixedW:       18.0,
		TDPWatts:        135.0,
		TurboBudgetJ:    140.0,
	}
}

// pkgFloor returns the floor power for a socket index.
func (p PowerParams) pkgFloor(socket int) units.Watt {
	if len(p.PkgFloorW) == 0 {
		return 0
	}
	if socket >= len(p.PkgFloorW) {
		socket = len(p.PkgFloorW) - 1
	}
	return p.PkgFloorW[socket]
}

// uncoreNorm maps an uncore clock to [0,1].
func uncoreNorm(mhz int) float64 {
	return float64(mhz-MinUncoreMHz) / float64(MaxUncoreMHz-MinUncoreMHz)
}

// UncorePowerW returns the uncore+LLC power for a given uncore clock and
// memory-controller utilization in [0,1], assuming the uncore is running.
func (p PowerParams) UncorePowerW(uncoreMHz int, memUtil float64) units.Watt {
	n := uncoreNorm(uncoreMHz)
	base, dyn, load := p.UncoreBaseW.Watts(), p.UncoreDynW.Watts(), p.UncoreLoadW.Watts()
	return units.WattsOf(base + dyn*n*n + load*clamp01(memUtil)*n)
}

// DRAMPowerW returns the DRAM power of one socket given traffic in GB/s.
func (p PowerParams) DRAMPowerW(trafficGBs float64) units.Watt {
	if trafficGBs < 0 {
		trafficGBs = 0
	}
	return units.WattsOf(p.DRAMStaticW.Watts() + p.DRAMPerGBsW*trafficGBs)
}

// SocketActivity describes, for one simulation step, the load the database
// runtime placed on one socket. It is the input to power integration and
// to the performance counters.
type SocketActivity struct {
	// Busy is the per-local-thread fraction of the step spent doing
	// useful work (0..1). Entries for inactive threads must be 0.
	Busy []float64
	// Spin is the per-local-thread fraction spent busy-polling for
	// messages. Polling keeps the core in C0 at reduced activity and
	// retires instructions at a low rate.
	Spin []float64
	// Instr is the number of instructions retired per local thread
	// during the step (useful work plus polling).
	Instr []float64
	// MemGBs is the DRAM traffic of the socket in GB/s during the step.
	MemGBs float64
	// DynScale scales dynamic core power for workload intensity
	// (e.g. AVX-heavy full-load code draws more per cycle). Zero means 1.
	DynScale float64
}

// SocketPowerW computes the RAPL-visible package and DRAM power of one
// socket under a configuration and activity. uncoreHalted must reflect the
// machine-wide halting rule (only when every socket is idle).
func (p PowerParams) SocketPowerW(t Topology, socket int, cfg Configuration, act SocketActivity, uncoreHalted bool, bwCapGBs float64) (pkgW, dramW units.Watt) {
	dramW = p.DRAMPowerW(act.MemGBs)
	if uncoreHalted {
		return p.pkgFloor(socket), dramW
	}
	memUtil := 0.0
	if bwCapGBs > 0 {
		memUtil = clamp01(act.MemGBs / bwCapGBs)
	}
	pkgW = p.pkgFloor(socket) + p.UncorePowerW(cfg.UncoreMHz, memUtil)
	dyn := act.DynScale
	if dyn == 0 {
		dyn = 1
	}
	tpc := t.ThreadsPerCore
	for core := 0; core < t.CoresPerSocket; core++ {
		if !cfg.CoreActive(core, tpc) {
			continue // power-gated (C6)
		}
		// Combine the sibling loads of the core into one activity factor:
		// the strongest sibling counts fully, further siblings at
		// HTSiblingFrac (HyperThreads share the core pipeline).
		maxL, sumL := 0.0, 0.0
		for s := 0; s < tpc; s++ {
			lt := core*tpc + s
			if !cfg.Threads[lt] {
				continue
			}
			l := 0.0
			if lt < len(act.Busy) {
				l += act.Busy[lt]
			}
			if lt < len(act.Spin) {
				l += p.SpinPowerFrac * act.Spin[lt]
			}
			l = clamp01(l)
			sumL += l
			if l > maxL {
				maxL = l
			}
		}
		activity := maxL + p.HTSiblingFrac*(sumL-maxL)
		pkgW += p.CoreIdleW + units.WattsOf(activity*dyn*p.CoreDynCoefW*sq(float64(cfg.CoreMHz[core])/1000.0))
	}
	return pkgW, dramW
}

// PSUPowerW converts total RAPL-visible power into the PSU-level power an
// external meter would report.
func (p PowerParams) PSUPowerW(raplW units.Watt) units.Watt {
	return raplW.Scale(1+p.PSUOverheadFrac) + p.PSUFixedW
}

func sq(x float64) float64 { return x * x }

func clamp01(x float64) float64 {
	return math.Min(1, math.Max(0, x))
}
