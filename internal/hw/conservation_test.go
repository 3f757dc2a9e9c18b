package hw

import (
	"testing"
	"testing/quick"
	"time"

	"ecldb/internal/units"
)

// Property: under arbitrary configuration/activity sequences, energy
// accounting stays consistent — counters never decrease, the PSU meter
// dominates the RAPL-visible energy, and the RAPL read never exceeds the
// true integral.
func TestEnergyConservationProperties(t *testing.T) {
	f := func(seedRaw uint64) bool {
		seed := seedRaw
		next := func(mod uint64) int {
			seed = seed*6364136223846793005 + 1442695040888963407
			return int((seed >> 33) % mod)
		}
		m := NewMachine(HaswellEP(), DefaultPowerParams(), int64(seedRaw))
		topo := m.Topology()
		prevTrue := make([]units.Joule, topo.Sockets)
		prevRead := make([]units.Joule, topo.Sockets)
		var prevPSU units.Joule
		for step := 0; step < 60; step++ {
			// Occasionally reconfigure a random socket.
			if next(3) == 0 {
				s := next(uint64(topo.Sockets))
				cfg := NewConfiguration(topo)
				n := next(uint64(topo.ThreadsPerSocket() + 1))
				for i := 0; i < n; i++ {
					cfg.Threads[i] = true
				}
				freq := MinCoreMHz + next(15)*FreqStepMHz
				for i := range cfg.CoreMHz {
					cfg.CoreMHz[i] = freq
				}
				cfg.UncoreMHz = MinUncoreMHz + next(19)*FreqStepMHz
				if err := m.Apply(s, cfg); err != nil {
					return false
				}
			}
			acts := make([]SocketActivity, topo.Sockets)
			for s := range acts {
				n := topo.ThreadsPerSocket()
				acts[s] = SocketActivity{Busy: make([]float64, n), Spin: make([]float64, n), Instr: make([]float64, n)}
				eff := m.Effective(s)
				for i := 0; i < n; i++ {
					if eff.Threads[i] {
						acts[s].Busy[i] = float64(next(101)) / 100
						acts[s].Instr[i] = float64(next(1000)) * 1e3
					}
				}
				acts[s].MemGBs = float64(next(57))
			}
			m.Step(time.Duration(1+next(20))*time.Millisecond, acts)

			var raplTotal units.Joule
			for s := 0; s < topo.Sockets; s++ {
				tr := m.TrueEnergy(s, DomainPackage) + m.TrueEnergy(s, DomainDRAM)
				rd := m.ReadEnergy(s, DomainPackage) + m.ReadEnergy(s, DomainDRAM)
				if tr < prevTrue[s] || rd < prevRead[s] {
					return false // counters must be monotone
				}
				if rd > tr {
					return false // a read never exceeds the integral
				}
				prevTrue[s], prevRead[s] = tr, rd
				raplTotal += tr
			}
			psu := m.PSUEnergy()
			if psu < prevPSU || psu < raplTotal {
				return false // the wall always pays more than RAPL sees
			}
			prevPSU = psu
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
