package hw

import (
	"fmt"
	"strconv"
	"strings"
)

// Frequency limits of the simulated Haswell-EP parts, in MHz. Core clocks
// are per physical core; the uncore clock (last-level cache and memory
// controllers) is per socket.
const (
	MinCoreMHz   = 1200
	MaxCoreMHz   = 2600 // highest non-turbo P-state
	TurboMHz     = 3100 // energy-efficient turbo ceiling
	MinUncoreMHz = 1200
	MaxUncoreMHz = 3000
	FreqStepMHz  = 100
)

// Configuration is the paper's per-socket hardware configuration
// (Section 4.1): the set of active hardware threads, the frequency of each
// active physical core, and the uncore frequency. Inactive cores are
// power-gated (C-state); if no thread is active on any socket of the
// machine the uncore clocks halt and the last-level caches power-gate.
type Configuration struct {
	// Threads marks which socket-local hardware threads are active.
	// Length must equal Topology.ThreadsPerSocket().
	Threads []bool
	// CoreMHz holds the clock of each socket-local physical core.
	// It is meaningful only for cores with at least one active thread;
	// the paper sets all other clocks to their minimum. Length must
	// equal Topology.CoresPerSocket.
	CoreMHz []int
	// UncoreMHz is the socket's uncore clock.
	UncoreMHz int
}

// NewConfiguration returns an all-inactive ("idle") configuration for one
// socket of the topology, with all clocks at their minimum.
func NewConfiguration(t Topology) Configuration {
	c := Configuration{
		Threads:   make([]bool, t.ThreadsPerSocket()),
		CoreMHz:   make([]int, t.CoresPerSocket),
		UncoreMHz: MinUncoreMHz,
	}
	for i := range c.CoreMHz {
		c.CoreMHz[i] = MinCoreMHz
	}
	return c
}

// AllMax returns the configuration database systems without energy control
// use: every hardware thread active and every clock at its maximum
// (turbo core clock, maximum uncore clock). This is the paper's
// race-to-idle baseline state.
func AllMax(t Topology) Configuration {
	c := NewConfiguration(t)
	for i := range c.Threads {
		c.Threads[i] = true
	}
	for i := range c.CoreMHz {
		c.CoreMHz[i] = TurboMHz
	}
	c.UncoreMHz = MaxUncoreMHz
	return c
}

// Clone returns a deep copy of the configuration.
func (c Configuration) Clone() Configuration {
	out := Configuration{
		Threads:   append([]bool(nil), c.Threads...),
		CoreMHz:   append([]int(nil), c.CoreMHz...),
		UncoreMHz: c.UncoreMHz,
	}
	return out
}

// Validate checks the configuration against a topology and the frequency
// limits of the platform.
func (c Configuration) Validate(t Topology) error {
	if len(c.Threads) != t.ThreadsPerSocket() {
		return fmt.Errorf("hw: config has %d thread slots, topology has %d", len(c.Threads), t.ThreadsPerSocket())
	}
	if len(c.CoreMHz) != t.CoresPerSocket {
		return fmt.Errorf("hw: config has %d core clocks, topology has %d cores", len(c.CoreMHz), t.CoresPerSocket)
	}
	for core, f := range c.CoreMHz {
		if f < MinCoreMHz || f > TurboMHz {
			return fmt.Errorf("hw: core %d clock %d MHz outside [%d, %d]", core, f, MinCoreMHz, TurboMHz)
		}
	}
	if c.UncoreMHz < MinUncoreMHz || c.UncoreMHz > MaxUncoreMHz {
		return fmt.Errorf("hw: uncore clock %d MHz outside [%d, %d]", c.UncoreMHz, MinUncoreMHz, MaxUncoreMHz)
	}
	return nil
}

// ActiveThreads returns the number of active hardware threads.
func (c Configuration) ActiveThreads() int {
	n := 0
	for _, a := range c.Threads {
		if a {
			n++
		}
	}
	return n
}

// ActiveThreadList returns the socket-local indices of active threads.
func (c Configuration) ActiveThreadList() []int {
	var out []int
	for i, a := range c.Threads {
		if a {
			out = append(out, i)
		}
	}
	return out
}

// CoreActive reports whether any hardware thread of the given socket-local
// core is active, for a topology with the given SMT width.
func (c Configuration) CoreActive(core, threadsPerCore int) bool {
	for i := 0; i < threadsPerCore; i++ {
		if c.Threads[core*threadsPerCore+i] {
			return true
		}
	}
	return false
}

// ActiveCores returns the number of physical cores with at least one
// active hardware thread.
func (c Configuration) ActiveCores(threadsPerCore int) int {
	n := 0
	for core := 0; core*threadsPerCore < len(c.Threads); core++ {
		if c.CoreActive(core, threadsPerCore) {
			n++
		}
	}
	return n
}

// Idle reports whether no hardware thread is active.
func (c Configuration) Idle() bool {
	return c.ActiveThreads() == 0
}

// AvgCoreMHz returns the mean clock of the active physical cores, or 0 if
// the configuration is idle.
func (c Configuration) AvgCoreMHz(threadsPerCore int) float64 {
	sum, n := 0, 0
	for core, f := range c.CoreMHz {
		if c.CoreActive(core, threadsPerCore) {
			sum += f
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Equal reports whether two configurations describe the same hardware
// state. Clocks of inactive cores are ignored, since the platform forces
// them to the minimum anyway.
func (c Configuration) Equal(o Configuration, threadsPerCore int) bool {
	if len(c.Threads) != len(o.Threads) || len(c.CoreMHz) != len(o.CoreMHz) || c.UncoreMHz != o.UncoreMHz {
		return false
	}
	for i := range c.Threads {
		if c.Threads[i] != o.Threads[i] {
			return false
		}
	}
	for core := range c.CoreMHz {
		if c.CoreActive(core, threadsPerCore) && c.CoreMHz[core] != o.CoreMHz[core] {
			return false
		}
	}
	return true
}

// Key returns a canonical string identifying the hardware state, usable as
// a map key. Clocks of inactive cores are normalized out.
func (c Configuration) Key(threadsPerCore int) string {
	return string(c.AppendKey(nil, threadsPerCore))
}

// AppendKey appends Key's bytes to dst and returns the extended slice. A
// caller that reuses dst can look the key up in a string-keyed map with
// m[string(b)], which does not allocate.
func (c Configuration) AppendKey(dst []byte, threadsPerCore int) []byte {
	for _, a := range c.Threads {
		if a {
			dst = append(dst, '1')
		} else {
			dst = append(dst, '0')
		}
	}
	dst = append(dst, '/')
	for core, f := range c.CoreMHz {
		if core > 0 {
			dst = append(dst, ',')
		}
		if c.CoreActive(core, threadsPerCore) {
			dst = strconv.AppendInt(dst, int64(f), 10)
		} else {
			dst = append(dst, '-')
		}
	}
	dst = append(dst, '/')
	return strconv.AppendInt(dst, int64(c.UncoreMHz), 10)
}

// String renders a compact human-readable form, e.g.
// "6t@{2x1200,1x2600}/unc2400".
func (c Configuration) String() string {
	if c.Idle() {
		return "idle"
	}
	// Count active cores per frequency (assumes 2-way SMT layout when
	// threadsPerCore is unknown; String is presentation-only).
	tpc := len(c.Threads) / len(c.CoreMHz)
	counts := map[int]int{}
	for core, f := range c.CoreMHz {
		if c.CoreActive(core, tpc) {
			counts[f]++
		}
	}
	var parts []string
	for f := MinCoreMHz; f <= TurboMHz; f += FreqStepMHz {
		if n := counts[f]; n > 0 {
			parts = append(parts, fmt.Sprintf("%dx%d", n, f))
		}
	}
	return fmt.Sprintf("%dt@{%s}/unc%d", c.ActiveThreads(), strings.Join(parts, ","), c.UncoreMHz)
}
