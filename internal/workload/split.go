package workload

import (
	"math/rand"

	"ecldb/internal/perfmodel"
)

// Split combines two workloads on one database: partitions homed on
// even sockets run A, partitions on odd sockets run B. This exercises the
// paper's point that workload characteristics can differ per processor,
// which is why every socket-level ECL maintains its own energy profile
// (Section 5.1).
//
// The partition-to-socket mapping must match the DBMS runtime's
// round-robin placement (partition p lives on socket p mod sockets).
type Split struct {
	A, B    Workload
	Sockets int
	// Ratio is the fraction of queries drawn from A (default 0.5).
	Ratio float64
}

// NewSplit builds a split workload over the given socket count.
func NewSplit(a, b Workload, sockets int) *Split {
	return &Split{A: a, B: b, Sockets: sockets, Ratio: 0.5}
}

// Name implements Workload.
func (s *Split) Name() string { return "split:" + s.A.Name() + "+" + s.B.Name() }

// Indexed implements Workload.
func (s *Split) Indexed() bool { return s.A.Indexed() && s.B.Indexed() }

// Characteristics implements Workload: the machine-wide blend, used when a
// caller does not ask per socket.
func (s *Split) Characteristics() perfmodel.Characteristics {
	r := s.ratio()
	//ecllint:allow hotpath Split implements PerSocketWorkload, so the engine's step path asks SocketCharacteristics and never reaches this machine-wide blend
	return perfmodel.Blend(s.A.Characteristics(), s.B.Characteristics(), r, 1-r)
}

// SocketCharacteristics implements PerSocketWorkload: even sockets carry
// A's partitions, odd sockets B's.
func (s *Split) SocketCharacteristics(socket int) perfmodel.Characteristics {
	if socket%2 == 0 {
		return s.A.Characteristics()
	}
	return s.B.Characteristics()
}

// NewPartition implements Workload.
func (s *Split) NewPartition(partition int, rng *rand.Rand) PartitionState {
	if s.home(partition)%2 == 0 {
		return s.A.NewPartition(partition, rng)
	}
	return s.B.NewPartition(partition, rng)
}

// AppendQuery implements Workload: draw from A or B and rewrite the
// target partitions of the appended ops onto the sub-workload's sockets.
func (s *Split) AppendQuery(dst []Op, rng *rand.Rand, parts int) []Op {
	useA := rng.Float64() < s.ratio()
	wl := s.B
	if useA {
		wl = s.A
	}
	n := len(dst)
	dst = wl.AppendQuery(dst, rng, parts)
	// Remap each op's partition onto a partition whose home socket
	// belongs to the chosen sub-workload, preserving the op's spread.
	for i := n; i < len(dst); i++ {
		dst[i].Partition = s.remap(dst[i].Partition, parts, useA)
	}
	return dst
}

// ratio returns the A-share, defaulting to one half.
func (s *Split) ratio() float64 {
	if s.Ratio <= 0 || s.Ratio >= 1 {
		return 0.5
	}
	return s.Ratio
}

// home mirrors the DBMS runtime's partition placement.
func (s *Split) home(partition int) int {
	if s.Sockets <= 0 {
		return 0
	}
	return partition % s.Sockets
}

// remap folds a partition index onto the sockets of sub-workload A (even)
// or B (odd), keeping the distribution roughly uniform.
func (s *Split) remap(p, parts int, useA bool) int {
	if s.Sockets <= 1 {
		return p
	}
	want := 1 // odd socket
	if useA {
		want = 0
	}
	if s.home(p)%2 == want%2 {
		return p
	}
	// Shift to a neighboring partition on the right socket parity.
	q := p + 1
	if q >= parts {
		q = p - 1
	}
	if q < 0 {
		return p
	}
	return q
}

// PerSocketWorkload is implemented by workloads whose hardware
// characteristics differ per socket. The simulation uses it to compute
// per-socket budgets, letting each socket-level ECL's profile diverge.
type PerSocketWorkload interface {
	Workload
	SocketCharacteristics(socket int) perfmodel.Characteristics
}
