package workload

import (
	"testing"
)

func newTestSplit() *Split {
	return NewSplit(NewKV(true), NewKV(false), 2)
}

func TestSplitMetadata(t *testing.T) {
	s := newTestSplit()
	if s.Name() != "split:kv-indexed+kv-nonindexed" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.Indexed() {
		t.Error("mixed index-ness should report false")
	}
	if err := s.Characteristics().Validate(); err != nil {
		t.Error(err)
	}
}

func TestSplitSocketCharacteristics(t *testing.T) {
	s := newTestSplit()
	a := s.SocketCharacteristics(0)
	b := s.SocketCharacteristics(1)
	if a.BytesPerInstr == b.BytesPerInstr {
		t.Error("the two sockets should expose different characteristics")
	}
	if a.Name != NewKV(true).Characteristics().Name {
		t.Errorf("socket 0 = %s, want indexed", a.Name)
	}
	if b.Name != NewKV(false).Characteristics().Name {
		t.Errorf("socket 1 = %s, want non-indexed", b.Name)
	}
}

func TestSplitQueriesTargetCorrectSockets(t *testing.T) {
	s := newTestSplit()
	rng := testRng()
	const parts = 16
	states := make([]PartitionState, parts)
	for p := range states {
		states[p] = s.NewPartition(p, rng)
	}
	sawEven, sawOdd := false, false
	for q := 0; q < 500; q++ {
		for _, op := range s.AppendQuery(nil, rng, parts) {
			if op.Partition < 0 || op.Partition >= parts {
				t.Fatalf("op partition %d out of range", op.Partition)
			}
			if op.Partition%2 == 0 {
				sawEven = true
			} else {
				sawOdd = true
			}
			if op.ExecFn != nil {
				// Partition states must match the op's sub-workload:
				// executing against the wrong state would panic.
				op.ExecFn(states[op.Partition], rng, op.ExecCtx)
			}
		}
	}
	if !sawEven || !sawOdd {
		t.Error("both sockets should receive work")
	}
}

func TestSplitRatio(t *testing.T) {
	s := newTestSplit()
	s.Ratio = 0.9
	rng := testRng()
	even := 0
	const n = 2000
	for q := 0; q < n; q++ {
		ops := s.AppendQuery(nil, rng, 16)
		if ops[0].Partition%2 == 0 {
			even++
		}
	}
	frac := float64(even) / n
	if frac < 0.85 || frac > 0.95 {
		t.Errorf("A-share = %.2f, want ~0.9", frac)
	}
}

func TestSplitImplementsPerSocketWorkload(t *testing.T) {
	var w Workload = newTestSplit()
	if _, ok := w.(PerSocketWorkload); !ok {
		t.Fatal("Split must implement PerSocketWorkload")
	}
	if _, ok := Workload(NewKV(true)).(PerSocketWorkload); ok {
		t.Fatal("plain workloads must not claim per-socket characteristics")
	}
}
