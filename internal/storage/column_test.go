package storage

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestColumnAppendGetSet(t *testing.T) {
	c := NewColumn("x", 4)
	if c.Len() != 0 {
		t.Fatal("new column not empty")
	}
	r0 := c.Append(10)
	r1 := c.Append(20)
	if r0 != 0 || r1 != 1 {
		t.Fatalf("rows = %d,%d, want 0,1", r0, r1)
	}
	if c.Get(0) != 10 || c.Get(1) != 20 {
		t.Fatal("Get returned wrong values")
	}
	c.Set(0, 99)
	if c.Get(0) != 99 {
		t.Fatal("Set did not stick")
	}
	if c.Name() != "x" {
		t.Fatalf("Name = %q", c.Name())
	}
}

func TestColumnScanPredicates(t *testing.T) {
	c := NewColumn("v", 0)
	for i := int64(0); i < 100; i++ {
		c.Append(i)
	}
	rows := c.Scan(Between(10, 19), nil)
	if len(rows) != 10 || rows[0] != 10 || rows[9] != 19 {
		t.Fatalf("Between scan = %v", rows)
	}
	rows = c.Scan(EqualTo(42), nil)
	if len(rows) != 1 || rows[0] != 42 {
		t.Fatalf("EqualTo scan = %v", rows)
	}
	rows = c.Scan(All(), nil)
	if len(rows) != 100 {
		t.Fatalf("All matched %d rows, want 100", len(rows))
	}
	// Scan appends to the provided slice.
	prefix := []int{-1}
	rows = c.Scan(EqualTo(5), prefix)
	if len(rows) != 2 || rows[0] != -1 || rows[1] != 5 {
		t.Fatalf("Scan with prefix = %v", rows)
	}
}

func TestColumnScanAggregate(t *testing.T) {
	c := NewColumn("v", 0)
	for _, v := range []int64{5, -3, 8, 0, 12} {
		c.Append(v)
	}
	count, sum, min, max := c.ScanAggregate(All())
	if count != 5 || sum != 22 || min != -3 || max != 12 {
		t.Fatalf("aggregate = %d,%d,%d,%d", count, sum, min, max)
	}
	count, sum, min, max = c.ScanAggregate(Between(0, 10))
	if count != 3 || sum != 13 || min != 0 || max != 8 {
		t.Fatalf("filtered aggregate = %d,%d,%d,%d", count, sum, min, max)
	}
	count, _, _, _ = c.ScanAggregate(EqualTo(999))
	if count != 0 {
		t.Fatalf("empty aggregate count = %d", count)
	}
}

func TestColumnSumRows(t *testing.T) {
	c := NewColumn("v", 0)
	for i := int64(0); i < 10; i++ {
		c.Append(i * i)
	}
	if got := c.SumRows([]int{1, 2, 3}); got != 1+4+9 {
		t.Fatalf("SumRows = %d, want 14", got)
	}
	if got := c.SumRows(nil); got != 0 {
		t.Fatalf("SumRows(nil) = %d, want 0", got)
	}
}

// Property: ScanAggregate agrees with a reference computation.
func TestColumnAggregateMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewColumn("v", 0)
		n := rng.Intn(500)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(2001) - 1000)
			c.Append(vals[i])
		}
		lo, hi := int64(-500), int64(500)
		count, sum, min, max := c.ScanAggregate(Between(lo, hi))
		rc, rs := 0, int64(0)
		rmin, rmax := int64(0), int64(0)
		first := true
		for _, v := range vals {
			if v < lo || v > hi {
				continue
			}
			rc++
			rs += v
			if first || v < rmin {
				rmin = v
			}
			if first || v > rmax {
				rmax = v
			}
			first = false
		}
		return count == rc && sum == rs && (rc == 0 || (min == rmin && max == rmax))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
