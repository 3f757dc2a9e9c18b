package workload

import "testing"

func TestYCSBMixes(t *testing.T) {
	for _, mix := range []byte{'A', 'B', 'C', 'a'} {
		y, err := NewYCSB(mix)
		if err != nil {
			t.Fatalf("mix %c: %v", mix, err)
		}
		if err := y.Characteristics().Validate(); err != nil {
			t.Errorf("%s: %v", y.Name(), err)
		}
		if !y.Indexed() {
			t.Errorf("%s should be indexed", y.Name())
		}
	}
	if _, err := NewYCSB('Z'); err == nil {
		t.Error("unknown mix should fail")
	}
}

func TestYCSBByName(t *testing.T) {
	if w := ByName("ycsb-A"); w == nil || w.Name() != "ycsb-A" {
		t.Error("ByName(ycsb-A) failed")
	}
	if ByName("ycsb-Z") != nil {
		t.Error("ByName(ycsb-Z) should be nil")
	}
}

func TestYCSBQueriesExecute(t *testing.T) {
	y, err := NewYCSB('A')
	if err != nil {
		t.Fatal(err)
	}
	rng := testRng()
	states := make([]PartitionState, 4)
	for p := range states {
		states[p] = y.NewPartition(p, rng)
	}
	for q := 0; q < 200; q++ {
		for _, op := range y.AppendQuery(nil, rng, 4) {
			if op.Instr <= 0 || op.Partition < 0 || op.Partition >= 4 {
				t.Fatal("bad op")
			}
			op.ExecFn(states[op.Partition], rng, op.ExecCtx)
		}
	}
}

func TestYCSBWriteShareShapesCharacteristics(t *testing.T) {
	a, _ := NewYCSB('A')
	c, _ := NewYCSB('C')
	if a.Characteristics().BytesPerInstr <= c.Characteristics().BytesPerInstr {
		t.Error("update-heavy mix should generate more traffic")
	}
	if a.Characteristics().HTYield >= c.Characteristics().HTYield {
		t.Error("update-heavy mix should have lower SMT yield")
	}
}
