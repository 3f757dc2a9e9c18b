package energy

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ecldb/internal/hw"
	"ecldb/internal/perfmodel"
	"ecldb/internal/units"
)

func TestProfileSaveLoadRoundTrip(t *testing.T) {
	p := NewProfile(topo, mustGenerate(t, DefaultGeneratorParams()))
	if err := EvaluateModel(p, topo, hw.DefaultPowerParams(), perfmodel.ComputeBound(), 3*time.Second); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfile(&buf, topo)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != p.Size() {
		t.Fatalf("Size = %d, want %d", got.Size(), p.Size())
	}
	for i, e := range p.Entries() {
		g := got.Entries()[i]
		if !g.Config.Equal(e.Config, topo.ThreadsPerCore) {
			t.Fatalf("entry %d configuration mismatch", i)
		}
		if g.PowerW != e.PowerW || g.Score != e.Score || g.Evaluated != e.Evaluated || g.LastEval != e.LastEval {
			t.Fatalf("entry %d measurements mismatch: %+v vs %+v", i, g, e)
		}
	}
	// The loaded profile is functional.
	if got.MostEfficient() == nil || got.MostEfficient().Config.String() != p.MostEfficient().Config.String() {
		t.Error("loaded profile has a different optimum")
	}
}

func TestProfileSaveLoadUnevaluated(t *testing.T) {
	p := NewProfile(topo, mustGenerate(t, DefaultGeneratorParams()))
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfile(&buf, topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range got.Entries() {
		if e.Evaluated {
			t.Fatal("unevaluated entries must stay unevaluated")
		}
	}
}

func TestLoadProfileRejectsGarbage(t *testing.T) {
	if _, err := LoadProfile(strings.NewReader("not json"), topo); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := LoadProfile(strings.NewReader(`{"version":9}`), topo); err == nil {
		t.Error("unknown version should fail")
	}
	// A configuration that does not fit the topology.
	bad := `{"version":1,"entries":[{"threads":[true],"core_mhz":[1200],"uncore_mhz":1200}]}`
	if _, err := LoadProfile(strings.NewReader(bad), topo); err == nil {
		t.Error("mismatched topology should fail")
	}
}

// evaluatedEntryJSON is a saved one-entry profile of the all-threads,
// top-clock configuration of the test topology, evaluated with the given
// measurements.
func evaluatedEntryJSON(powerW, score string, lastEvalNs string) string {
	threads := strings.TrimSuffix(strings.Repeat("true,", topo.ThreadsPerSocket()), ",")
	cores := strings.TrimSuffix(strings.Repeat("3100,", topo.ThreadsPerSocket()/topo.ThreadsPerCore), ",")
	return `{"version":1,"entries":[{"threads":[` + threads + `],"core_mhz":[` + cores +
		`],"uncore_mhz":3000,"power_w":` + powerW + `,"score":` + score +
		`,"evaluated":true,"last_eval_ns":` + lastEvalNs + `}]}`
}

// TestLoadProfileRejectsNegativeMeasurements checks that a saved profile
// cannot carry a measurement Profile.Update refuses: each negative field
// fails the load with an error naming the entry.
func TestLoadProfileRejectsNegativeMeasurements(t *testing.T) {
	if _, err := LoadProfile(strings.NewReader(evaluatedEntryJSON("50", "1e9", "5")), topo); err != nil {
		t.Fatalf("valid measurement rejected: %v", err)
	}
	for _, tc := range []struct {
		field, json string
	}{
		{"power_w", evaluatedEntryJSON("-50", "1e9", "5")},
		{"score", evaluatedEntryJSON("50", "-1e9", "5")},
		{"last_eval_ns", evaluatedEntryJSON("50", "1e9", "-5")},
	} {
		t.Run(tc.field, func(t *testing.T) {
			p, err := LoadProfile(strings.NewReader(tc.json), topo)
			if err == nil {
				e := p.Entries()[0]
				t.Fatalf("loaded power=%v score=%v last_eval=%v", e.PowerW, e.Score, e.LastEval)
			}
			if !strings.Contains(err.Error(), "entry 0") {
				t.Errorf("error %q does not name the entry", err)
			}
		})
	}
}

// TestUpdateRejectsNegativeTime checks that the runtime cannot build a
// profile LoadProfile refuses: Update rejects a measurement taken before
// instant 0 with an error naming the time and leaves the entry as it
// was, and a profile Update built at valid instants survives Save and
// LoadProfile unchanged.
func TestUpdateRejectsNegativeTime(t *testing.T) {
	p := NewProfile(topo, mustGenerate(t, DefaultGeneratorParams()))
	cfg := hw.AllMax(topo)
	if _, err := p.Update(cfg, 50, 1e9, -5); err == nil || !strings.Contains(err.Error(), "last_eval_ns=-5") {
		t.Fatalf("Update at -5ns: err = %v, want one naming last_eval_ns=-5", err)
	}
	if p.Lookup(cfg).Evaluated {
		t.Fatal("rejected measurement marked the entry evaluated")
	}
	for i, e := range p.Entries() {
		if _, err := p.Update(e.Config, units.WattsOf(float64(10+i)), units.HertzOf(float64(1e6*(i+1))), time.Duration(i)*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfile(&buf, topo)
	if err != nil {
		t.Fatalf("LoadProfile refused a profile Update built: %v", err)
	}
	for i, e := range p.Entries() {
		g := got.Entries()[i]
		if g.PowerW != e.PowerW || g.Score != e.Score || g.Evaluated != e.Evaluated || g.LastEval != e.LastEval {
			t.Fatalf("entry %d changed in the round trip: %+v vs %+v", i, g, e)
		}
	}
}
