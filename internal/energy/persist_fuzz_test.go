package energy

import (
	"math"
	"strings"
	"testing"
)

// FuzzLoadProfile feeds arbitrary bytes to the profile loader: it must
// return an error or a profile whose evaluated entries carry finite,
// non-negative power and score and a non-negative evaluation time. The committed corpus under
// testdata/fuzz/FuzzLoadProfile holds one negative-measurement file per
// field.
func FuzzLoadProfile(f *testing.F) {
	f.Add(evaluatedEntryJSON("50", "1e9", "5"))
	f.Add(`{"version":1,"entries":[]}`)
	f.Fuzz(func(t *testing.T, saved string) {
		p, err := LoadProfile(strings.NewReader(saved), topo)
		if err != nil {
			return
		}
		for i, e := range p.Entries() {
			if !e.Evaluated {
				continue
			}
			pw, sc := e.PowerW.Watts(), e.Score.PerSecond()
			if math.IsNaN(pw) || math.IsInf(pw, 0) || pw < 0 || math.IsNaN(sc) || math.IsInf(sc, 0) || sc < 0 || e.LastEval < 0 {
				t.Fatalf("entry %d loaded with power %v, score %v, last evaluation %v", i, pw, sc, e.LastEval)
			}
		}
	})
}
