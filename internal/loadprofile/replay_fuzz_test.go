package loadprofile

import (
	"math"
	"strings"
	"testing"
	"time"
)

// FuzzLoadReplayCSV feeds arbitrary trace text and playback durations to
// the CSV loader. It must return an error or a profile, never panic, and
// an accepted profile's rate must be finite and non-negative at the start,
// at the end and at 64 instants evenly spread between them. The seed
// corpus (testdata/fuzz/FuzzLoadReplayCSV) holds the non-finite-rate,
// negative-time and out-of-range-time traces the loader once accepted.
func FuzzLoadReplayCSV(f *testing.F) {
	f.Add("t_seconds,qps\n0,100\n3600,300\n7200,100\n", int64(2*time.Minute))
	f.Add("t_seconds,power,load_qps\n0,1,50\n10,2,150\n", int64(time.Minute))
	f.Fuzz(func(t *testing.T, trace string, playback int64) {
		r, err := LoadReplayCSV("fuzz", strings.NewReader(trace), time.Duration(playback))
		if err != nil {
			return
		}
		d := r.Duration()
		check := func(at time.Duration) {
			if q := r.QPS(at); math.IsNaN(q) || math.IsInf(q, 0) || q < 0 {
				t.Fatalf("QPS(%v) = %v of %d-ns playback", at, q, d)
			}
		}
		check(0)
		check(d)
		for k := time.Duration(1); k <= 64; k++ {
			check(d / 65 * k)
		}
	})
}
