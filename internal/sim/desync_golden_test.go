package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"ecldb/internal/ecl"
	"ecldb/internal/loadprofile"
	"ecldb/internal/obs"
	"ecldb/internal/workload"
)

// desyncEventGolden is the digest of TestDesyncRTIEventOrderGolden's
// event stream. It pins the order in which control actions due at the
// same instant fire: ticks before segment boundaries, then boundaries
// of the socket that planned earlier, then the lower socket index. In
// this 10 s DesyncRTI run over 200 of the ~800 actions fire at the same
// instant as the one before them, and ordering boundaries by socket index
// alone changes the digest.
const desyncEventGolden = "63387b9eaef092ceeded3d07905c95b5946e956abebc9613522131f9e6ab581c"

// TestDesyncRTIEventOrderGolden runs the RTI-sync ablation's staggered
// setting (kv non-indexed at 10 % of capacity, seed 34) for 10 s and
// hashes the ordered (At, Type, Socket, S) of every decision event. Only
// integer and string fields enter the hash, so it pins the sequence of
// control actions, not float groupings.
func TestDesyncRTIEventOrderGolden(t *testing.T) {
	capacity, err := MeasureCapacity(workload.NewKV(false), 34)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Workload: workload.NewKV(false),
		Load:     loadprofile.Constant{Qps: capacity * 0.1, Len: 10 * time.Second},
		Governor: GovernorECL,
		Prewarm:  true,
		Seed:     34,
		Obs:      obs.New(0),
		ECL:      ecl.DefaultOptions(),
	}
	opts.ECL.DesyncRTI = true
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	evs := opts.Obs.Log.Events()
	for _, e := range evs {
		fmt.Fprintf(h, "%d %d %d %q\n", e.At, e.Type, e.Socket, e.S)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != desyncEventGolden {
		t.Errorf("event-order digest over %d events = %s, want %s", len(evs), got, desyncEventGolden)
	}
}
