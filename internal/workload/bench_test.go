package workload

import (
	"math/rand"
	"testing"
)

// BenchmarkNewPartition times store construction, the bulk of a run's
// set-up bytes: one partition built per op from a fixed-seed rng, so
// every op draws and loads the same data. Re-seeding the one rng
// allocates nothing, so B/op and allocs/op count the store alone.
func BenchmarkNewPartition(b *testing.B) {
	for _, name := range []string{"kv-indexed", "tatp-indexed", "ssb-indexed"} {
		w := ByName(name)
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng.Seed(1)
				w.NewPartition(0, rng)
			}
		})
	}
}
