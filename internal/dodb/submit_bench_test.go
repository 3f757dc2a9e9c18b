package dodb

import (
	"testing"
	"time"

	"ecldb/internal/workload"
)

// BenchmarkSubmitQuery measures query admission alone: generating one
// query into the engine's op scratch and routing its messages to their
// hubs. Whenever the backlog reaches a few hundred messages the engine is
// drained with the timer stopped, so the queues stay warm and bounded and
// the exec work (which runs at drain time) is not part of the figure.
func BenchmarkSubmitQuery(b *testing.B) {
	for _, wl := range []workload.Workload{workload.NewKV(true), workload.NewTATP(true), workload.NewSSB(true)} {
		wl := wl
		b.Run(wl.Name(), func(b *testing.B) {
			e, err := New(Config{Topo: smallTopo, Workload: wl, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			now := time.Millisecond
			act, bud := allActive(smallTopo, 0)
			drain := func() {
				for e.InFlight() > 0 {
					for s := range bud {
						for j := range bud[s] {
							bud[s][j] = 1e12
						}
					}
					e.Step(now, time.Millisecond, act, bud)
					now += time.Millisecond
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.SubmitQuery(now); err != nil {
					b.Fatal(err)
				}
				if e.PendingMessages() >= 256 {
					b.StopTimer()
					drain()
					b.StartTimer()
				}
			}
		})
	}
}
