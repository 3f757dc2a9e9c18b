package dodb

import (
	"testing"
	"time"

	"ecldb/internal/hw"
	"ecldb/internal/perfmodel"
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

// BenchmarkEngineStep measures Engine.Step under a standing backlog shaped
// like the capacity probe (sim.MeasureCapacity): the full Haswell-EP
// topology at its all-max configuration, every thread's budget one 1 ms
// quantum of its modelled capacity, and 2000 more queries admitted before
// a step whenever fewer than 50000 are in flight. One op is one step: the
// communication rounds, the workers' drain of a quantum's worth of
// messages, and the completed queries' latency records. Admission runs
// with the timer stopped (BenchmarkSubmitQuery measures it). Report with
// -benchmem: the steady state allocates nothing.
func BenchmarkEngineStep(b *testing.B) {
	topo := hw.HaswellEP()
	const (
		quantum  = time.Millisecond
		inFlight = 50000
		burst    = 2000
	)
	for _, wl := range []workload.Workload{workload.NewKV(true), workload.NewTATP(true)} {
		wl := wl
		b.Run(wl.Name(), func(b *testing.B) {
			e, err := New(Config{Topo: topo, Workload: wl, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			act, bud := allActive(topo, 0)
			full := make([][]float64, topo.Sockets)
			for s := range full {
				capa := perfmodel.SocketCapacity(topo, hw.AllMax(topo), e.SocketCharacteristics(s), 1)
				full[s] = make([]float64, topo.ThreadsPerSocket())
				for lt := range full[s] {
					full[s][lt] = capa.PerThread[lt] * quantum.Seconds()
				}
			}
			now := time.Duration(0)
			admit := func() {
				if e.InFlight() >= inFlight {
					return
				}
				for i := 0; i < burst; i++ {
					if err := e.SubmitQuery(now); err != nil {
						b.Fatal(err)
					}
				}
			}
			step := func() {
				for s := range bud {
					copy(bud[s], full[s])
				}
				now += quantum
				e.Step(now, quantum, act, bud)
			}
			// Warm up past the first full latency window, so the window
			// ring, the queues and the freelists are at steady size.
			for i := 0; i < 1500; i++ {
				admit()
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if e.InFlight() < inFlight {
					b.StopTimer()
					admit()
					b.StartTimer()
				}
				step()
			}
		})
	}
}
