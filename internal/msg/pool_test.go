package msg

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"
	"unsafe"
)

// hubBlocks counts the blocks a hub has allocated. A block is always in
// one fifo's chain (a partition queue or an outbound buffer) or on the
// free list, and none is ever dropped.
func hubBlocks(h *Hub) int {
	n := 0
	count := func(b *block) {
		for ; b != nil; b = b.next {
			n++
		}
	}
	count(h.free)
	for _, q := range h.scan {
		count(q.head)
	}
	for i := range h.outbound {
		count(h.outbound[i].head)
	}
	return n
}

// seqParts returns the partition ids 0..n-1.
func seqParts(n int) []int {
	ps := make([]int, n)
	for i := range ps {
		ps[i] = i
	}
	return ps
}

// minAllocs runs f with the collector off and returns the fewest
// allocations of three AllocsPerRun measurements. AllocsPerRun counts
// the whole process's mallocs, and the runtime now and then allocates on
// its own (a GC cycle's mark workers, the scavenger's timer); those only
// ever add, so the fewest is f's own count.
func minAllocs(f func()) float64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := math.Inf(1)
	for range 3 {
		allocs = min(allocs, testing.AllocsPerRun(1, f))
	}
	return allocs
}

// A block is served from the allocator's 4 KiB size class, which holds
// objects of 3,457 to 4,096 bytes; a larger block would round up to the
// 4,864-byte class.
func TestBlockFillsFourKiBClass(t *testing.T) {
	if got := unsafe.Sizeof(block{}); got > 4096 || got <= 3456 {
		t.Fatalf("block is %d bytes, want (3456, 4096]", got)
	}
}

// Property: any interleaving of enqueue bursts, dequeue runs, remote
// send bursts and communication rounds on socket 0 of a two-socket
// router, whose partition queues and outbound buffer share one free
// list, hands every partition's messages out exactly as one slice FIFO
// per partition would, and every remote socket's messages, in rounds of
// min(TransferBatch, backlog), as one slice FIFO per remote socket
// would. Dequeue runs may pop past a queue's end, which hands its drained
// block back. The hub allocates at most ceil(peak/blockLen) + 2 blocks
// per fifo: a fifo of n messages spans at most ceil(n/blockLen) + 1
// blocks.
func TestPooledQueuesMatchSliceOracle(t *testing.T) {
	const parts = 8
	f := func(ops []uint32) bool {
		r, err := NewRouter([][]int{seqParts(parts), {parts, parts + 1}})
		if err != nil {
			return false
		}
		h := r.Hub(0)
		oracle := make([][]float64, parts)
		out := make([][]float64, r.Sockets()) // by remote socket
		delivered := make([][]float64, r.Sockets())
		r.SetDeliverHook(func(home int, m *Message) {
			delivered[home] = append(delivered[home], m.Instr)
		})
		seq, local, remote, peak := 0, 0, 0, 0
		for _, op := range ops {
			p := int(op % parts)
			k := int(op>>3) % 150
			switch op >> 16 & 3 {
			case 0: // enqueue a burst to partition p
				for ; k > 0; k-- {
					if enqueue(h, &Message{Partition: int32(p), Instr: float64(seq)}) != nil {
						return false
					}
					oracle[p] = append(oracle[p], float64(seq))
					seq++
					local++
				}
			case 1: // dequeue a run from partition p
				if !h.AcquireSpecific(1, p) {
					if len(oracle[p]) != 0 {
						return false
					}
					break
				}
				for ; k > 0; k-- {
					m, err := h.DequeueOne(1, p)
					if err != nil {
						return false
					}
					if len(oracle[p]) == 0 {
						if m != nil {
							return false
						}
						break
					}
					if m == nil || m.Instr != oracle[p][0] || m.Partition != int32(p) {
						return false
					}
					oracle[p] = oracle[p][1:]
					local--
				}
				if h.Release(1, p) != nil {
					return false
				}
			case 2: // send a burst to a partition of socket 1
				for ; k > 0; k-- {
					if send(r, 0, &Message{Partition: int32(parts + p%2), Instr: float64(seq)}) != nil {
						return false
					}
					out[1] = append(out[1], float64(seq))
					seq++
					remote++
				}
			case 3: // run socket 0's communication endpoint
				for s := range delivered {
					delivered[s] = delivered[s][:0]
				}
				rep, err := r.RunCommEndpoint(0)
				if err != nil {
					return false
				}
				moved := 0
				for s := 1; s < r.Sockets(); s++ {
					want := min(TransferBatch, len(out[s]))
					if len(delivered[s]) != want {
						return false
					}
					for i, v := range delivered[s] {
						if v != out[s][i] {
							return false
						}
					}
					out[s] = out[s][want:]
					moved += want
				}
				if rep.Messages != moved {
					return false
				}
				remote -= moved
			}
			peak = max(peak, local+remote)
			for q := range oracle {
				if h.QueueLen(q) != len(oracle[q]) {
					return false
				}
			}
			for s := 1; s < r.Sockets(); s++ {
				if h.outbound[s].n != len(out[s]) {
					return false
				}
			}
			if h.Pending() != local || h.OutboundTotal() != remote {
				return false
			}
		}
		return hubBlocks(h) <= (peak+blockLen-1)/blockLen+2*(parts+r.Sockets()-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// wave fills the hub's queues round-robin to w messages in total, then
// drains them the way engine workers do: acquire a partition, dequeue a
// batch until the queue runs empty, release.
func wave(tb testing.TB, h *Hub, w int) {
	parts := h.Partitions()
	for i := 0; i < w; i++ {
		if _, err := h.EnqueueLocal(parts[i%len(parts)]); err != nil {
			tb.Fatal(err)
		}
	}
	for {
		p, ok := h.Acquire(1)
		if !ok {
			break
		}
		for n := 0; n < 64; n++ {
			m, err := h.DequeueOne(1, p)
			if err != nil {
				tb.Fatal(err)
			}
			if m == nil {
				break
			}
		}
		if err := h.Release(1, p); err != nil {
			tb.Fatal(err)
		}
	}
	if h.Pending() != 0 {
		tb.Fatalf("%d messages left after the wave", h.Pending())
	}
}

// A backlog that rises from empty queues and falls back costs the hub
// about one block per blockLen messages of its peak plus at most one
// partly filled block per queue, and a second wave no larger than the
// first reuses those blocks without allocating.
func TestQueueBacklogWaveReusesBlocks(t *testing.T) {
	const parts, w = 48, 48*150 + 17
	h := NewHub(0, seqParts(parts))
	wave(t, h, w)
	if got, want := hubBlocks(h), (w+blockLen-1)/blockLen+parts; got > want {
		t.Fatalf("a backlog of %d messages over %d queues allocated %d blocks, want <= %d", w, parts, got, want)
	}
	for _, w2 := range []int{w, w / 2} {
		if a := minAllocs(func() { wave(t, h, w2) }); a != 0 {
			t.Fatalf("a second wave of %d messages allocated %.0f times, want 0", w2, a)
		}
	}
}

// Under a standing backlog every queue keeps receiving and draining
// messages, so its head and tail blocks keep turning over; once each
// queue has passed through a block boundary the drained blocks feed the
// filling ones and nothing more is allocated.
func TestQueueSteadyBacklogAllocatesNothing(t *testing.T) {
	const parts, standing = 48, 100
	h := NewHub(0, seqParts(parts))
	for i := 0; i < parts*standing; i++ {
		if _, err := h.EnqueueLocal(i % parts); err != nil {
			t.Fatal(err)
		}
	}
	round := func() {
		for p := 0; p < parts; p++ {
			if _, err := h.EnqueueLocal(p); err != nil {
				t.Fatal(err)
			}
			if !h.AcquireSpecific(1, p) {
				t.Fatalf("partition %d not acquirable under a backlog", p)
			}
			if m, err := h.DequeueOne(1, p); err != nil || m == nil {
				t.Fatalf("dequeue from partition %d: %v, %v", p, m, err)
			}
			if err := h.Release(1, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 2*blockLen; i++ {
		round()
	}
	if a := minAllocs(func() {
		for i := 0; i < 4*blockLen; i++ {
			round()
		}
	}); a != 0 {
		t.Fatalf("a standing backlog of %d messages allocated %.0f times, want 0", parts*standing, a)
	}
	if h.Pending() != parts*standing {
		t.Fatalf("pending %d, want the standing %d", h.Pending(), parts*standing)
	}
}

// The message DequeueOne returns stays in place while the hub enqueues
// to other partitions or buffers remote sends, even when it is the last
// of its block (the drained block goes back to the free list only on the
// partition's next dequeue) or the last of its queue. Other partitions'
// queues and the outbound buffers draw blocks from the same free list,
// so a block handed back too early would be overwritten.
func TestDequeuePointerOutlivesOtherEnqueues(t *testing.T) {
	// Partitions 0 and 1 are homed on socket 0, partition 2 on socket 1.
	for _, flood := range []struct {
		name      string
		partition int32
	}{{"enqueues to partition 1", 1}, {"remote sends", 2}} {
		r, err := NewRouter([][]int{{0, 1}, {2}})
		if err != nil {
			t.Fatal(err)
		}
		h := r.Hub(0)
		// Seed the free list, so the flood reuses blocks.
		wave(t, h, 8*blockLen)
		for i := 0; i < blockLen+1; i++ {
			if err := enqueue(h, &Message{Partition: 0, Instr: float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if !h.AcquireSpecific(7, 0) {
			t.Fatal("cannot acquire partition 0")
		}
		var m *Message
		for i := 0; i < blockLen+1; i++ {
			var err error
			if m, err = h.DequeueOne(7, 0); err != nil || m == nil || m.Instr != float64(i) {
				t.Fatalf("dequeue %d = %v, %v", i, m, err)
			}
			if i == blockLen-1 || i == blockLen {
				// The last message of the first block, then the last
				// message of the queue.
				for j := 0; j < 6*blockLen; j++ {
					if err := send(r, 0, &Message{Partition: flood.partition, Instr: -1}); err != nil {
						t.Fatal(err)
					}
				}
				if m.Instr != float64(i) || m.Partition != 0 {
					t.Fatalf("message %d overwritten by %s: %+v", i, flood.name, *m)
				}
			}
		}
		if err := h.Release(7, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkHubBacklogWave measures what a backlog costs the queues from
// cold: each iteration builds a two-socket router, sends a wave of
// messages from socket 0 to the 48 partitions homed on socket 1 until
// 16 Ki wait there, and drains them. Report with -benchmem: B/op is the
// router plus the queue memory the wave grew.
func BenchmarkHubBacklogWave(b *testing.B) {
	const parts, w = 48, 16 << 10
	homes := [][]int{{parts}, seqParts(parts)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := NewRouter(homes)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < w; j++ {
			if _, err := r.Send(0, j%parts); err != nil {
				b.Fatal(err)
			}
			if r.Hub(0).OutboundTotal() >= TransferBatch {
				if _, err := r.RunCommEndpoint(0); err != nil {
					b.Fatal(err)
				}
			}
		}
		if _, err := r.RunCommEndpoint(0); err != nil {
			b.Fatal(err)
		}
		wave(b, r.Hub(1), 0)
	}
}
