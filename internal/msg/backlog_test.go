package msg

import (
	"testing"
	"testing/quick"
)

// seqMsgs returns n messages for partition p whose Instr field holds
// their sequence number, so a consumer can check FIFO order.
func seqMsgs(p, n int) []Message {
	ms := make([]Message, n)
	for i := range ms {
		ms[i] = Message{Partition: int32(p), Instr: float64(i)}
	}
	return ms
}

// A partition queue under a standing backlog never runs empty, so it can
// only stay bounded by handing its drained blocks back while messages are
// still pending. Push 2 and pop 1 per round with the backlog cut back to
// its floor whenever it doubles: the hub must stop allocating blocks once
// the backlog stops growing, and every message comes out in order.
func TestQueueBacklogBoundedFIFO(t *testing.T) {
	const (
		floor  = 100
		rounds = 20000
	)
	h := NewHub(0, []int{0})
	pushed, popped := 0, 0
	push := func() {
		if err := enqueue(h, &Message{Partition: 0, Instr: float64(pushed)}); err != nil {
			t.Fatal(err)
		}
		pushed++
	}
	pop := func() {
		m, err := h.DequeueOne(1, 0)
		if err != nil || m == nil || m.Instr != float64(popped) {
			t.Fatalf("pop %d returned %v, %v, want message %d", popped, m, err, popped)
		}
		popped++
	}
	for pushed < floor {
		push()
	}
	if !h.AcquireSpecific(1, 0) {
		t.Fatal("cannot acquire the backlogged partition")
	}
	maxBlocks := 0
	for r := 0; r < rounds; r++ {
		push()
		push()
		pop()
		if h.QueueLen(0) >= 2*floor {
			for h.QueueLen(0) > floor {
				pop()
			}
		}
		if h.QueueLen(0) != pushed-popped || h.Pending() != pushed-popped {
			t.Fatalf("round %d: len %d, pending %d, want %d", r, h.QueueLen(0), h.Pending(), pushed-popped)
		}
		maxBlocks = max(maxBlocks, hubBlocks(h))
	}
	// The backlog peaks at 2*floor = 200 messages. A queue of n messages
	// spans at most ceil(n/blockLen)+1 blocks (a partly read head block
	// and a partly filled tail block).
	if want := (2*floor+blockLen-1)/blockLen + 1; maxBlocks > want {
		t.Fatalf("hub allocated %d blocks for a backlog of at most %d, want <= %d", maxBlocks, 2*floor, want)
	}
	for h.QueueLen(0) > 0 {
		pop()
	}
	if popped != pushed {
		t.Fatalf("popped %d of %d messages", popped, pushed)
	}
}

// fillOutbound buffers ms toward socket 1 on hub h.
func fillOutbound(h *Hub, ms []Message) {
	for i := range ms {
		enqueueRemote(h, 1, &ms[i])
	}
}

// Partial outbound drains hand out TransferBatch-sized chunks in message
// order, split in two only where a chunk wraps the ring's end, and, once
// the ring has reached its steady size under a standing backlog, neither
// copy the remainder nor allocate.
func TestOutboundPartialDrainOrderAndAllocs(t *testing.T) {
	const standing = 3*TransferBatch + 17
	h := NewHub(0, []int{0})
	ms := seqMsgs(1, standing+TransferBatch)
	// Message i of the stream carries sequence number i mod len(ms): the
	// stream reuses ms round after round, so the expected sequence wraps
	// too.
	fillOutbound(h, ms[:standing])
	enq, want, wrapped := standing, 0, 0
	// round enqueues k messages and drains a chunk of k.
	round := func(k int) {
		for i := 0; i < k; i++ {
			enqueueRemote(h, 1, &ms[enq%len(ms)])
			enq++
		}
		head, tail := h.DrainOutbound(1, k)
		if len(head)+len(tail) != k {
			t.Fatalf("drained %d+%d, want a partial chunk of %d", len(head), len(tail), k)
		}
		if len(tail) > 0 {
			wrapped++
		}
		for _, seg := range [2][]Message{head, tail} {
			for _, m := range seg {
				if m.Instr != float64(want%len(ms)) {
					t.Fatalf("message %d out of order: got seq %v", want, m.Instr)
				}
				want++
			}
		}
	}
	for i := 0; i < 16; i++ {
		round(TransferBatch)
	}
	// The ring has grown to its steady size with its head at a multiple
	// of TransferBatch; one odd round shifts every later chunk off that
	// grid, so chunks that reach the ring's end wrap.
	round(17)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 64; i++ {
			round(TransferBatch)
		}
	})
	if allocs != 0 {
		t.Fatalf("64 enqueue+partial-drain rounds allocate %.0f times, want 0", allocs)
	}
	if wrapped == 0 {
		t.Fatal("no drained chunk wrapped the ring's end; the two-view split is untested")
	}
	if h.OutboundLen(1) != standing || h.OutboundTotal() != standing {
		t.Fatalf("outbound holds %d (total %d), want the standing %d", h.OutboundLen(1), h.OutboundTotal(), standing)
	}
	// Draining everything empties the ring; it stays in place for reuse.
	if head, tail := h.DrainOutbound(1, 0); len(head)+len(tail) != standing {
		t.Fatalf("full drain returned %d, want %d", len(head)+len(tail), standing)
	}
	if head, tail := h.DrainOutbound(1, TransferBatch); h.OutboundLen(1) != 0 || h.OutboundTotal() != 0 || head != nil || tail != nil {
		t.Fatal("fully drained outbound buffer still reports messages")
	}
	for _, s := range []int{5, -1} {
		if head, tail := h.DrainOutbound(s, 0); h.OutboundLen(s) != 0 || head != nil || tail != nil {
			t.Fatalf("socket %d without an outbound buffer must report empty", s)
		}
	}
}

// Property: under arbitrary interleavings of enqueue bursts and partial
// drains, the outbound ring hands messages out exactly as a plain slice
// FIFO would — same order, same chunk sizes, same counts — across its
// growths and wrap-arounds.
func TestOutboundDrainMatchesSliceOracle(t *testing.T) {
	f := func(ops []uint16) bool {
		h := NewHub(0, []int{0})
		var oracle []float64
		seq := 0
		for _, op := range ops {
			if op&1 == 0 { // enqueue a burst of 0..63 messages
				for n := int(op>>1) % 64; n > 0; n-- {
					enqueueRemote(h, 1, &Message{Partition: 1, Instr: float64(seq)})
					oracle = append(oracle, float64(seq))
					seq++
				}
				continue
			}
			max := int(op>>1)%80 - 8 // max <= 0 drains everything
			want := len(oracle)
			if max > 0 && max < want {
				want = max
			}
			head, tail := h.DrainOutbound(1, max)
			if len(head)+len(tail) != want || (len(head) == 0 && len(tail) > 0) {
				return false
			}
			i := 0
			for _, seg := range [2][]Message{head, tail} {
				for _, m := range seg {
					if m.Instr != oracle[i] {
						return false
					}
					i++
				}
			}
			oracle = oracle[want:]
			if h.OutboundLen(1) != len(oracle) || h.OutboundTotal() != len(oracle) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BenchmarkHubBacklog measures the message layer's per-message cost under
// a standing backlog: each iteration sends one message from socket 0 to a
// partition homed on socket 1, runs socket 0's communication endpoint (a
// partial TransferBatch drain while the outbound backlog exceeds a batch)
// and dequeues one message on socket 1. Report with -benchmem: the steady
// state allocates nothing.
func BenchmarkHubBacklog(b *testing.B) {
	r, err := NewRouter([][]int{{0}, {1, 2}})
	if err != nil {
		b.Fatal(err)
	}
	const standing = 2*TransferBatch + 100
	ms := seqMsgs(1, 4*TransferBatch)
	for i := range ms {
		ms[i].Partition = int32(1 + i%2)
	}
	next := 0
	send := func() {
		if err := send(r, 0, &ms[next%len(ms)]); err != nil {
			b.Fatal(err)
		}
		next++
	}
	for i := 0; i < standing; i++ {
		send()
	}
	remote := r.Hub(1)
	step := func() {
		send()
		if r.Hub(0).OutboundTotal() > TransferBatch {
			if _, err := r.RunCommEndpoint(0); err != nil {
				b.Fatal(err)
			}
		}
		p, ok := remote.Acquire(0)
		if !ok {
			return
		}
		if _, err := remote.DequeueOne(0, p); err != nil {
			b.Fatal(err)
		}
		if err := remote.Release(0, p); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 8*TransferBatch; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
