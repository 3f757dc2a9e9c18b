package msg

import "testing"

// seqMsgs returns n messages for partition p whose Instr field holds
// their sequence number, so a consumer can check FIFO order.
func seqMsgs(p, n int) []*Message {
	ms := make([]*Message, n)
	for i := range ms {
		ms[i] = &Message{Partition: p, Instr: float64(i)}
	}
	return ms
}

// A partition queue under a standing backlog never runs empty, so it can
// only stay bounded by reclaiming its consumed prefix while messages are
// still pending. Push 2 and pop 1 per round with the backlog cut back to
// its floor whenever it doubles: the array must stop growing once the
// backlog stops growing, and every message comes out in order.
func TestQueueBacklogBoundedFIFO(t *testing.T) {
	const (
		floor  = 100
		rounds = 20000
	)
	ms := seqMsgs(0, floor+2*rounds)
	var q queue
	pushed, popped := 0, 0
	pop := func() {
		m := q.pop()
		if m == nil || m.Instr != float64(popped) {
			t.Fatalf("pop %d returned %v, want message %d", popped, m, popped)
		}
		popped++
	}
	for ; pushed < floor; pushed++ {
		q.push(ms[pushed])
	}
	maxCap := 0
	for r := 0; r < rounds; r++ {
		q.push(ms[pushed])
		q.push(ms[pushed+1])
		pushed += 2
		pop()
		if q.len() >= 2*floor {
			for q.len() > floor {
				pop()
			}
		}
		if q.len() != pushed-popped {
			t.Fatalf("round %d: len %d, want %d", r, q.len(), pushed-popped)
		}
		maxCap = max(maxCap, cap(q.msgs))
	}
	// The backlog peaks below 2*floor; the half rule grows the array only
	// while more than half of it is pending.
	if maxCap > 4*2*floor {
		t.Fatalf("queue array reached cap %d for a backlog of at most %d", maxCap, 2*floor)
	}
	for q.len() > 0 {
		pop()
	}
	if popped != pushed {
		t.Fatalf("popped %d of %d messages", popped, pushed)
	}
}

// fillOutbound buffers ms toward socket 1 on hub h.
func fillOutbound(h *Hub, ms []*Message) {
	for _, m := range ms {
		h.EnqueueRemote(1, m)
	}
}

// Partial outbound drains hand out TransferBatch-sized chunks in message
// order and, once the buffer has reached its steady size under a
// standing backlog, neither copy the remainder nor allocate.
func TestOutboundPartialDrainOrderAndAllocs(t *testing.T) {
	const standing = 3*TransferBatch + 17
	h := NewHub(0, []int{0})
	ms := seqMsgs(1, standing+TransferBatch)
	// Message i of the ring carries sequence number i; the ring is
	// reused round after round, so the expected sequence wraps too.
	fillOutbound(h, ms[:standing])
	enq, want := standing, 0
	round := func() {
		for i := 0; i < TransferBatch; i++ {
			h.EnqueueRemote(1, ms[enq%len(ms)])
			enq++
		}
		out := h.DrainOutbound(1, TransferBatch)
		if len(out) != TransferBatch {
			t.Fatalf("drained %d, want a partial chunk of %d", len(out), TransferBatch)
		}
		for _, m := range out {
			if m != ms[want%len(ms)] {
				t.Fatalf("message %d out of order: got seq %v", want, m.Instr)
			}
			want++
		}
	}
	for i := 0; i < 16; i++ {
		round()
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 64; i++ {
			round()
		}
	})
	if allocs != 0 {
		t.Fatalf("64 enqueue+partial-drain rounds allocate %.0f times, want 0", allocs)
	}
	if h.OutboundLen(1) != standing || h.OutboundTotal() != standing {
		t.Fatalf("outbound holds %d (total %d), want the standing %d", h.OutboundLen(1), h.OutboundTotal(), standing)
	}
	// Draining everything rewinds the buffer; it stays in place for reuse.
	if out := h.DrainOutbound(1, 0); len(out) != standing {
		t.Fatalf("full drain returned %d, want %d", len(out), standing)
	}
	if h.OutboundLen(1) != 0 || h.OutboundTotal() != 0 || h.DrainOutbound(1, TransferBatch) != nil {
		t.Fatal("fully drained outbound buffer still reports messages")
	}
	if h.OutboundLen(5) != 0 || h.DrainOutbound(5, 0) != nil || h.DrainOutbound(-1, 0) != nil {
		t.Fatal("socket without an outbound buffer must report empty")
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
		ms[i].Partition = 1 + i%2
	}
	next := 0
	send := func() {
		if err := r.Send(0, ms[next%len(ms)]); err != nil {
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
