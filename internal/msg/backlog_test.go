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

// drainRemote pops every message of partition 1 on hub h, checking
// that their Instr fields continue the sequence *next mod n, and returns
// how many it popped. Popping past the end hands the queue's drained
// block back, the way an engine worker's batch ends.
func drainRemote(t *testing.T, h *Hub, next *int, n int) int {
	if !h.AcquireSpecific(1, 1) {
		return 0
	}
	popped := 0
	for {
		m, err := h.DequeueOne(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m == nil {
			break
		}
		if m.Instr != float64(*next%n) {
			t.Fatalf("message %d out of order: got seq %v", *next, m.Instr)
		}
		*next++
		popped++
	}
	if err := h.Release(1, 1); err != nil {
		t.Fatal(err)
	}
	return popped
}

// Communication rounds under a standing outbound backlog move
// min(TransferBatch, backlog) messages each, in message order, and once
// both hubs' free lists hold the blocks the backlog turns over, neither
// hub allocates.
func TestOutboundPartialDrainOrderAndAllocs(t *testing.T) {
	const standing = 3*TransferBatch + 17
	r, err := NewRouter([][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	h := r.Hub(0)
	ms := seqMsgs(1, standing+TransferBatch)
	// Message i of the stream carries sequence number i mod len(ms): the
	// stream reuses ms round after round, so the expected sequence wraps
	// too.
	enq, want := 0, 0
	sendN := func(k int) {
		for i := 0; i < k; i++ {
			if err := send(r, 0, &ms[enq%len(ms)]); err != nil {
				t.Fatal(err)
			}
			enq++
		}
	}
	// round sends k messages, runs socket 0's endpoint and drains what
	// it delivered to socket 1.
	round := func(k int) {
		sendN(k)
		moved := min(TransferBatch, h.OutboundTotal())
		rep, err := r.RunCommEndpoint(0)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Messages != moved {
			t.Fatalf("a round moved %d messages, want %d", rep.Messages, moved)
		}
		if got := drainRemote(t, r.Hub(1), &want, len(ms)); got != moved {
			t.Fatalf("socket 1 received %d messages, want %d", got, moved)
		}
	}
	sendN(standing)
	for i := 0; i < 16; i++ {
		round(TransferBatch)
	}
	if a := minAllocs(func() {
		for i := 0; i < 64; i++ {
			round(TransferBatch)
		}
	}); a != 0 {
		t.Fatalf("64 send+transfer rounds allocate %.0f times, want 0", a)
	}
	if h.outbound[1].n != standing || h.OutboundTotal() != standing || r.PendingTotal() != standing {
		t.Fatalf("outbound holds %d (total %d, pending %d), want the standing %d", h.outbound[1].n, h.OutboundTotal(), r.PendingTotal(), standing)
	}
	// Rounds without new messages drain the backlog, the last one
	// partly filled, and leave nothing buffered.
	for h.OutboundTotal() > 0 {
		round(0)
	}
	if h.outbound[1].n != 0 || want != enq {
		t.Fatalf("outbound holds %d after draining; %d of %d messages delivered", h.outbound[1].n, want, enq)
	}
	round(0)
}

// Property: under arbitrary interleavings of send bursts toward a remote
// socket and communication rounds, the outbound buffer hands messages
// out exactly as a plain slice FIFO would — same order, rounds of
// min(TransferBatch, backlog), same counts — across block boundaries,
// while the hub's free list recycles drained blocks.
func TestOutboundDrainMatchesSliceOracle(t *testing.T) {
	f := func(ops []uint16) bool {
		r, err := NewRouter([][]int{{0}, {1}})
		if err != nil {
			return false
		}
		h, remote := r.Hub(0), r.Hub(1)
		var oracle []float64
		seq := 0
		for _, op := range ops {
			if op&1 == 0 { // send a burst of 0..699 messages
				for n := int(op>>1) % 700; n > 0; n-- {
					if send(r, 0, &Message{Partition: 1, Instr: float64(seq)}) != nil {
						return false
					}
					oracle = append(oracle, float64(seq))
					seq++
				}
			} else {
				want := min(TransferBatch, len(oracle))
				rep, err := r.RunCommEndpoint(0)
				if err != nil || rep.Messages != want {
					return false
				}
				if want > 0 {
					if !remote.AcquireSpecific(1, 1) {
						return false
					}
					for i := 0; i < want; i++ {
						if m, err := remote.DequeueOne(1, 1); err != nil || m == nil || m.Instr != oracle[i] {
							return false
						}
					}
					if remote.Release(1, 1) != nil {
						return false
					}
				}
				if remote.QueueLen(1) != 0 {
					return false
				}
				oracle = oracle[want:]
			}
			if h.outbound[1].n != len(oracle) || h.OutboundTotal() != len(oracle) || r.PendingTotal() != len(oracle) {
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
// round of TransferBatch messages while the outbound backlog exceeds a
// batch) and dequeues one message on socket 1. Report with -benchmem: the steady
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
