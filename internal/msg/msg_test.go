package msg

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func mkMsg(p int) *Message { return &Message{Partition: int32(p), Instr: 100} }

// enqueue and send copy m into the message the hub or router returns,
// the way a sender fills it in place.
func enqueue(h *Hub, m *Message) error {
	dst, err := h.EnqueueLocal(int(m.Partition))
	if err == nil {
		*dst = *m
	}
	return err
}

func send(r *Router, origin int, m *Message) error {
	dst, err := r.Send(origin, int(m.Partition))
	if err == nil {
		*dst = *m
	}
	return err
}

// dequeueUpTo pops up to max messages of an owned partition through
// DequeueOne, the way a worker drains a batch, and returns copies of
// them (DequeueOne's pointer is valid only until the next enqueue).
func dequeueUpTo(h *Hub, worker, partition, max int) ([]Message, error) {
	var out []Message
	for len(out) < max {
		m, err := h.DequeueOne(worker, partition)
		if err != nil || m == nil {
			return out, err
		}
		out = append(out, *m)
	}
	return out, nil
}

func TestHubEnqueueDequeueFIFO(t *testing.T) {
	h := NewHub(0, []int{1, 2})
	for i := 0; i < 5; i++ {
		m := mkMsg(1)
		m.Instr = float64(i)
		if err := enqueue(h, m); err != nil {
			t.Fatal(err)
		}
	}
	if h.Pending() != 5 || h.QueueLen(1) != 5 {
		t.Fatalf("pending=%d queuelen=%d, want 5/5", h.Pending(), h.QueueLen(1))
	}
	p, ok := h.Acquire(7)
	if !ok || p != 1 {
		t.Fatalf("Acquire = %d,%v, want 1,true", p, ok)
	}
	batch, err := dequeueUpTo(h, 7, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("batch = %d messages, want 3", len(batch))
	}
	for i, m := range batch {
		if m.Instr != float64(i) {
			t.Fatalf("message %d has cost %v, want FIFO order", i, m.Instr)
		}
	}
	if h.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", h.Pending())
	}
	if err := h.Release(7, 1); err != nil {
		t.Fatal(err)
	}
}

// DequeueOne keeps FIFO order, pending accounting, and ownership checks,
// one message at a time and without a batch slice.
func TestHubDequeueOne(t *testing.T) {
	h := NewHub(0, []int{1})
	for i := 0; i < 3; i++ {
		m := mkMsg(1)
		m.Instr = float64(i)
		if err := enqueue(h, m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.DequeueOne(7, 1); err == nil {
		t.Fatal("dequeue without ownership should fail")
	}
	if _, err := h.DequeueOne(7, 99); err == nil {
		t.Fatal("dequeue of foreign partition should fail")
	}
	if p, ok := h.Acquire(7); !ok || p != 1 {
		t.Fatalf("Acquire = %d,%v", p, ok)
	}
	for i := 0; i < 3; i++ {
		m, err := h.DequeueOne(7, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m == nil || m.Instr != float64(i) {
			t.Fatalf("message %d = %+v, want FIFO order", i, m)
		}
		if h.Pending() != 2-i {
			t.Fatalf("pending = %d after %d dequeues", h.Pending(), i+1)
		}
	}
	// Empty queue: nil message, no error, pending untouched.
	m, err := h.DequeueOne(7, 1)
	if err != nil || m != nil {
		t.Fatalf("empty dequeue = %v, %v", m, err)
	}
	if h.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", h.Pending())
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := h.DequeueOne(7, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DequeueOne allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestHubEnqueueUnknownPartition(t *testing.T) {
	h := NewHub(0, []int{1})
	if err := enqueue(h, mkMsg(99)); err == nil {
		t.Fatal("enqueue to foreign partition should fail")
	}
}

func TestHubOwnershipExcludes(t *testing.T) {
	h := NewHub(0, []int{1})
	if err := enqueue(h, mkMsg(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Acquire(1); !ok {
		t.Fatal("first Acquire failed")
	}
	if _, ok := h.Acquire(2); ok {
		t.Fatal("second worker acquired an owned partition")
	}
	if _, err := dequeueUpTo(h, 2, 1, 1); err == nil {
		t.Fatal("dequeue without ownership should fail")
	}
	if err := h.Release(2, 1); err == nil {
		t.Fatal("foreign release should fail")
	}
	if err := h.Release(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Acquire(2); !ok {
		t.Fatal("acquire after release failed")
	}
}

func TestHubAcquireSkipsEmptyPartitions(t *testing.T) {
	h := NewHub(0, []int{1, 2, 3})
	if err := enqueue(h, mkMsg(2)); err != nil {
		t.Fatal(err)
	}
	p, ok := h.Acquire(1)
	if !ok || p != 2 {
		t.Fatalf("Acquire = %d,%v, want 2,true", p, ok)
	}
	if _, ok := h.Acquire(2); ok {
		t.Fatal("no other partition has work")
	}
}

func TestHubAcquireFairRotation(t *testing.T) {
	h := NewHub(0, []int{1, 2, 3})
	for _, p := range []int{1, 2, 3} {
		if err := enqueue(h, mkMsg(p)); err != nil {
			t.Fatal(err)
		}
	}
	var got []int
	for i := 0; i < 3; i++ {
		p, ok := h.Acquire(i)
		if !ok {
			t.Fatal("acquire failed")
		}
		got = append(got, p)
	}
	seen := map[int]bool{}
	for _, p := range got {
		if seen[p] {
			t.Fatalf("rotation served partition %d twice: %v", p, got)
		}
		seen[p] = true
	}
}

// The elasticity property: any worker can serve any partition of the
// socket — ownership is taken per batch, not statically assigned.
func TestHubElasticWorkerAssignment(t *testing.T) {
	h := NewHub(0, []int{1})
	for round := 0; round < 4; round++ {
		if err := enqueue(h, mkMsg(1)); err != nil {
			t.Fatal(err)
		}
		worker := round % 3 // shrinking/growing worker pool
		p, ok := h.Acquire(worker)
		if !ok {
			t.Fatalf("round %d: acquire failed", round)
		}
		if _, err := dequeueUpTo(h, worker, p, 10); err != nil {
			t.Fatal(err)
		}
		if err := h.Release(worker, p); err != nil {
			t.Fatal(err)
		}
	}
	if h.Pending() != 0 {
		t.Fatalf("pending = %d after draining", h.Pending())
	}
}

func TestRouterLocalAndRemoteRouting(t *testing.T) {
	r, err := NewRouter([][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Local send goes straight to the home hub.
	if err := send(r, 0, mkMsg(1)); err != nil {
		t.Fatal(err)
	}
	if r.Hub(0).QueueLen(1) != 1 {
		t.Fatal("local message not enqueued")
	}
	// Remote send is buffered at the origin's endpoint.
	if err := send(r, 0, mkMsg(2)); err != nil {
		t.Fatal(err)
	}
	if r.Hub(1).QueueLen(2) != 0 {
		t.Fatal("remote message delivered without a transfer round")
	}
	if r.Hub(0).outbound[1].n != 1 {
		t.Fatal("remote message not buffered")
	}
	rep, err := r.RunCommEndpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Messages != 1 || rep.Instr != TransferInstr || rep.Bytes != TransferBytes {
		t.Fatalf("transfer report = %+v", rep)
	}
	if r.Hub(1).QueueLen(2) != 1 {
		t.Fatal("remote message not delivered after transfer")
	}
}

func TestRouterRejectsBadInput(t *testing.T) {
	if _, err := NewRouter([][]int{{0}, {0}}); err == nil {
		t.Error("duplicate partition home should fail")
	}
	r, err := NewRouter([][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := send(r, 0, mkMsg(42)); err == nil {
		t.Error("unknown partition should fail")
	}
	if err := send(r, 9, mkMsg(0)); err == nil {
		t.Error("invalid origin socket should fail")
	}
	// A hub's ready bitmask has one bit per partition.
	if _, err := NewRouter([][]int{{65}, seqParts(65)}); err == nil || !strings.Contains(err.Error(), "socket 1 homes 65 partitions") {
		t.Errorf("a socket with 65 partitions: err = %v, want one naming socket 1 and the count", err)
	}
	if _, err := NewRouter([][]int{{64}, seqParts(64)}); err != nil {
		t.Errorf("a socket with 64 partitions: %v", err)
	}
}

func TestRouterHome(t *testing.T) {
	r, err := NewRouter([][]int{{0, 1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := r.Home(2); !ok || s != 1 {
		t.Fatalf("Home(2) = %d,%v", s, ok)
	}
	if _, ok := r.Home(7); ok {
		t.Fatal("Home of unknown partition should fail")
	}
	if r.Sockets() != 2 {
		t.Fatalf("Sockets = %d", r.Sockets())
	}
}

func TestTransferBatchLimit(t *testing.T) {
	r, err := NewRouter([][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	total := TransferBatch + 50
	for i := 0; i < total; i++ {
		if err := send(r, 0, mkMsg(1)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := r.RunCommEndpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Messages != TransferBatch {
		t.Fatalf("first round moved %d, want %d", rep.Messages, TransferBatch)
	}
	rep, err = r.RunCommEndpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Messages != 50 {
		t.Fatalf("second round moved %d, want 50", rep.Messages)
	}
	if r.PendingTotal() != total {
		t.Fatalf("PendingTotal = %d, want %d delivered-but-unprocessed", r.PendingTotal(), total)
	}
}

// Property: no message is ever lost or duplicated through arbitrary
// send/transfer/drain interleavings.
func TestConservationOfMessages(t *testing.T) {
	f := func(seedRaw uint64) bool {
		seed := seedRaw
		next := func(mod uint64) int {
			seed = seed*6364136223846793005 + 1442695040888963407
			return int((seed >> 33) % mod)
		}
		r, err := NewRouter([][]int{{0, 1}, {2, 3}})
		if err != nil {
			return false
		}
		sent, processed := 0, 0
		for op := 0; op < 400; op++ {
			switch next(3) {
			case 0: // send from random socket to random partition
				if send(r, next(2), mkMsg(next(4))) == nil {
					sent++
				}
			case 1: // run a comm endpoint
				if _, err := r.RunCommEndpoint(next(2)); err != nil {
					return false
				}
			case 2: // worker drains something
				s := next(2)
				h := r.Hub(s)
				if p, ok := h.Acquire(1); ok {
					batch, err := dequeueUpTo(h, 1, p, 1+next(5))
					if err != nil {
						return false
					}
					processed += len(batch)
					if h.Release(1, p) != nil {
						return false
					}
				}
			}
		}
		return sent == processed+r.PendingTotal()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHubAccessors(t *testing.T) {
	h := NewHub(1, []int{4, 5, 6})
	if h.Socket() != 1 {
		t.Errorf("Socket = %d", h.Socket())
	}
	if got := h.Partitions(); len(got) != 3 || got[0] != 4 || got[2] != 6 {
		t.Errorf("Partitions = %v", got)
	}
	if h.QueueLen(4) != 0 || h.QueueLen(99) != 0 {
		t.Error("empty/unknown partitions must report zero queue length")
	}
	if err := enqueue(h, &Message{Partition: 5}); err != nil {
		t.Fatal(err)
	}
	if h.QueueLen(5) != 1 {
		t.Errorf("QueueLen(5) = %d, want 1", h.QueueLen(5))
	}
}

func TestHubAcquireSpecific(t *testing.T) {
	h := NewHub(0, []int{1, 2})
	// Empty partition: not acquirable (nothing to do).
	if h.AcquireSpecific(7, 1) {
		t.Error("acquired an empty partition")
	}
	if err := enqueue(h, &Message{Partition: 1}); err != nil {
		t.Fatal(err)
	}
	if !h.AcquireSpecific(7, 1) {
		t.Fatal("failed to acquire a pending partition")
	}
	if h.Owner(1) != 7 {
		t.Errorf("Owner = %d, want 7", h.Owner(1))
	}
	// Owned: a second worker is excluded.
	if h.AcquireSpecific(8, 1) {
		t.Error("double acquisition")
	}
	// Unknown partition.
	if h.AcquireSpecific(7, 42) {
		t.Error("acquired a partition not homed here")
	}
	if h.Owner(42) != NoOwner {
		t.Error("unknown partition must report NoOwner")
	}
	if err := h.Release(7, 1); err != nil {
		t.Fatal(err)
	}
	if h.Owner(1) != NoOwner {
		t.Error("release did not clear ownership")
	}
}

// Queues hold messages by value, so a message's size is the queue's
// per-message footprint: one 64-byte cache line.
func TestMessageIs64Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Message{}); got != 64 {
		t.Fatalf("Message is %d bytes, want 64", got)
	}
}
