// Package msg implements the hierarchical message passing layer of the
// elastic data-oriented architecture (Section 3 of the paper).
//
// The original data-oriented architecture statically maps each data
// partition to one worker thread over point-to-point channels, which makes
// partitions unreachable as soon as their worker sleeps. The paper's
// elasticity extension replaces that with two levels:
//
//   - Intra-socket: messages for a partition are buffered in a
//     per-partition queue on the partition's home socket. Any worker of
//     that socket may take ownership of a partition, drain a batch of its
//     messages, and release it — so shrinking or growing the worker set
//     never orphans a partition, and load balancing within the socket is
//     implicit.
//   - Inter-socket: one communication endpoint per socket buffers
//     messages that target partitions homed on other sockets and
//     transfers them in batches to the remote endpoint.
package msg

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"ecldb/internal/ring"
)

// Message is one unit of work addressed to a data partition. Queues and
// outbound buffers hold messages by value, and the fields are ordered so
// a message is 64 bytes, one cache line's worth.
type Message struct {
	// Partition is the global partition the message operates on.
	Partition int32
	// Hop records that the message crossed the interconnect. Stamped only
	// for traced queries.
	Hop bool
	// Instr is the modeled instruction cost of processing the message.
	Instr float64
	// ExecCtxFn, if set, performs real work against the partition's data
	// structures when the message is processed: the processor calls
	// ExecCtxFn(state, rng, ExecCtx) with the partition's state and its
	// own random source. The work is parameterized by a packed scalar, so
	// neither the sender nor the processor allocates per message.
	ExecCtxFn func(st any, rng *rand.Rand, ctx uint64)
	// ExecCtx is the packed argument passed to ExecCtxFn.
	ExecCtx uint64
	// Ctx is an opaque completion context owned by the sender. The message
	// layer never touches it; the sender's processing loop uses it to find
	// the bookkeeping record a finished message belongs to.
	Ctx any
	// DeliveredAt is the time the message arrived at its home socket's
	// hub: the admission time for locally admitted messages, the delivery
	// step's end for messages transferred by a communication endpoint.
	// Stamped only for traced queries (see internal/obs/trace); zero
	// otherwise.
	DeliveredAt time.Duration
	// SleepAtDeliver snapshots the home socket's cumulative asleep time
	// at delivery; differencing it against the snapshot at completion
	// attributes the wake-from-sleep share of the post-delivery wait.
	// Stamped only for traced queries.
	SleepAtDeliver time.Duration
}

// blockLen is the number of messages in a queue block. 63 messages and
// the link take 4,040 bytes, which the allocator serves from its 4 KiB
// size class; 64 and a link would round up to 4,864.
const blockLen = 63

// block is a fixed run of queued messages. A queue links its blocks
// oldest to newest; the hub's free list links the unused ones.
type block struct {
	msgs [blockLen]Message
	next *block
}

// queue is the FIFO of messages for one partition with an ownership flag.
// Its messages run from head.msgs[hi] to tail.msgs[ti-1] over a chain of
// blocks drawn from the hub's free list.
type queue struct {
	head, tail *block
	hi, ti     int // next slot to pop in head, next slot to fill in tail
	n          int // pending messages
	partition  int
	scanIdx    int // index in the hub's scan order (ready-bitmask bit)
	owner      int // worker token holding the partition, or -1
}

// NoOwner marks an unowned partition queue.
const NoOwner = -1

// Hub is the intra-socket message hub: the per-partition queues of the
// partitions homed on one socket, plus outbound buffers toward remote
// sockets. Hubs are driven by the single-threaded simulation and carry no
// locks; ownership tokens serialize partition access between simulated
// workers.
type Hub struct {
	socket     int
	byPart     []*queue // dense partition -> queue; nil = not homed here
	scan       []*queue // queues in scan order (parallel to order)
	order      []int    // partition scan order for fairness
	scanCursor int
	// outbound holds one persistent ring per remote socket, indexed by
	// socket and grown on the first message toward it. Drained rings are
	// kept, never dropped, so their arrays are reused.
	outbound []ring.Ring[Message]
	outTotal int // messages across all outbound buffers
	pending  int // local messages waiting
	// ready is a bitmask over scan indices: bit i is set exactly when
	// scan[i] is unowned and has pending messages, so Acquire finds the
	// next serveable partition with two bit scans instead of a loop over
	// every queue. Only maintained when the hub has at most 64 partitions
	// (useReady); larger hubs fall back to the linear scan.
	ready    uint64
	useReady bool
	// free is the list of blocks no queue holds. Queues take blocks
	// from it and return drained ones, so the hub allocates about its
	// peak backlog once.
	free *block
}

// NewHub creates the hub of one socket with the given homed partitions.
func NewHub(socket int, partitions []int) *Hub {
	h := &Hub{
		socket:   socket,
		useReady: len(partitions) <= 64,
	}
	maxPart := -1
	for _, p := range partitions {
		if p > maxPart {
			maxPart = p
		}
	}
	// Partition ids are small and dense, so a direct-mapped slice replaces
	// a hash map on the per-message hot paths (enqueue, acquire, dequeue).
	h.byPart = make([]*queue, maxPart+1)
	for i, p := range partitions {
		q := &queue{partition: p, scanIdx: i, owner: NoOwner}
		h.byPart[p] = q
		h.scan = append(h.scan, q)
		h.order = append(h.order, p)
	}
	return h
}

// markReady sets a queue's ready bit if it is serveable (unowned with
// pending messages).
func (h *Hub) markReady(q *queue) {
	if h.useReady && q.owner == NoOwner && q.n > 0 {
		h.ready |= 1 << uint(q.scanIdx)
	}
}

// clearReady clears a queue's ready bit.
func (h *Hub) clearReady(q *queue) {
	if h.useReady {
		h.ready &^= 1 << uint(q.scanIdx)
	}
}

// q returns the queue of a partition, or nil when it is not homed here.
func (h *Hub) q(partition int) *queue {
	if partition < 0 || partition >= len(h.byPart) {
		return nil
	}
	return h.byPart[partition]
}

// Socket returns the hub's socket index.
func (h *Hub) Socket() int { return h.socket }

// Partitions returns the partitions homed on this hub.
func (h *Hub) Partitions() []int { return h.order }

// Pending returns the number of undelivered local messages.
func (h *Hub) Pending() int { return h.pending }

// EnqueueLocal appends a message for a partition homed on this hub and
// returns it, zeroed except for its Partition, for the caller to fill in
// place. The pointer is valid until the next enqueue to the same
// partition.
//
//ecllint:hotpath one call per operation message
func (h *Hub) EnqueueLocal(partition int) (*Message, error) {
	q := h.q(partition)
	if q == nil {
		//ecllint:allow hotpath cold error path; routing is validated when partitions are installed
		return nil, fmt.Errorf("msg: partition %d not homed on socket %d", partition, h.socket)
	}
	switch {
	case q.n == 0 && q.head != nil:
		// The queue ran empty in its last block: refill it from the
		// front. Only the pointer of the last dequeue from this
		// partition pointed into it.
		q.hi, q.ti = 0, 0
	case q.tail == nil || q.ti == blockLen:
		b := h.free
		if b == nil {
			//ecllint:allow hotpath a block is allocated only when the free list is empty, so the hub allocates about its peak backlog once
			b = new(block)
		}
		h.free, b.next = b.next, nil
		if q.tail == nil {
			q.head = b
		} else {
			q.tail.next = b
		}
		q.tail, q.ti = b, 0
	}
	m := &q.tail.msgs[q.ti]
	q.ti++
	q.n++
	*m = Message{Partition: int32(partition)}
	h.pending++
	h.markReady(q)
	return m, nil
}

// EnqueueRemote appends a message for a partition homed on a remote
// socket to the communication endpoint's buffer toward that socket and
// returns it, zeroed except for its Partition, for the caller to fill in
// place. The pointer is valid until the next enqueue toward the same
// socket.
func (h *Hub) EnqueueRemote(remoteSocket, partition int) *Message {
	for remoteSocket >= len(h.outbound) {
		//ecllint:allow hotpath one slot per remote socket, added on the first message toward it
		h.outbound = append(h.outbound, ring.Ring[Message]{})
	}
	m := h.outbound[remoteSocket].Push()
	*m = Message{Partition: int32(partition)}
	h.outTotal++
	return m
}

// DrainOutbound removes up to max buffered messages for a remote socket
// (max <= 0 means all) and returns them, oldest first, as head followed
// by tail. Both are views into the hub's outbound ring, valid until the
// next EnqueueRemote toward the same socket; tail is empty unless the
// drained run wraps around the ring's end. A partial drain advances the
// ring's head and copies nothing.
func (h *Hub) DrainOutbound(remoteSocket int, max int) (head, tail []Message) {
	if remoteSocket < 0 || remoteSocket >= len(h.outbound) {
		return nil, nil
	}
	head, tail = h.outbound[remoteSocket].Take(max)
	h.outTotal -= len(head) + len(tail)
	return head, tail
}

// OutboundLen returns the number of messages buffered toward a remote
// socket.
func (h *Hub) OutboundLen(remoteSocket int) int {
	if remoteSocket < 0 || remoteSocket >= len(h.outbound) {
		return 0
	}
	return h.outbound[remoteSocket].Len()
}

// OutboundTotal returns the number of messages buffered toward all remote
// sockets. O(1); the communication endpoints consult it to skip empty
// rounds.
func (h *Hub) OutboundTotal() int { return h.outTotal }

// Acquire finds the next partition with pending messages that is not
// owned, takes ownership for the worker token, and returns the partition.
// It returns (-1, false) if no partition is available. Scanning rotates so
// partitions are served fairly.
//
//ecllint:hotpath runs once per worker scheduling decision
func (h *Hub) Acquire(worker int) (partition int, ok bool) {
	if h.useReady {
		// The bitmask mirrors the linear scan exactly: the first set bit
		// at or after the cursor (wrapping) is the first queue the loop
		// below would pick, because a bit is set iff the queue is unowned
		// with pending messages.
		if h.ready == 0 {
			return -1, false
		}
		m := h.ready >> uint(h.scanCursor)
		var idx int
		if m != 0 {
			idx = h.scanCursor + bits.TrailingZeros64(m)
		} else {
			idx = bits.TrailingZeros64(h.ready)
		}
		q := h.scan[idx]
		q.owner = worker
		h.ready &^= 1 << uint(idx)
		h.scanCursor = idx + 1
		if h.scanCursor == len(h.scan) {
			h.scanCursor = 0
		}
		return q.partition, true
	}
	n := len(h.scan)
	i := h.scanCursor
	for c := 0; c < n; c++ {
		q := h.scan[i]
		i++
		if i == n {
			i = 0
		}
		if q.owner == NoOwner && q.n > 0 {
			q.owner = worker
			h.scanCursor = i
			return q.partition, true
		}
	}
	return -1, false
}

// AcquireSpecific takes ownership of one specific partition if it is
// unowned and has pending messages. Used by the static-binding ablation
// mode, where workers may only serve their own partitions.
func (h *Hub) AcquireSpecific(worker, partition int) bool {
	q := h.q(partition)
	if q == nil || q.owner != NoOwner || q.n == 0 {
		return false
	}
	q.owner = worker
	h.clearReady(q)
	return true
}

// Owner returns the worker token owning a partition, or NoOwner.
func (h *Hub) Owner(partition int) int {
	if q := h.q(partition); q != nil {
		return q.owner
	}
	return NoOwner
}

// Release gives up ownership of a partition. Releasing an unowned or
// foreign partition is an error.
func (h *Hub) Release(worker, partition int) error {
	q := h.q(partition)
	if q == nil {
		//ecllint:allow hotpath cold error path; routing is validated when partitions are installed
		return fmt.Errorf("msg: partition %d not homed on socket %d", partition, h.socket)
	}
	if q.owner != worker {
		//ecllint:allow hotpath cold error path; release always follows a successful Acquire
		return fmt.Errorf("msg: worker %d releasing partition %d owned by %d", worker, partition, q.owner)
	}
	q.owner = NoOwner
	h.markReady(q)
	return nil
}

// DequeueOne pops a single message from an owned partition, or nil when
// the queue is empty. The caller must hold ownership. The result points
// into the queue's block and is valid until the next enqueue to or
// dequeue from the same partition; enqueues to other partitions leave it
// in place. This is the engine's per-message hot path.
//
//ecllint:hotpath one call per executed operation
func (h *Hub) DequeueOne(worker, partition int) (*Message, error) {
	q := h.q(partition)
	if q == nil {
		//ecllint:allow hotpath cold error path; routing is validated when partitions are installed
		return nil, fmt.Errorf("msg: partition %d not homed on socket %d", partition, h.socket)
	}
	if q.owner != worker {
		//ecllint:allow hotpath cold error path; ownership is enforced by Acquire before any dequeue
		return nil, fmt.Errorf("msg: worker %d dequeuing partition %d owned by %d", worker, partition, q.owner)
	}
	// A drained block goes back to the free list one dequeue late, so
	// the message last returned stays in place until the next call.
	if q.n == 0 {
		if q.head != nil {
			q.head.next, h.free = h.free, q.head
			q.head, q.tail, q.hi, q.ti = nil, nil, 0, 0
		}
		return nil, nil
	}
	if q.hi == blockLen {
		b := q.head
		q.head, q.hi = b.next, 0
		b.next, h.free = h.free, b
	}
	m := &q.head.msgs[q.hi]
	q.hi++
	q.n--
	h.pending--
	return m, nil
}

// QueueLen returns the number of pending messages of one partition.
func (h *Hub) QueueLen(partition int) int {
	if q := h.q(partition); q != nil {
		return q.n
	}
	return 0
}
