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

// blockLen is the number of messages in a block. 63 messages and the
// link take 4,040 bytes, which the allocator serves from its 4 KiB size
// class; 64 and a link would round up to 4,864.
const blockLen = 63

// block is a fixed run of messages. A fifo links its blocks oldest to
// newest; the hub's free list links the unused ones.
type block struct {
	msgs [blockLen]Message
	next *block
}

// fifo is a FIFO of messages over a chain of blocks drawn from one hub's
// free list. Its messages run from head.msgs[hi] to tail.msgs[ti-1]. The
// partition queues and the outbound buffers of a hub are fifos over the
// same free list, so the hub allocates about its peak backlog once,
// wherever the messages wait.
type fifo struct {
	head, tail *block
	hi, ti     int // next slot to pop in head, next slot to fill in tail
	n          int // messages held
}

// push appends a message and returns its slot for the caller to
// overwrite whole. The pointer is valid until the next push to f. A
// block is taken from *free only when the tail block is full, and
// allocated only when *free is empty.
func (f *fifo) push(free **block) *Message {
	switch {
	case f.n == 0 && f.head != nil:
		// The fifo ran empty in its last block: refill it from the
		// front. Only the pointer of the last pop pointed into it.
		f.hi, f.ti = 0, 0
	case f.tail == nil || f.ti == blockLen:
		b := *free
		if b == nil {
			//ecllint:allow hotpath a block is allocated only when the free list is empty, so the hub allocates about its peak backlog once
			b = new(block)
		}
		*free, b.next = b.next, nil
		if f.tail == nil {
			f.head = b
		} else {
			f.tail.next = b
		}
		f.tail, f.ti = b, 0
	}
	m := &f.tail.msgs[f.ti]
	f.ti++
	f.n++
	return m
}

// pop removes the oldest message and returns a pointer to its slot, or
// nil when f is empty. The pointer is valid until the next push to or pop
// from f: a drained block goes back to *free one pop late, so the message
// last returned stays in place while other fifos of the hub take blocks.
func (f *fifo) pop(free **block) *Message {
	if f.n == 0 {
		if f.head != nil {
			f.head.next, *free = *free, f.head
			f.head, f.tail, f.hi, f.ti = nil, nil, 0, 0
		}
		return nil
	}
	if f.hi == blockLen {
		b := f.head
		f.head, f.hi = b.next, 0
		b.next, *free = *free, b
	}
	m := &f.head.msgs[f.hi]
	f.hi++
	f.n--
	return m
}

// queue is the FIFO of messages for one partition with an ownership flag.
type queue struct {
	fifo
	partition int
	scanIdx   int // index in the hub's scan order (ready-bitmask bit)
	owner     int // worker token holding the partition, or -1
}

// NoOwner marks an unowned partition queue.
const NoOwner = -1

// maxHubPartitions is the most partitions one hub homes: one bit each in
// the ready bitmask.
const maxHubPartitions = 64

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
	// outbound holds one fifo per socket of the router, indexed by the
	// remote socket; the hub's own entry stays empty.
	outbound []fifo
	outTotal int // messages across all outbound buffers
	pending  int // local messages waiting
	// ready is a bitmask over scan indices: bit i is set exactly when
	// scan[i] is unowned and has pending messages, so Acquire finds the
	// next serveable partition with two bit scans.
	ready uint64
	// free is the list of blocks no fifo holds. The queues and outbound
	// buffers take blocks from it and return drained ones.
	free *block
}

// NewHub creates the hub of one socket with the given homed partitions,
// at most 64 of them (one bit each in the ready bitmask; NewRouter
// rejects more). A hub built alone has no outbound buffers; NewRouter
// gives its hubs one per socket.
func NewHub(socket int, partitions []int) *Hub {
	h := &Hub{socket: socket}
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
	if q.owner == NoOwner && q.n > 0 {
		h.ready |= 1 << uint(q.scanIdx)
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
	m := q.push(&h.free)
	*m = Message{Partition: int32(partition)}
	h.pending++
	h.markReady(q)
	return m, nil
}

// enqueueRemote appends a message for a partition homed on a remote
// socket to the communication endpoint's buffer toward that socket and
// returns it, zeroed except for its Partition, for the caller to fill in
// place. The pointer is valid until the next enqueue toward the same
// socket.
func (h *Hub) enqueueRemote(remoteSocket, partition int) *Message {
	m := h.outbound[remoteSocket].push(&h.free)
	*m = Message{Partition: int32(partition)}
	h.outTotal++
	return m
}

// OutboundTotal returns the number of messages buffered toward all remote
// sockets. O(1); the communication endpoints consult it to skip empty
// rounds.
func (h *Hub) OutboundTotal() int { return h.outTotal }

// Acquire finds the next partition with pending messages that is not
// owned, takes ownership for the worker token, and returns the partition.
// It returns (-1, false) if no partition is available. Scanning rotates so
// partitions are served fairly: the first ready queue at or after the
// cursor, wrapping, is served, and the cursor moves past it.
//
//ecllint:hotpath runs once per worker scheduling decision
func (h *Hub) Acquire(worker int) (partition int, ok bool) {
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

// AcquireSpecific takes ownership of one specific partition if it is
// unowned and has pending messages. Used by the static-binding ablation
// mode, where workers may only serve their own partitions.
func (h *Hub) AcquireSpecific(worker, partition int) bool {
	q := h.q(partition)
	if q == nil || q.owner != NoOwner || q.n == 0 {
		return false
	}
	q.owner = worker
	h.ready &^= 1 << uint(q.scanIdx)
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
	m := q.pop(&h.free)
	if m != nil {
		h.pending--
	}
	return m, nil
}

// QueueLen returns the number of pending messages of one partition.
func (h *Hub) QueueLen(partition int) int {
	if q := h.q(partition); q != nil {
		return q.n
	}
	return 0
}
