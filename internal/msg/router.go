package msg

import "fmt"

// Per-message modeled costs of the communication endpoints. Transfers are
// batched, so the per-message cost is small; it still makes inter-socket
// work (joins shipping tuples between partitions) measurably more
// expensive than local work, which is why the paper's SSB workload favors
// a higher uncore clock than TATP.
const (
	// TransferInstr is the instruction cost charged to the communication
	// endpoint per transferred message.
	TransferInstr = 400
	// TransferBytes is the interconnect/DRAM traffic per transferred
	// message.
	TransferBytes = 128
	// TransferBatch is the maximum number of messages a communication
	// endpoint moves per transfer round.
	TransferBatch = 1024
)

// Router connects the per-socket hubs: it routes messages to the home
// socket of their partition and operates the per-socket communication
// endpoints that move buffered remote messages.
type Router struct {
	hubs []*Hub
	home []int // dense partition -> socket; -1 = unknown
	// deliver, when non-nil, observes every message a communication
	// endpoint hands to its home hub (query tracing; see SetDeliverHook).
	deliver func(home int, m *Message)
}

// NewRouter builds a router over per-socket partition assignments:
// homes[s] lists the partitions homed on socket s, at most 64 per socket.
// Partition ids are small and dense, so the home table is a
// direct-mapped slice (Send is a per-message hot path).
func NewRouter(homes [][]int) (*Router, error) {
	r := &Router{}
	for s, parts := range homes {
		if len(parts) > maxHubPartitions {
			return nil, fmt.Errorf("msg: socket %d homes %d partitions, more than %d", s, len(parts), maxHubPartitions)
		}
		for _, p := range parts {
			for p >= len(r.home) {
				r.home = append(r.home, -1)
			}
			if owner := r.home[p]; owner >= 0 {
				return nil, fmt.Errorf("msg: partition %d homed on sockets %d and %d", p, owner, s)
			}
			r.home[p] = s
		}
		h := NewHub(s, parts)
		h.outbound = make([]fifo, len(homes))
		r.hubs = append(r.hubs, h)
	}
	return r, nil
}

// Hub returns the hub of a socket.
func (r *Router) Hub(socket int) *Hub { return r.hubs[socket] }

// Sockets returns the number of sockets.
func (r *Router) Sockets() int { return len(r.hubs) }

// Home returns the home socket of a partition.
func (r *Router) Home(partition int) (int, bool) {
	if partition < 0 || partition >= len(r.home) || r.home[partition] < 0 {
		return 0, false
	}
	return r.home[partition], true
}

// Send routes a new message for a partition and returns it, zeroed
// except for its Partition, for the caller to fill in place: if the
// message originates on the partition's home socket it is enqueued
// locally, otherwise it is buffered at the origin socket's communication
// endpoint for transfer. The pointer is valid until the next message is
// sent toward the same partition or socket.
func (r *Router) Send(originSocket, partition int) (*Message, error) {
	home, ok := r.Home(partition)
	if !ok {
		//ecllint:allow hotpath error path, never taken once the partition map is installed
		return nil, fmt.Errorf("msg: unknown partition %d", partition)
	}
	if originSocket < 0 || originSocket >= len(r.hubs) {
		//ecllint:allow hotpath error path, never taken by the engine's socket loop
		return nil, fmt.Errorf("msg: invalid origin socket %d", originSocket)
	}
	if home == originSocket {
		return r.hubs[home].EnqueueLocal(partition)
	}
	return r.hubs[originSocket].enqueueRemote(home, partition), nil
}

// SetDeliverHook registers a callback invoked for every message a
// communication endpoint delivers into its home hub, just before the
// enqueue, so what the hook stamps on the message travels with it. The
// hook may stamp the message's tracing fields but must not mutate routing
// state. A nil hook (the default) disables the callback; the hot path
// then pays a single nil check per transferred message.
func (r *Router) SetDeliverHook(fn func(home int, m *Message)) { r.deliver = fn }

// TransferReport describes one communication round of a socket endpoint.
type TransferReport struct {
	Messages int
	Instr    float64
	Bytes    float64
}

// RunCommEndpoint executes one communication round for a socket: it moves
// up to TransferBatch buffered messages per remote socket, oldest first,
// into the remote hubs and reports the modeled cost incurred on the local
// endpoint.
func (r *Router) RunCommEndpoint(socket int) (TransferReport, error) {
	var rep TransferReport
	h := r.hubs[socket]
	if h.OutboundTotal() == 0 {
		// Nothing buffered toward any remote socket: the round is a no-op.
		return rep, nil
	}
	for remote := range r.hubs {
		if remote == socket {
			continue
		}
		out := &h.outbound[remote]
		// Popping no further than the last message leaves a drained
		// buffer its block, which the next send refills from the front.
		for k := min(TransferBatch, out.n); k > 0; k-- {
			// m stays valid through the remote hub's enqueue: that draws
			// from the remote hub's free list, not from h's.
			m := out.pop(&h.free)
			h.outTotal--
			if r.deliver != nil {
				r.deliver(remote, m)
			}
			dst, err := r.hubs[remote].EnqueueLocal(int(m.Partition))
			if err != nil {
				return rep, err
			}
			*dst = *m
			rep.Messages++
			rep.Instr += TransferInstr
			rep.Bytes += TransferBytes
		}
	}
	return rep, nil
}

// PendingTotal returns the number of undelivered messages across all hubs
// (local queues plus outbound buffers).
func (r *Router) PendingTotal() int {
	total := 0
	for _, h := range r.hubs {
		total += h.Pending() + h.OutboundTotal()
	}
	return total
}
