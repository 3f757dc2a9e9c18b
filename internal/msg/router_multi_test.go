package msg

import "testing"

// Four-socket routing: messages reach the right hubs, transfers route to
// the correct remote endpoints, and conservation holds across a
// multi-socket mesh.
func TestRouterFourSockets(t *testing.T) {
	r, err := NewRouter([][]int{{0, 4}, {1, 5}, {2, 6}, {3, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sockets() != 4 {
		t.Fatalf("Sockets = %d", r.Sockets())
	}
	// Send from socket 0 to one partition on every socket.
	for p := 0; p < 4; p++ {
		if err := send(r, 0, mkMsg(p)); err != nil {
			t.Fatal(err)
		}
	}
	// Local delivery happened immediately; the three remote ones are
	// buffered per remote endpoint.
	if r.Hub(0).QueueLen(0) != 1 {
		t.Error("local message not delivered")
	}
	for remote := 1; remote < 4; remote++ {
		if n := r.Hub(0).outbound[remote].n; n != 1 {
			t.Errorf("outbound to socket %d = %d, want 1", remote, n)
		}
	}
	rep, err := r.RunCommEndpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Messages != 3 {
		t.Fatalf("transferred %d, want 3", rep.Messages)
	}
	for s := 1; s < 4; s++ {
		if r.Hub(s).QueueLen(s) != 1 {
			t.Errorf("socket %d did not receive its message", s)
		}
	}
	if r.PendingTotal() != 4 {
		t.Fatalf("PendingTotal = %d, want 4 delivered-but-unprocessed", r.PendingTotal())
	}
}

// A hub with several partitions serves the longest-waiting partition
// first under rotation, so no partition starves while others have deep
// queues.
func TestHubNoStarvationUnderSkew(t *testing.T) {
	h := NewHub(0, []int{1, 2, 3})
	// Partition 1 gets a deep queue; 2 and 3 get one message each.
	for i := 0; i < 100; i++ {
		if err := enqueue(h, mkMsg(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := enqueue(h, mkMsg(2)); err != nil {
		t.Fatal(err)
	}
	if err := enqueue(h, mkMsg(3)); err != nil {
		t.Fatal(err)
	}
	served := map[int]int{}
	// Six acquire/dequeue-batch/release rounds with batch 10: rotation
	// must reach partitions 2 and 3 within the first three rounds.
	for round := 0; round < 6; round++ {
		p, ok := h.Acquire(1)
		if !ok {
			break
		}
		batch, err := dequeueUpTo(h, 1, p, 10)
		if err != nil {
			t.Fatal(err)
		}
		served[p] += len(batch)
		if err := h.Release(1, p); err != nil {
			t.Fatal(err)
		}
	}
	if served[2] == 0 || served[3] == 0 {
		t.Errorf("rotation starved a partition: served=%v", served)
	}
}
