// Package ring provides Ring, a FIFO of values over one power-of-two
// array that doubles only when full. The latency window of internal/dodb
// is a ring, so a steady stream of samples recycles one array, and a
// backlog grows it at most log2 times, instead of allocating per element
// or reallocating on every ~1.25x append growth. The window reads its
// samples in place as at most two contiguous views (All), which is what
// a ring offers over a chain of blocks. The message FIFOs of internal/msg
// need no views, and many of them share one hub, so they chain fixed
// blocks from a per-hub free list instead: a ring per FIFO would double
// on its own and leave behind arrays up to twice its peak.
package ring

// minCap is the length of a ring's first array: one engine worker batch
// of elements, so a ring under a light standing backlog never grows past
// its first array.
const minCap = 64

// Ring is a FIFO of T values. The zero value is an empty ring.
//
// Removed elements are not cleared: their slots keep the values until a
// later Push reuses them, which is what lets Pop hand out a pointer
// without copying.
type Ring[T any] struct {
	buf  []T // len(buf) is 0 or a power of two
	head int // index of the oldest element
	n    int // number of elements
}

// Len returns the number of elements.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the length of the backing array: the most elements the ring
// holds before its next growth.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Push appends a newest element and returns a pointer to it for the
// caller to fill in place. The element still holds whatever value its
// slot last held, so the caller overwrites it whole. Filling in place
// writes the element once; passing it by value would write it to the
// caller's frame first and copy it.
func (r *Ring[T]) Push() *T {
	if r.n == len(r.buf) {
		//ecllint:allow hotpath the array doubles only when full, so a steady stream reuses it and a backlog grows it at most log2 times
		r.grow()
	}
	p := &r.buf[(r.head+r.n)&(len(r.buf)-1)]
	r.n++
	return p
}

// grow moves the elements, oldest first, to the front of an array twice
// the size.
func (r *Ring[T]) grow() {
	buf := make([]T, max(2*len(r.buf), minCap))
	a, b := r.segments(r.n)
	copy(buf[copy(buf, a):], b)
	r.buf, r.head = buf, 0
}

// Front returns the oldest element, or nil when the ring is empty. The
// pointer is valid until the next Push.
func (r *Ring[T]) Front() *T {
	if r.n == 0 {
		return nil
	}
	return &r.buf[r.head]
}

// Pop removes the oldest element and returns a pointer to its slot, or
// nil when the ring is empty. The slot keeps the value until the next
// Push.
func (r *Ring[T]) Pop() *T {
	if r.n == 0 {
		return nil
	}
	p := &r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

// All returns every element, oldest first, as head followed by tail,
// without removing them. The views are valid until the next Push.
func (r *Ring[T]) All() (head, tail []T) { return r.segments(r.n) }

// segments returns the n oldest elements as at most two contiguous runs
// of the array.
func (r *Ring[T]) segments(n int) (head, tail []T) {
	if n == 0 {
		return nil, nil
	}
	end := r.head + n
	if end <= len(r.buf) {
		return r.buf[r.head:end:end], nil
	}
	return r.buf[r.head:], r.buf[:end-len(r.buf)]
}
