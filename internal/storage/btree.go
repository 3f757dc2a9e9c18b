package storage

import "fmt"

// btreeDegree is the maximum number of keys per B+-tree node. 64 keys per
// node keeps nodes within a few cachelines, the sweet spot for in-memory
// trees.
const btreeDegree = 64

// BTree is an in-memory B+-tree mapping int64 keys to uint64 values
// (typically row positions). It supports point lookups, ordered insertion,
// and range scans — the access path behind range predicates (TATP's
// call-forwarding windows, SSB's date ranges). Like the other storage
// structures it is single-writer per partition and carries no locking.
type BTree struct {
	root *btreeNode
	size int
	// slab, keyPool, valPool and kidPool are the node storage NewBTree
	// pre-allocates. newNode hands out slab nodes with full-size arrays
	// carved from the pools, so a node never reallocates its arrays and
	// a tree within its reserve inserts, splits and deletes without
	// allocating. Beyond the reserve nodes come from the heap.
	slab    []btreeNode
	keyPool []int64
	valPool []uint64
	kidPool []*btreeNode
}

// btreeNode is a node of the tree. Leaves hold values and are chained for
// range scans; inner nodes hold child pointers. keys has at most
// btreeDegree entries; children (inner) has len(keys)+1, vals (leaf) has
// len(keys).
type btreeNode struct {
	leaf     bool
	keys     []int64
	vals     []uint64     // leaf only
	children []*btreeNode // inner only
	next     *btreeNode   // leaf chain
}

// btreeReserveKeys is how many keys a new tree holds, at the half fill
// a split leaves behind, before a node comes from the heap. The ordered
// index of TATP's call_forwarding table is the tree on the hot path; it
// reaches 210-490 keys per partition in a tatp-spike rep (seeds 1 and 7).
const btreeReserveKeys = 512

// NewBTree returns an empty tree with node storage pre-allocated for
// btreeReserveKeys keys: enough leaves for them at half fill, plus their
// inner nodes.
func NewBTree() *BTree {
	const (
		half   = btreeDegree / 2
		leaves = btreeReserveKeys/half + 1
		inner  = leaves/half + 1
	)
	t := &BTree{
		slab:    make([]btreeNode, 0, leaves+inner),
		keyPool: make([]int64, 0, (leaves+inner)*(btreeDegree+1)),
		valPool: make([]uint64, 0, leaves*(btreeDegree+1)),
		kidPool: make([]*btreeNode, 0, inner*(btreeDegree+2)),
	}
	t.root = t.newNode(true)
	return t
}

// newNode returns an empty node whose arrays hold one key (and value or
// child) beyond btreeDegree: the overflowing insert that triggers a split.
func (t *BTree) newNode(leaf bool) *btreeNode {
	var n *btreeNode
	if len(t.slab) < cap(t.slab) {
		t.slab = t.slab[:len(t.slab)+1]
		n = &t.slab[len(t.slab)-1]
	} else {
		n = new(btreeNode)
	}
	n.leaf = leaf
	n.keys = carve(&t.keyPool, btreeDegree+1)
	if leaf {
		n.vals = carve(&t.valPool, btreeDegree+1)
	} else {
		n.children = carve(&t.kidPool, btreeDegree+2)
	}
	return n
}

// carve returns an empty slice of capacity n cut from the front of
// *pool's spare capacity, or a fresh one once the pool is used up.
func carve[T any](pool *[]T, n int) []T {
	p := *pool
	if cap(p)-len(p) < n {
		return make([]T, 0, n)
	}
	*pool = p[:len(p)+n]
	return p[len(p) : len(p) : len(p)+n]
}

// Len returns the number of stored keys.
func (t *BTree) Len() int { return t.size }

// search returns the index of the first key >= k in node keys.
func search(keys []int64, k int64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the value stored under key.
func (t *BTree) Get(key int64) (uint64, bool) {
	n := t.root
	for !n.leaf {
		i := search(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			i++ // equal keys route right (keys[i] is the first key of child i+1)
		}
		n = n.children[i]
	}
	i := search(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		return n.vals[i], true
	}
	return 0, false
}

// Put inserts or overwrites a key. It reports whether the key was new.
func (t *BTree) Put(key int64, val uint64) bool {
	added, split, sepKey, right := t.insert(t.root, key, val)
	if split != nil {
		root := t.newNode(false)
		root.keys = append(root.keys, sepKey)
		root.children = append(root.children, split, right)
		t.root = root
	}
	if added {
		t.size++
	}
	return added
}

// insert adds key to the subtree rooted at n. If n overflows it is split:
// the return values are (added, left, separatorKey, right) with left == n.
func (t *BTree) insert(n *btreeNode, key int64, val uint64) (bool, *btreeNode, int64, *btreeNode) {
	if n.leaf {
		i := search(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			n.vals[i] = val
			return false, nil, 0, nil
		}
		n.keys = append(n.keys, 0)
		n.vals = append(n.vals, 0)
		copy(n.keys[i+1:], n.keys[i:])
		copy(n.vals[i+1:], n.vals[i:])
		n.keys[i] = key
		n.vals[i] = val
		if len(n.keys) <= btreeDegree {
			return true, nil, 0, nil
		}
		// Split the leaf: right sibling takes the upper half; the
		// separator is the right sibling's first key.
		mid := len(n.keys) / 2
		right := t.newNode(true)
		right.keys = append(right.keys, n.keys[mid:]...)
		right.vals = append(right.vals, n.vals[mid:]...)
		right.next = n.next
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
		n.next = right
		return true, n, right.keys[0], right
	}
	i := search(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		i++
	}
	added, _, sepKey, right := t.insert(n.children[i], key, val)
	if right != nil {
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = sepKey
		n.children = append(n.children, nil)
		copy(n.children[i+2:], n.children[i+1:])
		n.children[i+1] = right
		if len(n.keys) > btreeDegree {
			// Split the inner node: the middle key moves up.
			mid := len(n.keys) / 2
			sep := n.keys[mid]
			r := t.newNode(false)
			r.keys = append(r.keys, n.keys[mid+1:]...)
			r.children = append(r.children, n.children[mid+1:]...)
			n.keys = n.keys[:mid]
			n.children = n.children[:mid+1]
			return added, n, sep, r
		}
	}
	return added, nil, 0, nil
}

// Range calls fn for every key in [lo, hi] in ascending order until fn
// returns false.
func (t *BTree) Range(lo, hi int64, fn func(key int64, val uint64) bool) {
	n := t.root
	for !n.leaf {
		n = n.children[search(n.keys, lo)]
	}
	for n != nil {
		for i := search(n.keys, lo); i < len(n.keys); i++ {
			if n.keys[i] > hi {
				return
			}
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
		n = n.next
	}
}

// Min returns the smallest key, or false when empty.
func (t *BTree) Min() (int64, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	if len(n.keys) == 0 {
		return 0, false
	}
	return n.keys[0], true
}

// Max returns the largest key, or false when empty.
func (t *BTree) Max() (int64, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[len(n.children)-1]
	}
	if len(n.keys) == 0 {
		return 0, false
	}
	return n.keys[len(n.keys)-1], true
}

// Delete removes a key, reporting whether it was present. The
// implementation uses lazy deletion semantics common for in-memory trees:
// the key is removed from its leaf; underflowed nodes are not rebalanced
// (partition data in the benchmarks is dominated by inserts and lookups).
func (t *BTree) Delete(key int64) bool {
	n := t.root
	for !n.leaf {
		i := search(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			i++
		}
		n = n.children[i]
	}
	i := search(n.keys, key)
	if i >= len(n.keys) || n.keys[i] != key {
		return false
	}
	copy(n.keys[i:], n.keys[i+1:])
	copy(n.vals[i:], n.vals[i+1:])
	n.keys = n.keys[:len(n.keys)-1]
	n.vals = n.vals[:len(n.vals)-1]
	t.size--
	return true
}

// depth returns the height of the tree (for tests).
func (t *BTree) depth() int {
	d := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		d++
	}
	return d
}

// checkInvariants validates ordering and structural invariants (tests).
func (t *BTree) checkInvariants() error {
	var prev *int64
	count := 0
	var walk func(n *btreeNode, lo, hi *int64) error
	walk = func(n *btreeNode, lo, hi *int64) error {
		for i := 1; i < len(n.keys); i++ {
			if n.keys[i-1] >= n.keys[i] {
				return fmt.Errorf("btree: unsorted keys in node")
			}
		}
		if lo != nil && len(n.keys) > 0 && n.keys[0] < *lo {
			return fmt.Errorf("btree: key below lower bound")
		}
		if hi != nil && len(n.keys) > 0 && n.keys[len(n.keys)-1] >= *hi {
			return fmt.Errorf("btree: key above upper bound")
		}
		if n.leaf {
			for _, k := range n.keys {
				k := k
				if prev != nil && *prev >= k {
					return fmt.Errorf("btree: leaf chain out of order")
				}
				prev = &k
				count++
			}
			return nil
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("btree: child count mismatch")
		}
		for i, c := range n.children {
			var clo, chi *int64
			if i > 0 {
				clo = &n.keys[i-1]
			} else {
				clo = lo
			}
			if i < len(n.keys) {
				chi = &n.keys[i]
			} else {
				chi = hi
			}
			if err := walk(c, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, nil, nil); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("btree: size %d but %d keys reachable", t.size, count)
	}
	return nil
}
