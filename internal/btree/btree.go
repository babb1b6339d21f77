// Package btree implements the B⁺-tree used by the centralized tweet
// metadata database (Section IV-A of the paper: one B⁺-tree on the primary
// key "sid" and another on "rsid"). Keys are int64; each key maps to a list
// of int64 values, which makes the same structure serve both the unique
// primary index (one value per key) and the secondary rsid index (all posts
// replying to / forwarding a given post).
//
// Leaves are chained left-to-right so range scans are sequential, and the
// tree reports how many node accesses each operation performed, feeding the
// I/O accounting of the query processing experiments.
package btree

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// DefaultOrder is the default maximum number of keys per node. 64 keys of
// 8 bytes plus fanout pointers approximates a 4 KB disk page.
const DefaultOrder = 64

// Tree is a B⁺-tree from int64 keys to lists of int64 values.
// The zero value is not usable; call New.
//
// Reads (Get, Range, Keys) are safe for concurrent use once loading is
// finished; Insert is not. The access counter is atomic so concurrent
// readers account their node visits correctly.
type Tree struct {
	order      int
	root       node
	size       int          // number of distinct keys
	valueCount int          // number of stored values
	accesses   atomic.Int64 // node visits, a proxy for page I/O
}

type node interface {
	isLeaf() bool
}

type leafNode struct {
	keys []int64
	vals [][]int64
	next *leafNode
}

func (*leafNode) isLeaf() bool { return true }

type innerNode struct {
	// keys[i] is the smallest key reachable through children[i+1].
	keys     []int64
	children []node
}

func (*innerNode) isLeaf() bool { return false }

// New returns an empty tree with the given order (maximum keys per node).
// Orders below 3 are rejected.
func New(order int) (*Tree, error) {
	if order < 3 {
		return nil, fmt.Errorf("btree: order %d too small (min 3)", order)
	}
	return &Tree{order: order, root: &leafNode{}}, nil
}

// MustNew is New for known-good orders; it panics on error.
func MustNew(order int) *Tree {
	t, err := New(order)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the number of distinct keys.
func (t *Tree) Len() int { return t.size }

// ValueCount returns the total number of stored values.
func (t *Tree) ValueCount() int { return t.valueCount }

// Accesses returns the cumulative number of node visits since creation or
// the last ResetAccesses.
func (t *Tree) Accesses() int64 { return t.accesses.Load() }

// ResetAccesses zeroes the access counter.
func (t *Tree) ResetAccesses() { t.accesses.Store(0) }

// Height returns the number of levels in the tree (1 for a single leaf).
func (t *Tree) Height() int {
	h := 1
	n := t.root
	for !n.isLeaf() {
		n = n.(*innerNode).children[0]
		h++
	}
	return h
}

// Insert adds value to the list stored under key.
func (t *Tree) Insert(key, value int64) {
	splitKey, right := t.insert(t.root, key, value)
	if right != nil {
		t.root = &innerNode{keys: []int64{splitKey}, children: []node{t.root, right}}
	}
}

// insert descends to the leaf, inserts, and propagates splits upward.
// It returns a non-nil new right sibling and its separator key when the
// visited node split.
func (t *Tree) insert(n node, key, value int64) (int64, node) {
	t.accesses.Add(1)
	if n.isLeaf() {
		return t.insertLeaf(n.(*leafNode), key, value)
	}
	in := n.(*innerNode)
	idx := sort.Search(len(in.keys), func(i int) bool { return key < in.keys[i] })
	splitKey, right := t.insert(in.children[idx], key, value)
	if right == nil {
		return 0, nil
	}
	// Child split: insert separator and new child after idx.
	in.keys = append(in.keys, 0)
	copy(in.keys[idx+1:], in.keys[idx:])
	in.keys[idx] = splitKey
	in.children = append(in.children, nil)
	copy(in.children[idx+2:], in.children[idx+1:])
	in.children[idx+1] = right
	if len(in.keys) <= t.order {
		return 0, nil
	}
	// Split this inner node: middle key moves up.
	mid := len(in.keys) / 2
	upKey := in.keys[mid]
	sibling := &innerNode{
		keys:     append([]int64(nil), in.keys[mid+1:]...),
		children: append([]node(nil), in.children[mid+1:]...),
	}
	in.keys = in.keys[:mid]
	in.children = in.children[:mid+1]
	return upKey, sibling
}

func (t *Tree) insertLeaf(lf *leafNode, key, value int64) (int64, node) {
	idx := sort.Search(len(lf.keys), func(i int) bool { return lf.keys[i] >= key })
	if idx < len(lf.keys) && lf.keys[idx] == key {
		lf.vals[idx] = append(lf.vals[idx], value)
		t.valueCount++
		return 0, nil
	}
	lf.keys = append(lf.keys, 0)
	copy(lf.keys[idx+1:], lf.keys[idx:])
	lf.keys[idx] = key
	lf.vals = append(lf.vals, nil)
	copy(lf.vals[idx+1:], lf.vals[idx:])
	lf.vals[idx] = []int64{value}
	t.size++
	t.valueCount++
	if len(lf.keys) <= t.order {
		return 0, nil
	}
	// Split the leaf: right sibling keeps the upper half; the separator is
	// the right sibling's first key (B⁺-tree convention: keys stay in leaves).
	mid := len(lf.keys) / 2
	sibling := &leafNode{
		keys: append([]int64(nil), lf.keys[mid:]...),
		vals: append([][]int64(nil), lf.vals[mid:]...),
		next: lf.next,
	}
	lf.keys = lf.keys[:mid]
	lf.vals = lf.vals[:mid]
	lf.next = sibling
	return sibling.keys[0], sibling
}

// Get returns the values stored under key, or nil if absent. The returned
// slice aliases internal storage and must not be modified.
func (t *Tree) Get(key int64) []int64 {
	vals, _ := t.GetCounted(key)
	return vals
}

// GetCounted is Get plus the number of tree nodes the lookup visited, so
// callers that simulate disk behaviour can charge per-node I/O.
func (t *Tree) GetCounted(key int64) ([]int64, int) {
	lf, visited := t.findLeaf(key)
	idx := sort.Search(len(lf.keys), func(i int) bool { return lf.keys[i] >= key })
	if idx < len(lf.keys) && lf.keys[idx] == key {
		return lf.vals[idx], visited
	}
	return nil, visited
}

// Contains reports whether key is present.
func (t *Tree) Contains(key int64) bool { return t.Get(key) != nil }

// GetBatchCounted looks up every key of a batch and returns the value
// lists aligned with the input, plus the total number of tree nodes the
// batch visited. Keys are processed in ascending order regardless of input
// order, so runs of nearby keys amortize traversal: after one root-to-leaf
// descent the lookup advances along the leaf chain while the next key's
// leaf is within a descent's worth of hops, and re-descends from the root
// only for longer jumps. A batch therefore never visits more nodes than
// the equivalent single-key loop (len(keys) descents of Height() nodes
// each), and for clustered keys visits close to one node per touched leaf.
func (t *Tree) GetBatchCounted(keys []int64) ([][]int64, int) {
	out := make([][]int64, len(keys))
	if len(keys) == 0 {
		return out, 0
	}
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })

	height := t.Height()
	visited := 0
	var lf *leafNode
	for n, oi := range order {
		key := keys[oi]
		if n > 0 && key == keys[order[n-1]] {
			out[oi] = out[order[n-1]] // duplicate key: reuse, no extra I/O
			continue
		}
		lf, visited = t.seekLeaf(lf, key, height, visited)
		idx := sort.Search(len(lf.keys), func(i int) bool { return lf.keys[i] >= key })
		if idx < len(lf.keys) && lf.keys[idx] == key {
			out[oi] = lf.vals[idx]
		}
	}
	t.accesses.Add(int64(visited))
	return out, visited
}

// seekLeaf positions the batch cursor on the leaf that may contain key,
// either by walking the chain from the current leaf or by re-descending,
// whichever touches fewer nodes. It returns the leaf and the updated visit
// count. key must be >= every key sought before it (batch keys are sorted).
func (t *Tree) seekLeaf(lf *leafNode, key int64, height, visited int) (*leafNode, int) {
	if lf == nil {
		target, v := t.descend(key)
		return target, visited + v
	}
	if len(lf.keys) > 0 && key <= lf.keys[len(lf.keys)-1] {
		return lf, visited // still inside the current leaf: free
	}
	// Peek forward along the chain: if the covering leaf is within height
	// hops, walking there is no more expensive than a fresh descent.
	cur, hops := lf, 0
	for cur.next != nil && hops < height {
		cur = cur.next
		hops++
		if len(cur.keys) > 0 && key <= cur.keys[len(cur.keys)-1] {
			return cur, visited + hops
		}
	}
	if cur.next == nil {
		// Reached the rightmost leaf within budget: the key is either in it
		// or beyond every stored key.
		return cur, visited + hops
	}
	target, v := t.descend(key)
	return target, visited + v
}

func (t *Tree) findLeaf(key int64) (*leafNode, int) {
	lf, visited := t.descend(key)
	t.accesses.Add(int64(visited))
	return lf, visited
}

// descend walks root to leaf for key, returning the leaf and the number of
// nodes on the path. Unlike findLeaf it does not touch the access counter,
// so batch lookups can account all their visits in one atomic add.
func (t *Tree) descend(key int64) (*leafNode, int) {
	visited := 0
	n := t.root
	for !n.isLeaf() {
		visited++
		in := n.(*innerNode)
		idx := sort.Search(len(in.keys), func(i int) bool { return key < in.keys[i] })
		n = in.children[idx]
	}
	visited++
	return n.(*leafNode), visited
}

// Range calls fn for every key in [lo, hi] in ascending order with its
// values. Iteration stops early if fn returns false.
func (t *Tree) Range(lo, hi int64, fn func(key int64, values []int64) bool) {
	lf, _ := t.findLeaf(lo)
	for lf != nil {
		for i, k := range lf.keys {
			if k < lo {
				continue
			}
			if k > hi {
				return
			}
			if !fn(k, lf.vals[i]) {
				return
			}
		}
		lf = lf.next
		if lf != nil {
			t.accesses.Add(1)
		}
	}
}

// Keys returns all keys in ascending order. Intended for tests and tools.
func (t *Tree) Keys() []int64 {
	out := make([]int64, 0, t.size)
	t.Range(minInt64, maxInt64, func(k int64, _ []int64) bool {
		out = append(out, k)
		return true
	})
	return out
}

const (
	minInt64 = -1 << 63
	maxInt64 = 1<<63 - 1
)

// Check verifies structural invariants (sorted keys, node occupancy bounds,
// separator correctness, leaf chaining) and returns an error describing the
// first violation. Used by property tests.
func (t *Tree) Check() error {
	var prevLeaf *leafNode
	var lastKey *int64
	var walk func(n node, lo, hi *int64, depth int, leafDepth *int) error
	walk = func(n node, lo, hi *int64, depth int, leafDepth *int) error {
		if n.isLeaf() {
			lf := n.(*leafNode)
			if *leafDepth == -1 {
				*leafDepth = depth
			} else if depth != *leafDepth {
				return fmt.Errorf("btree: leaves at unequal depths %d vs %d", depth, *leafDepth)
			}
			if prevLeaf != nil && prevLeaf.next != lf {
				return fmt.Errorf("btree: leaf chain broken")
			}
			prevLeaf = lf
			for i, k := range lf.keys {
				if lastKey != nil && k <= *lastKey {
					return fmt.Errorf("btree: key order violated at %d", k)
				}
				kk := k
				lastKey = &kk
				if lo != nil && k < *lo {
					return fmt.Errorf("btree: key %d below separator %d", k, *lo)
				}
				if hi != nil && k >= *hi {
					return fmt.Errorf("btree: key %d not below separator %d", k, *hi)
				}
				if len(lf.vals[i]) == 0 {
					return fmt.Errorf("btree: key %d has empty value list", k)
				}
			}
			return nil
		}
		in := n.(*innerNode)
		if len(in.children) != len(in.keys)+1 {
			return fmt.Errorf("btree: inner node with %d keys and %d children",
				len(in.keys), len(in.children))
		}
		for i := range in.children {
			var childLo, childHi *int64
			if i == 0 {
				childLo = lo
			} else {
				childLo = &in.keys[i-1]
			}
			if i == len(in.keys) {
				childHi = hi
			} else {
				childHi = &in.keys[i]
			}
			if err := walk(in.children[i], childLo, childHi, depth+1, leafDepth); err != nil {
				return err
			}
		}
		return nil
	}
	leafDepth := -1
	return walk(t.root, nil, nil, 0, &leafDepth)
}
