// Package popcache caches tweet-thread popularity across queries. A
// thread's popularity φ(p) (Definition 4) depends only on the reply/forward
// graph rooted at p — never on the query — so once Algorithm 1 has built a
// thread, its score can be reused by every later query until an ingested
// post extends the thread. The paper names thread construction as the
// dominant query cost (Section V-B), which makes this the highest-leverage
// cache in the serving stack.
//
// The cache is a sharded LRU: entries are spread over independently locked
// shards by root tweet ID, so concurrent queries rarely contend, and every
// entry of one root lands in one shard, which keeps invalidation a single
// shard lock. Invalidation walks the rsid chain of a newly ingested post
// upward (any ancestor within the thread-depth limit has the new post
// inside its thread) and evicts each visited root.
package popcache

import (
	"sync"
	"sync/atomic"

	"repro/internal/social"
)

// numShards spreads roots over independently locked shards. Power of two,
// sized so a many-core query pool rarely queues on one lock.
const numShards = 16

// DefaultCapacity is the entry budget used when a caller passes a
// non-positive capacity. At ~100 bytes per entry it keeps the cache in the
// low megabytes.
const DefaultCapacity = 4096

// Key identifies one cached thread construction: the root tweet plus the
// two parameters the result of Algorithm 1 depends on.
type Key struct {
	Root    social.PostID
	Epsilon float64
	Depth   int
}

// Stats is a snapshot of the cache's cumulative counters.
type Stats struct {
	Hits          int64
	Misses        int64
	Evictions     int64 // entries displaced by capacity pressure
	Invalidations int64 // entries evicted by ingest invalidation
}

// node is one resident entry, linked into its shard's LRU list.
type node struct {
	key        Key
	pop        float64
	levels     []int
	prev, next *node
}

// shard is one independently locked LRU segment.
type shard struct {
	mu       sync.Mutex
	capacity int
	entries  map[Key]*node
	byRoot   map[social.PostID][]*node // every resident key of one root
	head     *node                     // most recently used
	tail     *node                     // least recently used
}

// Cache is a concurrency-safe, sharded LRU of thread popularity results.
// The zero value is unusable; call New.
type Cache struct {
	capacity int
	shards   [numShards]shard

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
}

// New returns a cache holding up to capacity entries (non-positive selects
// DefaultCapacity). Capacity is divided evenly across the shards, so the
// effective total is rounded up to a multiple of the shard count.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	per := (capacity + numShards - 1) / numShards
	c := &Cache{capacity: per * numShards}
	for i := range c.shards {
		c.shards[i].capacity = per
		c.shards[i].entries = make(map[Key]*node)
		c.shards[i].byRoot = make(map[social.PostID][]*node)
	}
	return c
}

// shardFor maps a root to its shard (Fibonacci hashing on the ID, which is
// a timestamp and therefore monotone — multiplying scrambles the low bits).
func (c *Cache) shardFor(root social.PostID) *shard {
	h := uint64(root) * 0x9E3779B97F4A7C15
	return &c.shards[h>>(64-4)] // top 4 bits index 16 shards
}

// Get returns the cached popularity and level sizes for a root built with
// the given epsilon and depth. The returned levels slice is shared and must
// not be modified.
func (c *Cache) Get(root social.PostID, epsilon float64, depth int) (float64, []int, bool) {
	s := c.shardFor(root)
	s.mu.Lock()
	n, ok := s.entries[Key{Root: root, Epsilon: epsilon, Depth: depth}]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return 0, nil, false
	}
	s.moveToFront(n)
	pop, levels := n.pop, n.levels
	s.mu.Unlock()
	c.hits.Add(1)
	return pop, levels, true
}

// Put stores one thread construction result. The cache keeps a reference to
// levels; callers must not modify it afterwards.
func (c *Cache) Put(root social.PostID, epsilon float64, depth int, pop float64, levels []int) {
	key := Key{Root: root, Epsilon: epsilon, Depth: depth}
	s := c.shardFor(root)
	s.mu.Lock()
	if n, ok := s.entries[key]; ok {
		n.pop, n.levels = pop, levels
		s.moveToFront(n)
		s.mu.Unlock()
		return
	}
	evicted := 0
	for len(s.entries) >= s.capacity {
		s.removeNode(s.tail)
		evicted++
	}
	n := &node{key: key, pop: pop, levels: levels}
	s.entries[key] = n
	s.byRoot[root] = append(s.byRoot[root], n)
	s.pushFront(n)
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(int64(evicted))
	}
}

// InvalidateRoot evicts every entry cached for the given root (all epsilon
// and depth variants) and returns how many were removed.
func (c *Cache) InvalidateRoot(root social.PostID) int {
	s := c.shardFor(root)
	s.mu.Lock()
	nodes := s.byRoot[root]
	for _, n := range nodes {
		s.removeNode(n)
	}
	removed := len(nodes)
	s.mu.Unlock()
	if removed > 0 {
		c.invalidations.Add(int64(removed))
	}
	return removed
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.entries)
		s.mu.Unlock()
	}
	return total
}

// Capacity returns the effective entry capacity.
func (c *Cache) Capacity() int { return c.capacity }

// Stats returns a snapshot of the cumulative counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
	}
}

// pushFront links n as the most recently used node. Caller holds s.mu.
func (s *shard) pushFront(n *node) {
	n.prev = nil
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
}

// unlink detaches n from the LRU list. Caller holds s.mu.
func (s *shard) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// moveToFront marks n as most recently used. Caller holds s.mu.
func (s *shard) moveToFront(n *node) {
	if s.head == n {
		return
	}
	s.unlink(n)
	s.pushFront(n)
}

// removeNode evicts n from the map, the LRU list and the per-root index.
// Caller holds s.mu.
func (s *shard) removeNode(n *node) {
	if n == nil {
		return
	}
	s.unlink(n)
	delete(s.entries, n.key)
	siblings := s.byRoot[n.key.Root]
	for i, sib := range siblings {
		if sib == n {
			siblings[i] = siblings[len(siblings)-1]
			siblings = siblings[:len(siblings)-1]
			break
		}
	}
	if len(siblings) == 0 {
		delete(s.byRoot, n.key.Root)
	} else {
		s.byRoot[n.key.Root] = siblings
	}
}
