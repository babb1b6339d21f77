package popcache_test

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/popcache"
	"repro/internal/social"
	"repro/internal/telemetry"
)

func TestGetPutRoundTrip(t *testing.T) {
	c := popcache.New(64)
	if _, _, ok := c.Get(1, 0.1, 3); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(1, 0.1, 3, 2.5, []int{1, 3})
	pop, levels, ok := c.Get(1, 0.1, 3)
	if !ok || pop != 2.5 || len(levels) != 2 || levels[0] != 1 || levels[1] != 3 {
		t.Fatalf("Get = (%v, %v, %v), want (2.5, [1 3], true)", pop, levels, ok)
	}
	// Different epsilon or depth is a distinct entry.
	if _, _, ok := c.Get(1, 0.2, 3); ok {
		t.Error("epsilon is not part of the key")
	}
	if _, _, ok := c.Get(1, 0.1, 4); ok {
		t.Error("depth is not part of the key")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 3 {
		t.Errorf("stats = %+v, want 1 hit / 3 misses", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// Capacity divides across shards; insert many entries for roots that
	// hash to arbitrary shards and verify the total never exceeds capacity
	// and that the least recently used entries go first within a shard.
	c := popcache.New(popcache.ShardCount()) // one entry per shard
	for sid := social.PostID(1); sid <= 200; sid++ {
		c.Put(sid, 0.1, 3, float64(sid), []int{1})
	}
	if got, cap := c.Len(), c.Capacity(); got > cap {
		t.Fatalf("Len = %d exceeds capacity %d", got, cap)
	}
	if c.Stats().Evictions == 0 {
		t.Error("no evictions recorded despite overflow")
	}
}

func TestLRUOrderWithinShard(t *testing.T) {
	// Roots 16 apart land in different shards under Fibonacci hashing only
	// by accident, so pick roots empirically mapped to one shard: probing
	// via eviction behaviour. Simpler: capacity large enough for 2 entries
	// per shard, three same-shard roots found by collision search.
	c := popcache.New(2 * popcache.ShardCount())
	same := sameShardRoots(3)
	c.Put(same[0], 0.1, 3, 1, []int{1})
	c.Put(same[1], 0.1, 3, 2, []int{1})
	// Touch the first so the second is now least recently used.
	if _, _, ok := c.Get(same[0], 0.1, 3); !ok {
		t.Fatal("expected hit")
	}
	c.Put(same[2], 0.1, 3, 3, []int{1}) // evicts same[1]
	if _, _, ok := c.Get(same[1], 0.1, 3); ok {
		t.Error("least recently used entry survived eviction")
	}
	if _, _, ok := c.Get(same[0], 0.1, 3); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, _, ok := c.Get(same[2], 0.1, 3); !ok {
		t.Error("newest entry was evicted")
	}
}

// sameShardRoots returns n distinct roots that map to one shard, found by
// checking eviction structure via the package's shard hash (re-derived).
func sameShardRoots(n int) []social.PostID {
	want := popcache.ShardIndex(1)
	out := []social.PostID{1}
	for sid := social.PostID(2); len(out) < n; sid++ {
		if popcache.ShardIndex(sid) == want {
			out = append(out, sid)
		}
	}
	return out
}

func TestInvalidateRoot(t *testing.T) {
	c := popcache.New(64)
	c.Put(7, 0.1, 3, 1.5, []int{1, 2})
	c.Put(7, 0.1, 5, 2.0, []int{1, 2, 4}) // second depth variant, same root
	c.Put(8, 0.1, 3, 9.9, []int{1})
	if got := c.InvalidateRoot(7); got != 2 {
		t.Fatalf("InvalidateRoot(7) = %d, want 2", got)
	}
	if _, _, ok := c.Get(7, 0.1, 3); ok {
		t.Error("invalidated entry still resident")
	}
	if _, _, ok := c.Get(8, 0.1, 3); !ok {
		t.Error("unrelated root was invalidated")
	}
	if c.Stats().Invalidations != 2 {
		t.Errorf("invalidations = %d, want 2", c.Stats().Invalidations)
	}
	// Re-put after invalidation works.
	c.Put(7, 0.1, 3, 3.0, []int{1, 4})
	if pop, _, ok := c.Get(7, 0.1, 3); !ok || pop != 3.0 {
		t.Errorf("re-put after invalidation: got (%v, %v)", pop, ok)
	}
}

// TestConcurrentHitMiss hammers the cache from many goroutines mixing gets,
// puts and invalidations. Run with -race; correctness assertion is only
// that observed hits return internally consistent values.
func TestConcurrentHitMiss(t *testing.T) {
	c := popcache.New(256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				root := social.PostID(rng.Intn(512))
				switch rng.Intn(4) {
				case 0:
					c.Put(root, 0.1, 3, float64(root), []int{1, int(root)})
				case 1:
					c.InvalidateRoot(root)
				default:
					if pop, levels, ok := c.Get(root, 0.1, 3); ok {
						if pop != float64(root) || len(levels) != 2 || levels[1] != int(root) {
							t.Errorf("hit for root %d returned foreign entry (%v, %v)", root, pop, levels)
							return
						}
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Error("no lookups recorded")
	}
}

func TestRegisterMetrics(t *testing.T) {
	c := popcache.New(32)
	c.Put(1, 0.1, 3, 1, []int{1})
	c.Get(1, 0.1, 3)
	c.Get(2, 0.1, 3)
	reg := telemetry.NewRegistry()
	c.RegisterMetrics(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"tklus_popcache_hits_total 1",
		"tklus_popcache_misses_total 1",
		"tklus_popcache_entries 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}
