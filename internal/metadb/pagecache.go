package metadb

import (
	"container/list"

	"repro/internal/social"
)

// pageCache is a fixed-capacity LRU cache of row pages. The paper's
// evaluation disables caches "to get fair evaluation results"; the cache
// exists so that ablation benchmarks can quantify what caching would buy.
type pageCache struct {
	capacity int
	order    *list.List            // front = most recently used
	entries  map[int]*list.Element // page index -> element
}

type cacheEntry struct {
	page int
	rows []social.Row
}

func newPageCache(capacity int) *pageCache {
	return &pageCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[int]*list.Element, capacity),
	}
}

func (c *pageCache) get(page int) ([]social.Row, bool) {
	el, ok := c.entries[page]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).rows, true
}

func (c *pageCache) put(page int, rows []social.Row) {
	if el, ok := c.entries[page]; ok {
		c.order.MoveToFront(el)
		el.Value.(*cacheEntry).rows = rows
		return
	}
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(*cacheEntry).page)
		}
	}
	c.entries[page] = c.order.PushFront(&cacheEntry{page: page, rows: rows})
}

func (c *pageCache) len() int { return c.order.Len() }
