package serve

import (
	"container/list"
	"sync"

	"github.com/netdag/netdag/internal/journal"
)

// lruCache is the content-addressed solution cache: spec fingerprint →
// rendered ScheduleOut JSON. Values are immutable byte slices, so a hit
// is served without re-marshaling (the cache-hit hot path is one map
// lookup, one list splice and one memcpy into the response writer).
//
// Entries are only ever complete, proven solves — deadline-interrupted
// incumbents are never cached (see handleSolve) — so a hit is always as
// good as re-solving.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key  string
	body []byte
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached body for key and refreshes its recency.
func (c *lruCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put installs body under key, evicting the least recently used entry
// when over capacity. Re-putting an existing key refreshes its body and
// recency.
func (c *lruCache) put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// snapshot renders the live cache as journal records, oldest first, so
// replaying them in order reproduces both the bodies and the recency
// order (each replayed put lands at the front, like the live path).
func (c *lruCache) snapshot() []journal.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	recs := make([]journal.Record, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		recs = append(recs, journal.Record{Key: e.key, Body: e.body})
	}
	return recs
}

// len reports the current entry count.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
