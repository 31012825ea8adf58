package service

import (
	"sync"

	"buffy/internal/lru"
)

// cache is a bounded LRU mapping content-address keys to completed
// Results. Entries are immutable once stored: hits return the shared
// *Result, which callers must treat as read-only (the engine copies the
// top-level struct before stamping per-response fields like CacheHit).
type cache struct {
	mu      sync.Mutex
	max     int
	entries *lru.LRU[string, *Result]
}

func newCache(max int) *cache {
	return &cache{max: max, entries: lru.New[string, *Result]()}
}

func (c *cache) get(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Get(key)
}

func (c *cache) put(key string, res *Result) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.Add(key, res, 1)
	for c.entries.Len() > c.max {
		c.entries.RemoveOldest()
	}
}

func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Len()
}
