package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
)

// Key is the content address of one analysis result: the SHA-256 over
// the request kind, the kernel source and every configuration field that
// can change the outcome. Identical requests hash to identical keys, so
// the cache and the singleflight group both dedup on it.
type Key string

// NewKey hashes the parts that determine an analysis result. Each part
// is JSON-encoded into the hash (the encoder's trailing newline acts as
// an unambiguous separator for the string parts).
func NewKey(kind, source string, parts ...any) (Key, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(kind); err != nil {
		return "", err
	}
	if err := enc.Encode(source); err != nil {
		return "", err
	}
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			return "", fmt.Errorf("service: hashing cache key: %w", err)
		}
	}
	return Key(hex.EncodeToString(h.Sum(nil))), nil
}

// Cache is a bounded LRU over completed analysis results, keyed by
// content address. Values must be treated as immutable once stored —
// readers on other goroutines share them.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	items     map[Key]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

type cacheEntry struct {
	key Key
	val any
}

// NewCache returns an LRU cache holding at most capacity entries
// (clamped to at least 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[Key]*list.Element),
	}
}

// peek returns the cached value for k without touching its recency or
// the hit/miss counters.
func (c *Cache) peek(k Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		return el.Value.(*cacheEntry).val, true
	}
	return nil, false
}

// Get returns the cached value for k, marking it most recently used.
func (c *Cache) Get(k Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put stores v under k, evicting the least recently used entry when the
// cache is at capacity.
func (c *Cache) Put(k Key, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*cacheEntry).val = v
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		if oldest != nil {
			c.ll.Remove(oldest)
			delete(c.items, oldest.Value.(*cacheEntry).key)
			c.evictions++
		}
	}
	c.items[k] = c.ll.PushFront(&cacheEntry{key: k, val: v})
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats is a point-in-time snapshot of the cache, exposed on
// /metrics.
type CacheStats struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
	HitRate   float64 `json:"hit_rate"`
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Capacity:  c.capacity,
	}
	if total := c.hits + c.misses; total > 0 {
		s.HitRate = float64(c.hits) / float64(total)
	}
	return s
}
