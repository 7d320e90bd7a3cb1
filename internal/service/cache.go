package service

import (
	"bufio"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"macs/internal/obs"
)

// Key is the content address of one analysis result: the SHA-256 over
// the request kind, the kernel source and every configuration field that
// can change the outcome. Identical requests hash to identical keys, so
// the cache and the singleflight group both dedup on it.
type Key string

// NewKey hashes the parts that determine an analysis result. Each part
// enters the hash in binary behind a one-byte type tag: strings
// length-prefixed, integers and reals as their 64-bit patterns, a
// Priming as its sorted, length-prefixed names and value bits, and any
// other value as its length-prefixed JSON encoding. Parts are hashed from
// decoded values, so request bodies that differ only in spacing or key
// order reach one key.
func NewKey(kind, source string, parts ...any) (Key, error) {
	h := sha256.New()
	k := keyHasher{w: bufio.NewWriterSize(h, 512)}
	k.str(kind)
	k.str(source)
	for _, p := range parts {
		if err := k.part(p); err != nil {
			return "", fmt.Errorf("service: hashing cache key: %w", err)
		}
	}
	// The writer's errors are sticky, so Flush reports any earlier one.
	if err := k.w.Flush(); err != nil {
		return "", fmt.Errorf("service: hashing cache key: %w", err)
	}
	return Key(hex.EncodeToString(h.Sum(nil))), nil
}

// keyHasher writes NewKey's binary encoding through a buffer, so an array
// of reals costs one hash write per 64 values rather than one per value.
type keyHasher struct {
	w *bufio.Writer
	n [8]byte
}

func (k *keyHasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(k.n[:], v)
	k.w.Write(k.n[:])
}

func (k *keyHasher) str(s string) {
	k.u64(uint64(len(s)))
	k.w.WriteString(s)
}

func (k *keyHasher) part(p any) error {
	switch v := p.(type) {
	case string:
		k.w.WriteByte('s')
		k.str(v)
	case int64:
		k.w.WriteByte('i')
		k.u64(uint64(v))
	case int:
		k.w.WriteByte('i')
		k.u64(uint64(v))
	case float64:
		k.w.WriteByte('f')
		k.u64(math.Float64bits(v))
	case Priming:
		k.w.WriteByte('p')
		k.priming(v)
	default:
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		k.w.WriteByte('j')
		k.u64(uint64(len(b)))
		k.w.Write(b)
	}
	return nil
}

// priming hashes each section as a count, then its entries in name
// order: the length-prefixed name and the value bits (an array's length,
// then its elements' bits).
func (k *keyHasher) priming(p Priming) {
	k.u64(uint64(len(p.Ints)))
	for _, name := range obs.SortedLabelKeys(p.Ints) {
		k.str(name)
		k.u64(uint64(p.Ints[name]))
	}
	k.u64(uint64(len(p.Reals)))
	for _, name := range obs.SortedLabelKeys(p.Reals) {
		k.str(name)
		k.u64(math.Float64bits(p.Reals[name]))
	}
	k.u64(uint64(len(p.Arrays)))
	for _, name := range obs.SortedLabelKeys(p.Arrays) {
		vals := p.Arrays[name]
		k.str(name)
		k.u64(uint64(len(vals)))
		for _, v := range vals {
			k.u64(math.Float64bits(v))
		}
	}
}

// rawKey is the SHA-256 of one request's endpoint path, raw query and
// body: the address of its exact bytes, before any decoding.
type rawKey [sha256.Size]byte

func newRawKey(path, query string, body []byte) rawKey {
	h := sha256.New()
	var n [8]byte
	for _, s := range []string{path, query} {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	h.Write(body)
	var rk rawKey
	h.Sum(rk[:0])
	return rk
}

// maxAliasesPerEntry bounds the raw-body aliases one cache entry keeps,
// so the bytes stored with them stay a small multiple of the entries.
// Four covers a few spellings of one request (body formatting, a ?tier=
// an old client still sends) without letting a client that varies its
// spacing grow it.
const maxAliasesPerEntry = 4

// Cache is a bounded LRU over completed analysis results, keyed by
// content address. Values must be treated as immutable once stored —
// readers on other goroutines share them.
//
// Each entry can also carry raw aliases: digests of exact request bytes
// that an earlier hit on the entry answered, each with the response bytes
// that hit wrote. A request whose digest is an alias is answered from
// those bytes without decoding its body. Aliases belong to their entry
// and are evicted with it.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	items     map[Key]*list.Element
	aliases   map[rawKey]*alias
	hits      int64
	misses    int64
	evictions int64
}

type cacheEntry struct {
	key Key
	val any
	// aliases lists the entry's raw aliases, oldest first.
	aliases []rawKey
}

// alias is one raw request digest's answer.
type alias struct {
	el *list.Element // the owning entry
	// endpoint is the metrics label of the hit that registered the alias.
	endpoint string
	// body is the response that hit wrote, byte for byte.
	body []byte
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
		aliases:  make(map[rawKey]*alias),
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
// cache is at capacity. Replacing an entry's value drops its aliases:
// their bytes were written from the old value.
func (c *Cache) Put(k Key, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		e := el.Value.(*cacheEntry)
		c.dropAliases(e)
		e.val = v
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		if oldest != nil {
			e := oldest.Value.(*cacheEntry)
			c.ll.Remove(oldest)
			delete(c.items, e.key)
			c.dropAliases(e)
			c.evictions++
		}
	}
	c.items[k] = c.ll.PushFront(&cacheEntry{key: k, val: v})
}

// dropAliases unregisters every alias of e. Callers hold c.mu.
func (c *Cache) dropAliases(e *cacheEntry) {
	for _, rk := range e.aliases {
		delete(c.aliases, rk)
	}
	e.aliases = nil
}

// getRaw returns the response bytes and endpoint label stored under a
// raw request digest. A found alias is a hit on its entry: it counts as
// one and marks the entry most recently used. An unknown digest counts
// nothing, because the request then takes the keyed path, whose Get
// counts it.
func (c *Cache) getRaw(rk rawKey) (endpoint string, body []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.aliases[rk]
	if !ok {
		return "", nil, false
	}
	c.hits++
	c.ll.MoveToFront(a.el)
	return a.endpoint, a.body, true
}

// addAlias registers rk as a raw alias of the entry under k, answering
// with body under the endpoint label. It does nothing when k is no longer
// cached or rk is already registered. An entry at maxAliasesPerEntry
// drops its oldest alias first.
func (c *Cache) addAlias(k Key, rk rawKey, endpoint string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return
	}
	if _, dup := c.aliases[rk]; dup {
		return
	}
	e := el.Value.(*cacheEntry)
	if len(e.aliases) >= maxAliasesPerEntry {
		delete(c.aliases, e.aliases[0])
		e.aliases = e.aliases[1:]
	}
	e.aliases = append(e.aliases, rk)
	c.aliases[rk] = &alias{el: el, endpoint: endpoint, body: body}
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
