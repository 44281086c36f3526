package qos

import (
	"container/list"
	"sync"
	"sync/atomic"

	"nodb/internal/govern"
	"nodb/internal/storage"
)

// CachedResult is one fully materialized query result held by the cache
// and handed to singleflight followers: one typed vector per output
// column, in select-list order (none for an empty result). The vectors
// are owned by the cache and must not be mutated; a replay reads them in
// place.
type CachedResult struct {
	Columns []string
	Cols    []*storage.DenseColumn
	// Plan is the executing query's plan rendering, replayed so a cached
	// answer still explains itself.
	Plan string

	bytes int64
}

// SizeBytes estimates the result's heap footprint: the vectors plus
// string payloads, the column names and the plan text.
func (r *CachedResult) SizeBytes() int64 {
	if r.bytes > 0 {
		return r.bytes
	}
	size := int64(64) + int64(len(r.Plan))
	for _, c := range r.Columns {
		size += int64(len(c)) + 16
	}
	for _, c := range r.Cols {
		size += c.MemSize()
	}
	r.bytes = size
	return size
}

// CacheStats is the result cache's accounting snapshot.
type CacheStats struct {
	// Enabled is false when no cache is configured (everything else zero).
	Enabled bool `json:"enabled"`
	// MaxBytes is the configured byte bound.
	MaxBytes int64 `json:"max_bytes"`
	// Bytes is the current cached footprint.
	Bytes int64 `json:"bytes"`
	// Entries is the number of cached results.
	Entries int `json:"entries"`
	// Hits and Misses count lookups since startup.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Inserts counts results admitted; Evicted counts entries removed by
	// the LRU bound or the memory governor.
	Inserts int64 `json:"inserts"`
	Evicted int64 `json:"evicted"`
}

// cacheEntry is one cached result plus its bookkeeping.
type cacheEntry struct {
	key    string
	res    *CachedResult
	handle *govern.Handle
	elem   *list.Element
}

// Cache is the byte-bounded LRU result cache. Every entry registers a
// govern handle of KindResult with zero rebuild cost — a cached result is
// by definition free to recompute relative to the adaptive structures that
// made it fast — so under budget pressure the governor reclaims results
// before columns or positional maps. Invalidation is implicit: keys embed
// raw-file signatures, so an edited file's entries are never hit again and
// age out through the LRU. Safe for concurrent use.
type Cache struct {
	max      int64
	maxEntry int64
	gov      *govern.Governor

	mu    sync.Mutex
	bytes int64
	order *list.List // front = most recently used
	byKey map[string]*cacheEntry

	hits, misses, inserts, evicted atomic.Int64
}

// NewCache creates a result cache bounded to maxBytes. gov may be nil
// (standalone use in tests); with a governor, cached bytes count against
// the engine-wide budget. Single entries larger than a quarter of the
// bound are not admitted — one huge result must not wipe the cache.
func NewCache(maxBytes int64, gov *govern.Governor) *Cache {
	return &Cache{
		max:      maxBytes,
		maxEntry: maxBytes / 4,
		gov:      gov,
		order:    list.New(),
		byKey:    make(map[string]*cacheEntry),
	}
}

// MaxEntryBytes is the largest result the cache will admit; a leading
// cursor uses it to stop accumulating a doomed copy early.
func (c *Cache) MaxEntryBytes() int64 { return c.maxEntry }

// Get returns the cached result for key, promoting it to most recently
// used.
func (c *Cache) Get(key string) (*CachedResult, bool) {
	c.mu.Lock()
	e, ok := c.byKey[key]
	if ok {
		c.order.MoveToFront(e.elem)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	e.handle.Touch()
	return e.res, true
}

// Put admits a result under key, evicting least-recently-used entries
// until the bound holds again. Oversized results and duplicate keys (a
// singleflight race) are dropped; it reports whether the result was
// admitted.
func (c *Cache) Put(key string, res *CachedResult) bool {
	size := res.SizeBytes()
	if size > c.maxEntry || c.max <= 0 {
		return false
	}
	e := &cacheEntry{key: key, res: res}
	if c.gov != nil {
		e.handle = c.gov.Register(govern.KindResult, "result:"+shortKey(key), func() bool {
			c.removeEntry(e)
			return true
		})
		e.handle.SetBytes(size)
		e.handle.SetCost(0) // free to recompute: first in line under pressure
	}
	c.mu.Lock()
	if _, dup := c.byKey[key]; dup {
		c.mu.Unlock()
		if e.handle != nil {
			e.handle.Release()
		}
		return false
	}
	e.elem = c.order.PushFront(e)
	c.byKey[key] = e
	c.bytes += size
	var victims []*cacheEntry
	for c.bytes > c.max {
		back := c.order.Back()
		if back == nil {
			break
		}
		v := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.byKey, v.key)
		c.bytes -= v.res.SizeBytes()
		victims = append(victims, v)
	}
	c.mu.Unlock()
	c.inserts.Add(1)
	for _, v := range victims {
		c.evicted.Add(1)
		if v.handle != nil {
			v.handle.Release()
		}
	}
	return true
}

// removeEntry is the governor's eviction callback: drop the entry if it is
// still resident. Runs without governor locks held.
func (c *Cache) removeEntry(e *cacheEntry) {
	c.mu.Lock()
	if cur, ok := c.byKey[e.key]; ok && cur == e {
		c.order.Remove(e.elem)
		delete(c.byKey, e.key)
		c.bytes -= e.res.SizeBytes()
		c.evicted.Add(1)
	}
	c.mu.Unlock()
	if e.handle != nil {
		e.handle.Release()
	}
}

// Stats returns the cache's accounting snapshot.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	bytes, entries := c.bytes, len(c.byKey)
	c.mu.Unlock()
	return CacheStats{
		Enabled:  true,
		MaxBytes: c.max,
		Bytes:    bytes,
		Entries:  entries,
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Inserts:  c.inserts.Load(),
		Evicted:  c.evicted.Load(),
	}
}

// shortKey truncates a cache key (normalized SQL + signatures) to a
// readable governor label.
func shortKey(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == 0 {
			key = key[:i]
			break
		}
	}
	if len(key) > 48 {
		return key[:48] + "…"
	}
	return key
}
