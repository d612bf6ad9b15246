package server

import (
	"container/list"
	"sync"

	"repro/internal/obs"
	"repro/internal/parser"
)

// ResultCache is a bounded LRU over rendered query responses. Entries are
// keyed by (table, fingerprint, normalized query text). The fingerprint
// (cohana.Snapshot.Fingerprint) is the pinned snapshot's table generation,
// which names exactly one published table version, so any append or
// compaction changes the key and a cached body can never be served for a
// state it was not computed on.
// Entries whose fingerprints no longer occur age out through the LRU;
// reloads drop a table's entries eagerly via InvalidateTable.
//
// Values are the marshaled JSON response bodies rather than live *Result
// trees: a cached body is immutable by construction and is written straight
// to the socket on a hit.
type ResultCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[cacheKey]*list.Element
	// offered holds the keys PutOnRepeat was handed once and did not store;
	// it is cleared when it reaches capacity.
	offered   map[cacheKey]struct{}
	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheKey struct {
	table string
	fp    string
	query string
}

type cacheItem struct {
	key  cacheKey
	body []byte
}

// NormalizeQuery collapses whitespace outside string literals so formatting
// differences (newlines, indentation) share one cache entry. It is the
// shared normalizer (parser.Normalize) that the compiled-plan cache keys on
// too, so the two caches agree on which query texts are "the same query".
func NormalizeQuery(src string) string { return parser.Normalize(src) }

// NewResultCache holds at most capacity entries; capacity <= 0 disables
// caching (every Get misses, Put is a no-op).
func NewResultCache(capacity int) *ResultCache {
	return &ResultCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[cacheKey]*list.Element),
		offered:  make(map[cacheKey]struct{}),
	}
}

// Get returns the cached response body for the key, marking it most
// recently used.
func (c *ResultCache) Get(table, fp, normQuery string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[cacheKey{table, fp, normQuery}]
	if !ok {
		c.misses++
		obs.ResultCacheMissesTotal.Inc()
		return nil, false
	}
	c.hits++
	obs.ResultCacheHitsTotal.Inc()
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).body, true
}

// Put stores a response body, evicting the least recently used entry when
// over capacity.
func (c *ResultCache) Put(table, fp, normQuery string, body []byte) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := cacheKey{table, fp, normQuery}
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheItem).body = body
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheItem{key: key, body: body})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheItem).key)
		c.evictions++
	}
}

// PutOnRepeat stores a response body only when its key is offered for the
// second time: the first offer is remembered, not stored. The server uses
// it for results over un-compacted rows, whose generation ends at the next
// append or compaction: a table under steady ingest would otherwise store
// a result per query per append, flushing every other table's entries from
// the LRU for bodies that are rarely read again. A repeat within one
// generation shows the state is being read, and is stored as Put stores it.
func (c *ResultCache) PutOnRepeat(table, fp, normQuery string, body []byte) {
	if c.capacity <= 0 {
		return
	}
	key := cacheKey{table, fp, normQuery}
	c.mu.Lock()
	if _, ok := c.offered[key]; !ok {
		if len(c.offered) >= c.capacity {
			clear(c.offered)
		}
		c.offered[key] = struct{}{}
		c.mu.Unlock()
		return
	}
	delete(c.offered, key)
	c.mu.Unlock()
	c.Put(table, fp, normQuery, body)
}

// InvalidateTable drops every entry of the table, across all fingerprints,
// and reports how many were removed. Called on table reload.
func (c *ResultCache) InvalidateTable(table string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		item := el.Value.(*cacheItem)
		if item.key.table == table {
			c.ll.Remove(el)
			delete(c.items, item.key)
			n++
		}
	}
	return n
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Capacity  int    `json:"capacity"`
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Stats snapshots the counters.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Capacity:  c.capacity,
		Entries:   c.ll.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
