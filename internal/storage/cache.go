package storage

import (
	"runtime"
	"sync"

	"repro/internal/obs"
)

// ChunkCache is the process-wide pool of decoded chunk segments backing the
// cold chunks of tables opened from a manifest. Entries are keyed by the
// segment's content hash, so a chunk carried across a compaction commit (hash
// unchanged) keeps its decoded payload, and two table generations that share
// a chunk share one entry. A pinned entry (an in-flight scan holds it) is
// never evicted, so eviction can never race a scan.
//
// Under a byte budget the cache is LRU with frequency-gated admission. Plain
// LRU flushes itself under the access pattern cohort queries produce — every
// query walks every unpruned chunk, so a table larger than the budget evicts
// each chunk just before it is wanted again and the hit ratio is zero. Here
// a chunk that misses (a newcomer) may only replace the LRU tail if it has
// been touched more often, and is itself dropped on a tie. A cyclic scan
// therefore keeps a stable budget-sized subset resident (hit ratio ≈ budget
// share), while chunks that really are touched more often than the residents
// still displace them.
//
// The contest is decided at the miss (admitsLocked). A newcomer that would
// lose is a transient load: read into an arena pooled on the cache (see
// chunkArena), never published, dropped at release — so a scan of a table
// larger than the budget allocates no buffer per miss. A newcomer that would
// win is loaded into the cache and evicts nothing while it is pinned; when
// its last pin drops and the cache is over budget, the contest is held again
// against the tails it must displace (trimLocked).
//
// "Touched more often" is measured per chunk on its chunkState — the set of
// chunks is finite and known from the manifest, so there is no sketch and no
// ghost list: a 32-bit history with one bit per aging period, set when the
// chunk is pinned at least once in that period and shifted right (halved)
// when a period ends. Histories compare as integers, over completed periods
// only: recent periods weigh more, a chunk idle for a period loses to one
// that was not, and concurrent scans at different positions of the same cycle
// — which would make raw touch counts differ by one at any instant and let
// every newcomer win — compare equal. A period ends once the cache has seen
// agingTouchesPerChunk touches per distinct chunk touched in it, so its
// length follows the working set: about that many sweeps of whatever is being
// scanned.
//
// One mutex guards everything: the entry map, the LRU links, the pin counts,
// the size accounting, the chunk states, and — crucially — every table's
// chunk slots (Table.chunks[i] for chunks that are not perm). Decoding runs
// outside the lock; a kept load is single-flight per entry, so a thundering
// herd on one cold chunk pays one disk read.
type ChunkCache struct {
	mu       sync.Mutex
	budget   int64 // <= 0 means unbounded
	resident int64
	// unadmitted is the part of resident held by newcomers whose first pins
	// have not dropped yet. They cannot be evicted, so the budget is enforced
	// on resident - unadmitted; with nothing pinned the two are equal.
	unadmitted int64
	entries    map[string]*cacheEntry
	// LRU list of evictable entries (resident, unpinned); head is the most
	// recently released.
	head, tail *cacheEntry

	// period numbers the current aging period; periodTouches and
	// periodChunks count the touches and the distinct chunks touched in it.
	period, periodTouches, periodChunks uint32

	hits, misses, evictions uint64

	// arenas are parked for transient loads (see chunkArena).
	arenas []*chunkArena
}

// agingTouchesPerChunk sets the length of an aging period: it ends after this
// many touches per distinct chunk touched in it. Two is the shortest period
// in which every member of a cycle is touched whatever the scans' relative
// positions, which is what makes their histories equal; longer periods only
// slow down how fast a new hot set displaces an old one.
const agingTouchesPerChunk = 2

// histNow is the history bit of the period in progress.
const histNow = 1 << 31

// cacheEntry is one decoded segment. Between creation and close(ready) the
// entry is in flight: payload is nil and followers wait on ready. An entry
// that failed to load is removed from the map before ready closes, so a
// retry starts a fresh load.
type cacheEntry struct {
	hash    string
	state   *chunkState // touch history of the chunk that loaded the entry
	payload *segChunk
	size    int64 // the segment's bytes plus the birth indexes built over it
	pins    int
	ready   chan struct{}
	err     error

	// admitted is set when the entry's last first-load pin drops and it wins
	// (or needs no) admission; until then its bytes count as unadmitted.
	admitted   bool
	inLRU      bool
	prev, next *cacheEntry

	// slots are the table chunk slots currently bound to this payload;
	// eviction nils them so the next touch reloads.
	slots []slotRef
}

type slotRef struct {
	tbl *Table
	idx int
}

// NewChunkCache creates a cache with the given decoded-byte budget;
// budgetBytes <= 0 means unbounded.
func NewChunkCache(budgetBytes int64) *ChunkCache {
	return &ChunkCache{budget: budgetBytes, entries: make(map[string]*cacheEntry)}
}

// defaultChunkCache serves tables opened without an explicit cache
// (cohana.Open), making the budget genuinely process-wide.
var defaultChunkCache = NewChunkCache(0)

// DefaultChunkCache returns the shared process-wide cache.
func DefaultChunkCache() *ChunkCache { return defaultChunkCache }

// SetBudget replaces the byte budget and evicts down to it immediately.
func (c *ChunkCache) SetBudget(budgetBytes int64) {
	c.mu.Lock()
	c.budget = budgetBytes
	c.trimLocked(nil)
	c.mu.Unlock()
}

// ChunkCacheStats is a point-in-time snapshot of the cache.
type ChunkCacheStats struct {
	BudgetBytes   int64  `json:"budgetBytes"`
	ResidentBytes int64  `json:"residentBytes"`
	Entries       int    `json:"entries"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
}

// Stats snapshots the cache counters.
func (c *ChunkCache) Stats() ChunkCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ChunkCacheStats{
		BudgetBytes:   c.budget,
		ResidentBytes: c.resident,
		Entries:       len(c.entries),
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
	}
}

func (c *ChunkCache) lruPushFront(e *cacheEntry) {
	e.inLRU = true
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *ChunkCache) lruRemove(e *cacheEntry) {
	if !e.inLRU {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next, e.inLRU = nil, nil, false
}

// pinEntryLocked takes a pin, removing the entry from the evictable list.
func (c *ChunkCache) pinEntryLocked(e *cacheEntry) {
	if e.pins == 0 {
		c.lruRemove(e)
	}
	e.pins++
}

// ageLocked brings a chunk's history up to the current period: one right
// shift per period that ended since it was last looked at.
func (c *ChunkCache) ageLocked(s *chunkState) {
	if d := c.period - s.period; d != 0 {
		s.hist >>= d
		s.period = c.period
	}
}

// touchLocked records one PinChunk of the chunk and ends the aging period
// when it is due.
func (c *ChunkCache) touchLocked(s *chunkState) {
	c.ageLocked(s)
	if s.hist&histNow == 0 {
		s.hist |= histNow
		c.periodChunks++
	}
	c.periodTouches++
	if c.periodTouches >= agingTouchesPerChunk*c.periodChunks {
		c.period++
		c.periodTouches, c.periodChunks = 0, 0
	}
}

// hotterLocked reports whether chunk a has been touched more often than
// chunk b over the completed aging periods.
func (c *ChunkCache) hotterLocked(a, b *chunkState) bool {
	c.ageLocked(a)
	c.ageLocked(b)
	return a.hist&^histNow > b.hist&^histNow
}

// unpinLocked drops a pin. The last pin returns the entry to the evictable
// list (unless the entry already failed or was dropped from the map) and
// restores the budget; that is also the moment a newcomer faces admission.
func (c *ChunkCache) unpinLocked(e *cacheEntry) {
	e.pins--
	if e.pins != 0 || e.err != nil || c.entries[e.hash] != e {
		return
	}
	c.lruPushFront(e)
	if e.admitted {
		c.trimLocked(nil)
		return
	}
	e.admitted = true
	c.unadmitted -= e.size
	c.trimLocked(e)
}

// charge adds bytes built over a resident entry's payload — its birth
// indexes — to the entry's size. The builder holds a pin, so the budget is
// enforced when that pin drops, as for the load itself. An entry already
// dropped from the map is no longer accounted and is left alone.
func (c *ChunkCache) charge(e *cacheEntry, bytes int64) {
	c.mu.Lock()
	if c.entries[e.hash] == e {
		e.size += bytes
		c.resident += bytes
		if !e.admitted {
			c.unadmitted += bytes
		}
		obs.ChunkCacheResidentBytes.Set(float64(c.resident))
	}
	c.mu.Unlock()
}

// releaseFunc returns the pin-release closure handed to PinChunk callers: it
// unpins e, or, for a transient load, drops the chunk and parks its arena a.
// Only its first call acts: a second one would drive the pin count negative
// and leave a pinned chunk on the evictable list, or park an arena that is
// already serving another load.
func (c *ChunkCache) releaseFunc(e *cacheEntry, a *chunkArena) func() {
	released := false
	return func() {
		c.mu.Lock()
		if !released {
			released = true
			if e != nil {
				c.unpinLocked(e)
			} else {
				c.evictions++ // loaded and dropped, as a losing newcomer is
				obs.ChunkCacheEvictionsTotal.Inc()
				// Taking the births mutex under c.mu cannot deadlock: a
				// transient arena's index builds charge nothing, so they
				// never wait for c.mu while holding it.
				a.seg.births.reset()
				c.parkLocked(a)
			}
		}
		c.mu.Unlock()
	}
}

// admitsLocked decides at a miss whether the chunk of m will be kept: it
// fits the budget beside the admitted entries, or it has been touched more
// often than the LRU tail it would displace. That is the first round of the
// contest trimLocked holds when a newcomer's last pin drops; a chunk that
// would lose it is loaded transient.
func (c *ChunkCache) admitsLocked(m *chunkMeta) bool {
	return c.budget <= 0 || c.resident-c.unadmitted+m.bytes <= c.budget ||
		(c.tail != nil && c.hotterLocked(m.state, c.tail.state))
}

// takeArenaLocked returns a parked arena for a transient load, or a new one.
func (c *ChunkCache) takeArenaLocked() *chunkArena {
	n := len(c.arenas)
	if n == 0 {
		return new(chunkArena)
	}
	a := c.arenas[n-1]
	c.arenas[n-1], c.arenas = nil, c.arenas[:n-1]
	return a
}

// parkLocked keeps a released transient arena for the next transient load.
// The pool holds at most GOMAXPROCS arenas: about as many transient loads as
// can run at once.
func (c *ChunkCache) parkLocked(a *chunkArena) {
	if len(c.arenas) < runtime.GOMAXPROCS(0) {
		c.arenas = append(c.arenas, a)
	}
}

// dropEntryLocked removes e from the map, the LRU list and the size
// accounting, and cold-resets every table slot bound to it. Idempotent:
// only acts if e is still the mapped entry for its hash.
func (c *ChunkCache) dropEntryLocked(e *cacheEntry) {
	if c.entries[e.hash] != e {
		return
	}
	delete(c.entries, e.hash)
	c.lruRemove(e)
	c.resident -= e.size
	obs.ChunkCacheResidentBytes.Set(float64(c.resident))
	for _, s := range e.slots {
		s.tbl.chunks[s.idx] = nil
	}
	e.slots = nil
}

// trimLocked evicts unpinned entries until the budget holds. newcomer, when
// non-nil, is the just-released entry facing admission: each LRU tail it
// would displace must have been touched less often than it, or the newcomer
// is the one evicted (ties keep the resident). Anything still over budget
// after that goes in LRU order, as it does with no newcomer — which only
// happens when SetBudget lowered the budget under pinned entries.
func (c *ChunkCache) trimLocked(newcomer *cacheEntry) {
	for c.budget > 0 && c.resident-c.unadmitted > c.budget && c.tail != nil {
		victim := c.tail
		if newcomer != nil && (victim == newcomer || !c.hotterLocked(newcomer.state, victim.state)) {
			victim, newcomer = newcomer, nil
		}
		c.dropEntryLocked(victim)
		victim.payload = nil
		c.evictions++
		obs.ChunkCacheEvictionsTotal.Inc()
	}
}
