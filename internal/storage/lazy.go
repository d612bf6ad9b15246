package storage

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/activity"
	"repro/internal/encoding"
	"repro/internal/obs"
)

// Lazy tables keep chunk payloads cold until a scan touches them. The table
// carries only manifest-level metadata per chunk (chunkMeta); the decoded
// payload lives in a ChunkCache and is loaded from the chunk's segment file
// on first PinChunk. Everything the planner needs to prune — user ranges,
// per-column value lists and int ranges — answers from the metadata, so open
// plus EXPLAIN plus pruning performs zero segment reads.

// chunkStatsCap bounds the per-chunk distinct-value lists persisted in the
// manifest. A string column whose chunk cardinality exceeds the cap carries
// no value list and is simply unprunable while cold (equality pruning on it
// degrades to "may have"); int ranges are two words and always exact.
const chunkStatsCap = 48

// CorruptSegmentError reports a chunk segment file that is missing, unreadable,
// fails its content hash, or decodes inconsistently with the manifest. It is
// the structured error a query hits when lazily touching a damaged table.
type CorruptSegmentError struct {
	Path string
	Err  error
}

func (e *CorruptSegmentError) Error() string {
	return fmt.Sprintf("storage: corrupt chunk segment %s: %v", e.Path, e.Err)
}

func (e *CorruptSegmentError) Unwrap() error { return e.Err }

// chunkMeta is the cheap manifest-backed handle for one chunk: enough to
// prune, to locate users, and to verify the segment on load — without the
// decoded payload.
type chunkMeta struct {
	file  string // segment file name (bare, relative to the table dir)
	hash  string // content hash (also the cache key)
	bytes int64  // segment file size; the cache accounts in these units
	rows  int
	users int
	// userBase is the global user id of the chunk's first user: the prefix
	// sum of the preceding chunks' user counts. Lazy tables have no user
	// dictionary; a user's global id is userBase + its index within the
	// chunk, which equals the eager sorted-dictionary id because users are
	// globally sorted and never span chunks.
	userBase         uint64
	minUser, maxUser string
	// strVals[c] is the sorted list of global-ids present in string column c
	// (nil when the chunk exceeded chunkStatsCap, or for int/user columns).
	strVals [][]uint64
	// intMin/intMax[c] is the exact [min, max] of integer column c.
	intMin, intMax []int64
	// perm marks a chunk rebuilt in memory by MergeDelta whose segment file
	// may not exist yet; it is permanently resident (never cache-managed)
	// until the table is reloaded from a committed manifest.
	perm bool
	// state is what this process has learned about the segment (nil on perm
	// chunks, which never load). A compaction commit that carries the chunk
	// carries the pointer with the hash; a table reload starts afresh.
	state *chunkState
}

// chunkState is the mutable companion of a chunkMeta, guarded by the cache
// mutex of the table's ChunkCache.
type chunkState struct {
	// verified records that the segment's SHA-256 content hash was checked
	// once by this process. Segment files are content-addressed and never
	// rewritten, so a reload after eviction skips the re-hash; it still runs
	// every structural check of the decoder and the manifest cross-checks.
	verified bool
	// hist and period are the chunk's touch history, kept here rather than on
	// the cache entry so that it survives eviction; see ChunkCache.
	hist, period uint32
}

// maxSegmentBytes bounds the segment size a manifest may declare: loadSegment
// sizes its read buffer from that number, so it must not be able to request
// an absurd allocation. A segment holds one chunk's rows.
const maxSegmentBytes = 1 << 30

// lazyState hangs off a Table opened lazily.
type lazyState struct {
	dir    string
	cache  *ChunkCache
	metas  []chunkMeta
	logged []bool // per chunk, guarded by cache.mu: corrupt-segment logged once
}

// Lazy reports whether the table loads chunk payloads on demand.
func (st *Table) Lazy() bool { return st.lazy != nil }

// PinChunk returns chunk i's decoded payload, loading it from its segment
// file if cold, and pins it against eviction until release is called. Eager
// tables return the chunk directly with a no-op release. Calling release more
// than once is harmless.
//
// A miss decides admission on the spot (ChunkCache.admitsLocked): a chunk the
// cache would drop is a transient load (see chunkArena), never published.
func (st *Table) PinChunk(i int) (ch *Chunk, release func(), err error) {
	if st.lazy == nil || st.lazy.metas[i].perm {
		return st.chunks[i], func() {}, nil
	}
	m := &st.lazy.metas[i]
	c := st.lazy.cache
	c.mu.Lock()
	e := c.entries[m.hash]
	if e == nil {
		c.touchLocked(m.state)
		c.misses++
		obs.ChunkCacheMissesTotal.Inc()
		verified := m.state.verified
		if !c.admitsLocked(m) {
			a := c.takeArenaLocked()
			c.mu.Unlock()
			return st.loadTransient(i, a, verified)
		}
		// Leader: claim the load.
		e = &cacheEntry{hash: m.hash, state: m.state, ready: make(chan struct{}), pins: 1}
		c.entries[m.hash] = e
		c.mu.Unlock()
		return st.loadAndBind(e, i, verified)
	}
	c.pinEntryLocked(e)
	c.touchLocked(e.state)
	if ch := st.chunks[i]; ch != nil {
		// Slot bound ⇒ the entry is resident and mapped.
		c.hits++
		obs.ChunkCacheHitsTotal.Inc()
		c.mu.Unlock()
		return ch, c.releaseFunc(e, nil), nil
	}
	// Resident or in flight: wait (returns immediately when already
	// resolved).
	c.mu.Unlock()
	<-e.ready
	if e.err != nil {
		// The leader removed the entry from the map before closing ready;
		// surface its error without retrying the disk read.
		c.mu.Lock()
		e.pins--
		c.mu.Unlock()
		return nil, nil, e.err
	}
	obs.ChunkCacheHitsTotal.Inc()
	ch2, err := st.adoptPayload(e, i)
	if err != nil {
		return nil, nil, err
	}
	return ch2, c.releaseFunc(e, nil), nil
}

// loadAndBind is the leader path of a kept miss: load the segment outside the
// lock, publish the payload, bind this table's slot. The new entry joins the
// cache unadmitted: it is pinned, so nothing is evicted to make room for it;
// whether it stays is decided again when its last pin drops.
func (st *Table) loadAndBind(e *cacheEntry, i int, verified bool) (*Chunk, func(), error) {
	m := &st.lazy.metas[i]
	c := st.lazy.cache
	a := new(chunkArena)
	a.seg.births.charge = func(bytes int64) { c.charge(e, bytes) }
	ch, err := st.load(i, a, verified)
	c.mu.Lock()
	if err != nil {
		st.lazy.logCorruptLocked(i, err)
		e.err = err
		if c.entries[m.hash] == e {
			delete(c.entries, m.hash)
		}
		c.mu.Unlock()
		close(e.ready)
		return nil, nil, err
	}
	m.state.verified = true
	e.payload, e.size = &a.seg, m.bytes // the payload is the file's bytes
	c.resident += e.size
	c.unadmitted += e.size
	obs.ChunkCacheResidentBytes.Set(float64(c.resident))
	st.chunks[i] = ch
	e.slots = append(e.slots, slotRef{tbl: st, idx: i})
	c.mu.Unlock()
	close(e.ready)
	return ch, c.releaseFunc(e, nil), nil
}

// loadTransient is a miss the cache would drop at release: the chunk loads
// into a pooled arena and is bound into neither a table slot nor a cache
// entry. It counts as a miss and a segment read like any load, and its
// release counts the eviction a losing newcomer would have cost.
func (st *Table) loadTransient(i int, a *chunkArena, verified bool) (*Chunk, func(), error) {
	c := st.lazy.cache
	ch, err := st.load(i, a, verified)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		st.lazy.logCorruptLocked(i, err)
		c.parkLocked(a)
		return nil, nil, err
	}
	st.lazy.metas[i].state.verified = true
	ch.transient = true
	return ch, c.releaseFunc(nil, a), nil
}

// chunkArena is everything one chunk load allocates: the segment's bytes,
// their decoded view and the Chunk bound over it. A kept load uses a fresh
// arena that its cache entry owns for good. A transient load takes one parked
// on the ChunkCache, which its release parks again, so a cyclic scan over a
// table larger than the budget reuses a few arenas instead of allocating
// every chunk it reads.
//
// Nothing in a transient arena may outlive the release. The chunkpin analyzer
// (internal/lint) confines payload access to a PinChunk region whose release
// is kept; UserString copies out of a transient chunk, whose users are substrings of
// buf; the chunk is never bound into Table.chunks or cacheEntry.slots; and
// its birth indexes are dropped at release, unbilled. The arena's *Chunk is
// reused at the same address by the next load, so nothing may key state on
// *Chunk identity — nothing does: the kernel rebuilds its cohort memo
// (cohort's chunkScratch.bindMemo) for every chunk it binds.
type chunkArena struct {
	buf   []byte
	seg   segChunk
	ch    Chunk
	info  segInfo
	users encoding.RLE
	// dicts are the chunk dictionaries, indexed by column; gids backs them
	// all, each string column's global ids after the previous column's.
	dicts []encoding.ChunkDict
	gids  []uint64
}

// load is the one loader, kept and transient alike: read chunk i's segment
// into a, check it, decode it and bind it.
func (st *Table) load(i int, a *chunkArena, verified bool) (*Chunk, error) {
	if err := st.lazy.loadSegment(st.schema, &st.lazy.metas[i], verified, a); err != nil {
		return nil, err
	}
	return st.bindPayload(i, &a.seg, a)
}

// adoptPayload binds a resident payload into this table's slot (a rebind hit:
// the payload survived — e.g. across a compaction commit or from another
// generation — but this table's slot is cold). The caller holds a pin, so the
// payload cannot be evicted underneath the bind.
func (st *Table) adoptPayload(e *cacheEntry, i int) (*Chunk, error) {
	c := st.lazy.cache
	ch, err := st.bindPayload(i, e.payload, new(chunkArena))
	if err != nil {
		c.mu.Lock()
		st.lazy.logCorruptLocked(i, err)
		c.unpinLocked(e)
		c.mu.Unlock()
		return nil, err
	}
	c.mu.Lock()
	c.hits++
	if existing := st.chunks[i]; existing != nil {
		// Another pinner bound the slot first; use theirs.
		ch = existing
	} else {
		st.chunks[i] = ch
		e.slots = append(e.slots, slotRef{tbl: st, idx: i})
	}
	c.mu.Unlock()
	return ch, nil
}

// bindPayload turns a decoded segment into a Chunk bound to this lazy table,
// built in a's Chunk, run and dictionary storage: user runs carry virtual
// global ids (userBase + run index), string columns remap their value lists
// through the manifest's complete global dictionaries, bit-packed and
// frame-of-reference payloads are adopted as-is. It only reads immutable
// table state, so it runs outside the cache lock.
func (st *Table) bindPayload(i int, sc *segChunk, a *chunkArena) (*Chunk, error) {
	m := &st.lazy.metas[i]
	schema := st.schema
	userCol := schema.UserCol()
	ncols := schema.NumCols()
	a.info = segInfo{}
	a.info.once.Do(func() { a.info.hash = m.hash })
	a.users.FillConsecutive(m.userBase, sc.lengths)
	a.ch = Chunk{
		numRows:  sc.numRows,
		users:    &a.users,
		cols:     resize(a.ch.cols, ncols),
		seg:      &a.info,
		userVals: sc.users,
		userBase: m.userBase,
		births:   &sc.births,
	}
	a.dicts = resize(a.dicts, ncols)
	n := 0
	for c := range sc.cols {
		n += len(sc.cols[c].vals)
	}
	gids := resize(a.gids, n)
	a.gids = gids
	for c := 0; c < ncols; c++ {
		if c == userCol {
			a.ch.cols[c] = chunkColumn{}
			continue
		}
		if !schema.IsStringCol(c) {
			a.ch.cols[c] = chunkColumn{ints: &sc.cols[c].ints}
			continue
		}
		vals := sc.cols[c].vals
		ids := gids[:len(vals):len(vals)]
		gids = gids[len(vals):]
		for k, v := range vals {
			gid, ok := st.dicts[c].Lookup(v)
			if !ok {
				return nil, &CorruptSegmentError{
					Path: filepath.Join(st.lazy.dir, m.file),
					Err:  fmt.Errorf("value %q missing from manifest dictionary (column %d)", v, c),
				}
			}
			ids[k] = gid
		}
		if err := a.dicts[c].Reset(ids); err != nil {
			return nil, &CorruptSegmentError{
				Path: filepath.Join(st.lazy.dir, m.file),
				Err:  fmt.Errorf("column %d: %w", c, err),
			}
		}
		a.ch.cols[c] = chunkColumn{cdict: &a.dicts[c], ids: &sc.cols[c].ids}
	}
	return &a.ch, nil
}

// loadSegment reads and decodes one chunk segment file into a: one read into
// a's buffer, sized from the manifest (a fresh arena's is allocated for it, a
// pooled one's is reused when large enough), which then backs the decoded
// payload. The SHA-256 content hash is checked unless this process already
// verified the segment (chunkState.verified); the decoder's structural
// checks and the manifest cross-checks run on every load. Every failure —
// missing or short file, hash mismatch, decode error, stats that contradict
// the manifest — comes back as a *CorruptSegmentError.
func (ls *lazyState) loadSegment(schema *activity.Schema, m *chunkMeta, verified bool, a *chunkArena) error {
	t0 := time.Now()
	path := filepath.Join(ls.dir, m.file)
	buf, err := readSegmentFile(path, m.bytes, a.buf)
	if err != nil {
		return &CorruptSegmentError{Path: path, Err: err}
	}
	a.buf = buf
	obs.SegmentReadsTotal.Inc()
	if !verified {
		sum := sha256.Sum256(buf)
		if got := hex.EncodeToString(sum[:16]); got != m.hash {
			return &CorruptSegmentError{Path: path,
				Err: fmt.Errorf("content hash %s does not match manifest hash %s", got, m.hash)}
		}
	}
	sc := &a.seg
	if err := decodeChunkSegment(sc, buf, schema); err != nil {
		return &CorruptSegmentError{Path: path, Err: err}
	}
	if sc.numRows != m.rows || len(sc.users) != m.users ||
		(len(sc.users) > 0 && (sc.users[0] != m.minUser || sc.users[len(sc.users)-1] != m.maxUser)) {
		return &CorruptSegmentError{Path: path,
			Err: fmt.Errorf("segment contents disagree with manifest stats")}
	}
	obs.ChunkColdLoadSeconds.ObserveSince(t0)
	return nil
}

// readSegmentFile reads the first size bytes of the file at path — the whole
// segment, by the manifest's account — with a single read into buf resized
// to exactly size bytes (reallocated only when buf is too small). A shorter
// file is an error; bytes past size are never looked at (a first load's hash
// check covers exactly the bytes that are used).
func readSegmentFile(path string, size int64, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf = resize(buf, int(size))
	if n, err := io.ReadFull(f, buf); err != nil {
		return nil, fmt.Errorf("segment file holds %d bytes, manifest says %d: %w", n, size, err)
	}
	return buf, nil
}

// logCorruptLocked logs a damaged segment once per chunk (callers hold
// cache.mu); every query that touches it still gets the structured error.
func (ls *lazyState) logCorruptLocked(i int, err error) {
	if ls.logged[i] {
		return
	}
	ls.logged[i] = true
	slog.Error("cohana: corrupt chunk segment",
		"segment", ls.metas[i].file, "error", err)
}

// ChunkRows returns the row count of chunk i without touching its payload.
func (st *Table) ChunkRows(i int) int {
	if st.lazy != nil {
		return st.lazy.metas[i].rows
	}
	return st.chunks[i].numRows
}

// ChunkUsers returns the user count of chunk i without touching its payload.
func (st *Table) ChunkUsers(i int) int {
	if st.lazy != nil {
		return st.lazy.metas[i].users
	}
	return st.chunks[i].users.NumRuns()
}

// ChunkMayHaveGID reports whether string column col of chunk i may contain
// global-id gid, without touching the payload. Lazy tables answer from the
// manifest's per-chunk value lists — exactly when present, conservatively
// ("may have") when the chunk exceeded chunkStatsCap. The answer never
// depends on cache state, keeping prune maps (and result-cache fingerprints)
// deterministic.
func (st *Table) ChunkMayHaveGID(i, col int, gid uint64) bool {
	if st.lazy != nil {
		vals := st.lazy.metas[i].strVals[col]
		if vals == nil {
			return true
		}
		k := sort.Search(len(vals), func(j int) bool { return vals[j] >= gid })
		return k < len(vals) && vals[k] == gid
	}
	return st.chunks[i].HasGlobalID(col, gid)
}

// ChunkIntRange returns the [min, max] of integer column col in chunk i
// without touching the payload (exact in both eager and lazy tables).
func (st *Table) ChunkIntRange(i, col int) (int64, int64) {
	if st.lazy != nil {
		m := &st.lazy.metas[i]
		return m.intMin[col], m.intMax[col]
	}
	return st.chunks[i].IntRange(col)
}

// UserString resolves a user global-id to its string through the table's
// user dictionary, or — on lazy tables, which have none — through the chunk's
// own user list (gid − userBase indexes it).
func (st *Table) UserString(ch *Chunk, gid uint64) string {
	if d := st.dicts[st.schema.UserCol()]; d != nil {
		return d.Value(gid)
	}
	u := ch.userVals[gid-ch.userBase]
	if ch.transient {
		// A substring of a pooled arena's buffer, which the next load
		// overwrites: callers store users in activity tables.
		return strings.Clone(u)
	}
	return u
}

// FindUser locates a user: its global id and its (chunk, run) position.
// ok=false means the user does not exist in the table; err is non-nil only
// when a lazy chunk had to be loaded and its segment was corrupt.
func (st *Table) FindUser(user string) (gid uint64, loc UserLoc, ok bool, err error) {
	if st.lazy == nil {
		d := st.dicts[st.schema.UserCol()]
		gid, ok = d.Lookup(user)
		if !ok {
			return 0, UserLoc{}, false, nil
		}
		ci := sort.Search(len(st.chunks), func(k int) bool {
			ch := st.chunks[k]
			last := ch.users.Run(ch.users.NumRuns() - 1)
			return last.Value >= gid
		})
		if ci == len(st.chunks) {
			return 0, UserLoc{}, false, nil
		}
		ch := st.chunks[ci]
		n := ch.users.NumRuns()
		ri := sort.Search(n, func(k int) bool { return ch.users.Run(k).Value >= gid })
		if ri == n || ch.users.Run(ri).Value != gid {
			return 0, UserLoc{}, false, nil
		}
		return gid, UserLoc{Chunk: ci, Run: ri}, true, nil
	}
	metas := st.lazy.metas
	ci := sort.Search(len(metas), func(k int) bool { return metas[k].maxUser >= user })
	if ci == len(metas) || user < metas[ci].minUser {
		return 0, UserLoc{}, false, nil
	}
	ch, release, err := st.PinChunk(ci)
	if err != nil {
		return 0, UserLoc{}, false, err
	}
	defer release()
	k := sort.SearchStrings(ch.userVals, user)
	if k == len(ch.userVals) || ch.userVals[k] != user {
		return 0, UserLoc{}, false, nil
	}
	// One RLE run per user, in user order: run index == local user index.
	return ch.userBase + uint64(k), UserLoc{Chunk: ci, Run: k}, true, nil
}

// chunkManifestStats computes the manifest v3 per-column stats of eager
// chunk ci.
func (st *Table) chunkManifestStats(ci int) (strVals [][]uint64, intMin, intMax []int64) {
	return chunkStatsOf(st.schema, st.chunks[ci])
}

// chunkStatsOf computes one chunk's manifest stats: the sorted distinct
// global-ids of each string column (omitted past chunkStatsCap) and the
// exact int ranges.
func chunkStatsOf(schema *activity.Schema, ch *Chunk) (strVals [][]uint64, intMin, intMax []int64) {
	strVals = make([][]uint64, schema.NumCols())
	intMin = make([]int64, schema.NumCols())
	intMax = make([]int64, schema.NumCols())
	for c := 0; c < schema.NumCols(); c++ {
		if c == schema.UserCol() {
			continue
		}
		if schema.IsStringCol(c) {
			cd := ch.cols[c].cdict
			if cd.Len() > chunkStatsCap {
				continue
			}
			vals := make([]uint64, cd.Len())
			for k := range vals {
				vals[k] = cd.GlobalID(uint64(k))
			}
			strVals[c] = vals
		} else {
			intMin[c], intMax[c] = ch.IntRange(c)
		}
	}
	return strVals, intMin, intMax
}
