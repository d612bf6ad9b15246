package storage

import (
	"math/bits"
	"sync"
)

// A birth index answers GetBirthTuple (Algorithm 1) for every user of a chunk
// at once: per user run, the first row that performs one action and that
// row's raw time code. It is built on the first scan that asks for the action,
// by one word-parallel first-match pass over the chunk's packed action codes
// (BitPacked.FirstInRuns), and kept with the decoded chunk for the chunk's
// lifetime — a chunk never changes, so nothing invalidates it — so no
// later scan searches a user block for a birth row again. On lazy tables the
// index's bytes are charged to the chunk's cache entry.

// BirthIndex is one action's birth rows in one chunk.
type BirthIndex struct {
	// entries holds one word per user run: 0 when the user never performs
	// the action, else timeCode<<shift | (row+1) — row+1 alone when the
	// codes are kept in wide.
	entries []uint64
	shift   uint
	rowMask uint64
	// wide holds the time codes apart, one per user run, only in a chunk
	// whose time codes are too wide to share a word with a row number (a
	// time span past 2^(64-shift) seconds).
	wide []uint64
}

// Birth returns user run u's birth row and that row's raw time code (its
// frame-of-reference delta); ok is false when the user never performs the
// action.
func (ix *BirthIndex) Birth(u int) (row int, timeCode uint64, ok bool) {
	e := ix.entries[u]
	if e == 0 {
		return 0, 0, false
	}
	row = int(e&ix.rowMask) - 1
	if ix.wide != nil {
		return row, ix.wide[u], true
	}
	return row, e >> ix.shift, true
}

// Bytes is the index's size: 8 per user run (16 in a wide chunk).
func (ix *BirthIndex) Bytes() int64 { return 8 * int64(len(ix.entries)+len(ix.wide)) }

// birthIndexes is the set of birth indexes built over one decoded chunk,
// keyed by the action's chunk-id. It hangs off the payload, not the Chunk, so
// every Chunk bound to the same payload — the slots of two table generations
// sharing a cached segment, a chunk remapped onto grown dictionaries — shares
// one set and no index is built twice.
type birthIndexes struct {
	mu    sync.Mutex
	byCID map[uint64]*BirthIndex
	// charge, when set, adds the bytes of a newly built index to the cache
	// entry holding the payload.
	charge func(bytes int64)
	// spare holds the indexes dropped by reset, whose storage the next
	// builds reuse (a pooled arena's; see chunkArena).
	spare []*BirthIndex
}

// reset drops every index, keeping its storage for the next chunk's builds.
func (b *birthIndexes) reset() {
	b.mu.Lock()
	for _, ix := range b.byCID {
		b.spare = append(b.spare, ix)
	}
	clear(b.byCID)
	b.mu.Unlock()
}

// BirthIndex returns the birth index of the action whose chunk-id in action
// column actionCol is cid, building it on first use. searched is the number
// of packed codes the build compared — zero when the index already existed —
// so a caller can count the search exactly once.
func (c *Chunk) BirthIndex(actionCol, timeCol int, cid uint64) (ix *BirthIndex, searched int64) {
	b := c.births
	b.mu.Lock()
	ix = b.byCID[cid]
	if ix == nil {
		if n := len(b.spare); n > 0 {
			ix, b.spare = b.spare[n-1], b.spare[:n-1]
		} else {
			ix = new(BirthIndex)
		}
		searched = c.buildBirthIndex(ix, actionCol, timeCol, cid)
		if b.byCID == nil {
			b.byCID = make(map[uint64]*BirthIndex)
		}
		b.byCID[cid] = ix
		if b.charge != nil {
			b.charge(ix.Bytes())
		}
	}
	b.mu.Unlock()
	return ix, searched
}

// buildBirthIndex runs the birth search over every user block into ix,
// reusing its storage: one pass of BitPacked.FirstInRuns finds each user's
// first row holding cid on the packed codes, straight into the entries, then
// each found entry gains its row's time code. It returns the number of codes
// a row-by-row search compares.
func (c *Chunk) buildBirthIndex(ix *BirthIndex, actionCol, timeCol int, cid uint64) int64 {
	ids, tf := c.cols[actionCol].ids, c.cols[timeCol].ints
	rowBits := uint(bits.Len(uint(c.numRows))) // row+1 <= numRows
	wide := ix.wide
	*ix = BirthIndex{
		entries: resize(ix.entries, c.users.NumRuns()),
		shift:   rowBits,
		rowMask: 1<<rowBits - 1,
	}
	if uint(bits.Len64(uint64(tf.Max())-uint64(tf.Min()))) > 64-rowBits {
		ix.wide = resize(wide, len(ix.entries))
	}
	searched := ids.FirstInRuns(cid, c.users, ix.entries)
	for u, e := range ix.entries {
		if e == 0 {
			continue
		}
		code := tf.LoadRaw(int(e) - 1)
		if ix.wide != nil {
			ix.wide[u] = code
		} else {
			ix.entries[u] = code<<rowBits | e
		}
	}
	return searched
}
