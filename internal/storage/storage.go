// Package storage implements COHANA's activity table storage format
// (Section 4.1 of the paper): the table is kept in (Au, At, Ae) order,
// horizontally partitioned into user-aligned chunks, and stored column by
// column inside each chunk with per-type compression —
//
//   - user column: run-length encoded (u, f, n) triples over global user ids;
//   - string columns: two-level dictionary encoding (global dictionary of
//     sorted values, per-chunk dictionary of sorted global-ids, bit-packed
//     chunk-ids);
//   - integer and time columns: two-level delta (frame-of-reference)
//     encoding with global and per-chunk [min, max] ranges, bit-packed
//     deltas.
//
// Bit-packed values are randomly accessible without decompression, and the
// chunk dictionaries / chunk ranges support the chunk-pruning step of
// Section 4.2.
package storage

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/activity"
	"repro/internal/encoding"
)

// DefaultChunkSize is the paper's default chunk size of 256K tuples
// (Section 5.1).
const DefaultChunkSize = 256 * 1024

// Options configures table construction.
type Options struct {
	// ChunkSize is the target number of activity tuples per chunk. Chunks
	// are closed at the first user boundary at or past this size, so every
	// user's tuples land in exactly one chunk (the clustering property).
	ChunkSize int
}

func (o Options) chunkSize() int {
	if o.ChunkSize <= 0 {
		return DefaultChunkSize
	}
	return o.ChunkSize
}

// Table is a compressed, chunked, columnar activity table.
type Table struct {
	schema    *activity.Schema
	chunkSize int
	numRows   int
	numUsers  int

	// dicts[c] is the global dictionary for string column c (nil for
	// integer columns). The user column's dictionary is dicts[schema.UserCol()]
	// — except on lazy tables, which have none: user ids are virtual
	// (chunkMeta.userBase + local index) and resolve via UserString.
	dicts []*encoding.Dict
	// globalMin/globalMax hold the global range of integer column c.
	globalMin, globalMax []int64

	// chunks[i] is the decoded payload of chunk i. On lazy tables a nil
	// entry means the chunk is cold; slots of non-perm chunks are guarded by
	// lazy.cache.mu and accessed through PinChunk.
	chunks []*Chunk

	// lazy is non-nil when the table loads chunk payloads on demand.
	lazy *lazyState
}

// Chunk is one horizontal partition holding complete user blocks.
type Chunk struct {
	numRows int
	users   *encoding.RLE // global user ids, one run per user
	cols    []chunkColumn // indexed by schema column; user column entry unused

	// seg lazily caches the content hash of the chunk's self-contained
	// segment encoding; incremental persistence skips re-serializing (and
	// re-writing) chunks whose segment file already exists on disk. A chunk
	// whose dictionaries were remapped without touching its rows shares the
	// pointer with its predecessor — the segment encodes values, not global
	// ids, so the content (and hash) is unchanged.
	seg *segInfo

	// userVals/userBase stand in for the user dictionary on lazy tables:
	// the chunk's distinct users in ascending order, whose global ids are
	// userBase, userBase+1, … (nil/0 on eager tables).
	userVals []string
	userBase uint64

	// births holds the chunk's birth indexes (see BirthIndex), shared by
	// every Chunk bound to the same payload.
	births *birthIndexes

	// transient marks a chunk bound in a pooled arena (see chunkArena),
	// whose storage its release hands to the next load.
	transient bool
}

// segInfo is the shared lazily-computed segment identity of a chunk: the
// hex-encoded truncated SHA-256 of its self-contained segment encoding.
type segInfo struct {
	once sync.Once
	hash string
}

type chunkColumn struct {
	// For string columns:
	cdict *encoding.ChunkDict
	ids   *encoding.BitPacked // chunk-ids
	// For integer/time columns:
	ints *encoding.FrameOfRef
}

// Build compresses a sorted activity table into the COHANA format.
func Build(t *activity.Table, opts Options) (*Table, error) {
	tables, err := buildShards(t, 1, opts)
	if err != nil {
		return nil, err
	}
	return tables[0], nil
}

// span is one user's tuples: the half-open row range [Lo, Hi) of a source
// table sorted by primary key. A shard, and a chunk within it, is a list of
// spans in ascending user order; the encoder reads the source through them,
// so no row is copied before it is encoded.
type span = encoding.Range

// buildShards is the one build pipeline behind Build and BuildSharded: walk
// the user blocks once, routing each to its shard by ShardOf; cut every
// shard's spans into chunks; encode all the chunks of all the shards on one
// fan-out; bind each shard's chunks to the dictionaries their values add up
// to.
func buildShards(t *activity.Table, shards int, opts Options) ([]*Table, error) {
	if !t.Sorted() {
		return nil, fmt.Errorf("storage: input table must be sorted by primary key")
	}
	spans := make([][]span, shards)
	t.UserBlocks(func(user string, start, end int) {
		si := ShardOf(user, shards)
		spans[si] = append(spans[si], span{Lo: start, Hi: end})
	})
	chunkSize := opts.chunkSize()
	segs := encodeChunks(t, spans, chunkSize)
	tables := make([]*Table, shards)
	for si := range tables {
		var err error
		if tables[si], err = assembleShard(t.Schema(), chunkSize, segs[si], nil); err != nil {
			return nil, fmt.Errorf("storage: building shard %d: %w", si, err)
		}
	}
	return tables, nil
}

// encodeChunks cuts each list of spans into whole-user chunks — accumulating
// user blocks until the target size, the clustering rule of Section 4.1 — and
// encodes every chunk self-contained, in the form a chunk segment decodes to.
// A chunk's encoding depends on its own rows only, so the chunks are encoded
// independently, on up to GOMAXPROCS goroutines joined before return; the
// result is addressed by position and does not depend on the scheduling. It
// is shared by the table build and the chunk-granular merge, so both produce
// identical chunk encodings.
func encodeChunks(src *activity.Table, spans [][]span, target int) [][]*segChunk {
	type task struct {
		shard, chunk int
		spans        []span
	}
	var tasks []task
	out := make([][]*segChunk, len(spans))
	for si, sp := range spans {
		start, rows := 0, 0
		for i, u := range sp {
			if rows += u.Hi - u.Lo; rows >= target || i == len(sp)-1 {
				tasks = append(tasks, task{si, len(out[si]), sp[start : i+1]})
				out[si] = append(out[si], nil)
				start, rows = i+1, 0
			}
		}
	}
	// In source order, so that workers on different shards' chunks read the
	// same stretch of the source at about the same time and share it in cache.
	slices.SortFunc(tasks, func(a, b task) int { return a.spans[0].Lo - b.spans[0].Lo })
	var next atomic.Int64
	work := func() {
		var enc chunkEncoder
		for i := int(next.Add(1)) - 1; i < len(tasks); i = int(next.Add(1)) - 1 {
			out[tasks[i].shard][tasks[i].chunk] = enc.encode(src, tasks[i].spans)
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(tasks))
	if workers <= 1 {
		work()
		return out
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:allow goroutinepool chunk-encode fan-out bounded by GOMAXPROCS and joined below; storage sits under the cohort pool layer (import cycle)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return out
}

// chunkEncoder is one worker's scratch, reused from chunk to chunk.
type chunkEncoder struct {
	cols   encoding.Encoder
	ranges []span // the chunk's spans, adjacent ones joined
}

// encode compresses the rows of one chunk, read in place from src: the user
// column becomes one run per span, every other column goes through the column
// encoders over the chunk's row ranges. Allocations are a few per column,
// whatever the rows hold.
func (e *chunkEncoder) encode(src *activity.Table, spans []span) *segChunk {
	schema := src.Schema()
	userCol := schema.UserCol()
	users := src.Strings(userCol)
	sc := &segChunk{
		users:   make([]string, len(spans)),
		lengths: make([]uint32, len(spans)),
		cols:    make([]segColumn, schema.NumCols()),
	}
	e.ranges = e.ranges[:0]
	for i, u := range spans {
		sc.users[i] = users[u.Lo]
		sc.lengths[i] = uint32(u.Hi - u.Lo)
		sc.numRows += u.Hi - u.Lo
		if n := len(e.ranges); n > 0 && e.ranges[n-1].Hi == u.Lo {
			e.ranges[n-1].Hi = u.Hi
		} else {
			e.ranges = append(e.ranges, u)
		}
	}
	for c := 0; c < schema.NumCols(); c++ {
		switch {
		case c == userCol:
		case schema.IsStringCol(c):
			sc.cols[c].vals, sc.cols[c].ids = e.cols.EncodeStrings(src.Strings(c), e.ranges)
		default:
			sc.cols[c].ints = e.cols.EncodeInts(src.Ints(c), e.ranges)
		}
	}
	return sc
}

// Schema returns the table schema.
func (st *Table) Schema() *activity.Schema { return st.schema }

// NumRows returns the total number of activity tuples.
func (st *Table) NumRows() int { return st.numRows }

// NumUsers returns the total number of distinct users.
func (st *Table) NumUsers() int { return st.numUsers }

// NumChunks returns the number of chunks.
func (st *Table) NumChunks() int { return len(st.chunks) }

// ChunkSize returns the configured target chunk size.
func (st *Table) ChunkSize() int { return st.chunkSize }

// Chunk returns the i-th chunk's decoded payload. On lazy tables it reads
// the slot under the cache lock and panics when the chunk is cold — scan
// paths must hold it via PinChunk; Chunk is for eager tables and
// already-pinned access.
func (st *Table) Chunk(i int) *Chunk {
	if st.lazy != nil && !st.lazy.metas[i].perm {
		st.lazy.cache.mu.Lock()
		ch := st.chunks[i]
		st.lazy.cache.mu.Unlock()
		if ch == nil {
			panic("storage: cold lazy chunk accessed without PinChunk")
		}
		return ch
	}
	return st.chunks[i]
}

// RowOffset returns the global row index of the first tuple of chunk i;
// chunk-local row r corresponds to global row RowOffset(i)+r in the source
// table's primary-key order.
func (st *Table) RowOffset(i int) int {
	off := 0
	if st.lazy != nil {
		for k := 0; k < i; k++ {
			off += st.lazy.metas[k].rows
		}
		return off
	}
	for k := 0; k < i; k++ {
		off += st.chunks[k].numRows
	}
	return off
}

// Dict returns the global dictionary of a string column, or nil for integer
// columns.
func (st *Table) Dict(col int) *encoding.Dict { return st.dicts[col] }

// LookupString returns the global-id of value v in column col, or false if v
// never occurs in the table.
func (st *Table) LookupString(col int, v string) (uint64, bool) {
	d := st.dicts[col]
	if d == nil {
		return 0, false
	}
	return d.Lookup(v)
}

// NumRows returns the number of tuples in the chunk.
func (c *Chunk) NumRows() int { return c.numRows }

// Transient reports whether the chunk is a transient load (see chunkArena):
// its release drops it, and the next pin of the chunk reads it again.
func (c *Chunk) Transient() bool { return c.transient }

// NumUsers returns the number of distinct users in the chunk (one RLE run
// per user thanks to the sorted order).
func (c *Chunk) NumUsers() int { return c.users.NumRuns() }

// UserRun returns the i-th (u, f, n) triple of the chunk's user column:
// global user id, first row, and run length.
func (c *Chunk) UserRun(i int) (gid uint64, first, n int) {
	r := c.users.Run(i)
	return r.Value, int(r.Start), int(r.Length)
}

// StringID returns the global-id of string column col at row.
func (c *Chunk) StringID(col, row int) uint64 {
	cc := &c.cols[col]
	return cc.cdict.GlobalID(cc.ids.Get(row))
}

// ChunkID returns the raw chunk-id of string column col at row — the value
// as stored, without the chunk-dict → global-dict translation. Predicate
// pushdown compares these directly against a literal's chunk-id (resolved
// once per chunk via ChunkIDOf), so an equality check per row is one
// bit-packed read and an integer compare.
func (c *Chunk) ChunkID(col, row int) uint64 { return c.cols[col].ids.Get(row) }

// AppendChunkIDs appends the raw chunk-ids of string column col for rows
// [start, end) to dst — the batch form of ChunkID. The chunk kernel
// extracts a decode window's codes once and selects its rows on them.
func (c *Chunk) AppendChunkIDs(dst []uint64, col, start, end int) []uint64 {
	return c.cols[col].ids.AppendRange(dst, start, end)
}

// AppendRawInts appends the frame-of-reference deltas of integer column col
// for rows [start, end) to dst — the batch form of Ints(col).Raw.
func (c *Chunk) AppendRawInts(dst []uint64, col, start, end int) []uint64 {
	return c.cols[col].ints.AppendRaw(dst, start, end)
}

// ChunkIDOf translates a global-id to this chunk's chunk-id, or false when
// the value does not occur in the chunk (every row fails an equality against
// it). This is the per-chunk binding step of predicate pushdown.
func (c *Chunk) ChunkIDOf(col int, gid uint64) (uint64, bool) {
	return c.cols[col].cdict.ChunkID(gid)
}

// Int returns the value of integer column col at row.
func (c *Chunk) Int(col, row int) int64 { return c.cols[col].ints.Get(row) }

// Ints returns the frame-of-reference encoding of integer column col,
// exposing the encoded delta domain (Raw/DeltaOf) to predicate pushdown.
func (c *Chunk) Ints(col int) *encoding.FrameOfRef { return c.cols[col].ints }

// HasGlobalID reports whether global-id gid of string column col occurs in
// this chunk — the binary search on the chunk dictionary used for pruning.
func (c *Chunk) HasGlobalID(col int, gid uint64) bool {
	_, ok := c.cols[col].cdict.ChunkID(gid)
	return ok
}

// IntRange returns the chunk [min, max] of integer column col, used to prune
// chunks against range predicates.
func (c *Chunk) IntRange(col int) (int64, int64) {
	f := c.cols[col].ints
	return f.Min(), f.Max()
}

// ChunkCardinality returns the number of distinct values of string column
// col within the chunk.
func (c *Chunk) ChunkCardinality(col int) int { return c.cols[col].cdict.Len() }
