package storage

import (
	"fmt"

	"repro/internal/activity"
	"repro/internal/encoding"
)

// This file is the chunk-granular compaction path: merging a sorted delta
// batch into a sealed table by re-encoding only the chunks that own the
// delta's users. Chunks hold contiguous user ranges (the table is sorted by
// Au and chunks split at user boundaries), so each delta user block routes to
// exactly one owning chunk by binary search over the chunks' first users.
// Untouched chunks share their bit-packed payloads with the old table and
// only remap their small dictionary structures onto the grown global
// dictionaries — a monotonic remap, since appending rows can only insert
// values into the sorted dictionaries. A touched chunk is decoded, merged
// with its routed rows in (Au, At, Ae) order, and re-encoded through the same
// encodeChunks path the full build uses, splitting at the block budget when
// the merged chunk outgrows it. The result is logically identical to a full
// rebuild — the property test pins query results bit-for-bit — while the
// work (and, downstream, the bytes persisted) is proportional to the touched
// chunks, not the shard.

// LayoutDelta describes one persistence step: the full new layout plus which
// shard changed and how much of it was actually rebuilt. The Persist hook
// receives it so the committer can report (and tests can assert) that write
// cost tracks the touched chunks.
type LayoutDelta struct {
	// Layout is the complete new sealed layout to commit.
	Layout *Sharded
	// Shard is the index of the one shard that changed, or -1 when the whole
	// layout is new (initial persist, resharding, format upgrade).
	Shard int
	// ChunksRebuilt / ChunksReused count the changed shard's chunks that were
	// re-encoded vs carried over untouched by the compaction.
	ChunksRebuilt, ChunksReused int
}

// FullLayout wraps a layout whose every shard must be treated as new.
func FullLayout(s *Sharded) LayoutDelta {
	return LayoutDelta{Layout: s, Shard: -1, ChunksRebuilt: s.NumChunks()}
}

// MergeDelta merges a sorted, PK-disjoint delta batch into a sealed table,
// re-encoding only the chunks that own delta users. It returns the new table
// plus the rebuilt/reused chunk counts. The inputs are not mutated.
//
// Untouched chunks are carried as they are: a cold chunk's handle moves to
// the new table (string stats remapped onto the grown dictionaries), so the
// merge never loads it — and because its segment content is unchanged, a
// warm payload survives in the chunk cache under the same hash and the next
// touch is a rebind, not a disk read; a perm chunk's payload is shared, its
// dictionary structures remapped. Touched chunks are decoded, merged and
// re-encoded; they are perm — permanently resident — because their segment
// files do not exist until the next commit, so the cache must never be
// allowed to evict the only copy.
func MergeDelta(old *Table, batch *activity.Table, opts Options) (merged *Table, rebuilt, reused int, err error) {
	if batch.Len() == 0 {
		return old, 0, old.NumChunks(), nil
	}
	if !batch.Sorted() {
		return nil, 0, 0, fmt.Errorf("storage: delta batch must be sorted by primary key")
	}
	if old.NumChunks() == 0 {
		// Nothing sealed to merge into: a plain build of the batch.
		st, err := Build(batch, opts)
		if err != nil {
			return nil, 0, 0, err
		}
		return st, st.NumChunks(), 0, nil
	}
	schema := old.schema
	st, remap, routed := planMerge(old, batch, opts)
	for ci := 0; ci < old.NumChunks(); ci++ {
		om := &old.metas[ci]
		if routed[ci].Lo < 0 {
			userBase := uint64(st.numUsers)
			if om.perm {
				st.chunks = append(st.chunks, carryPermChunk(old, ci, userBase, remap))
			} else {
				st.chunks = append(st.chunks, nil) // stays cold
			}
			meta := *om
			meta.userBase = userBase
			meta.strVals = remapStats(om.strVals, remap)
			st.metas = append(st.metas, meta)
			st.numRows += om.rows
			st.numUsers += om.users
			reused++
			continue
		}
		segs, err := rebuildChunk(old, ci, batch, routed[ci], st.chunkSize)
		if err != nil {
			return nil, 0, 0, err
		}
		for _, sc := range segs {
			// The k-th distinct user so far gets id k: users are globally
			// sorted and never span chunks.
			ch, err := bindChunk(schema, st.dicts, sc, uint64(st.numUsers))
			if err != nil {
				return nil, 0, 0, fmt.Errorf("storage: rebuilding chunk %d: %w", ci, err)
			}
			st.appendPerm(ch)
		}
		rebuilt += len(segs)
	}
	return st, rebuilt, reused, nil
}

// planMerge is the table-level part of a merge: the merged table's shell
// with its grown global dictionaries and ranges, the remap of every
// dictionary that grew, and the delta's routing. Appending rows only ever
// inserts dictionary values and widens ranges, so the merged metadata equals
// what a full rebuild over all rows would compute.
//
// routed[ci] is the batch's row range owned by old chunk ci (Lo < 0 when the
// batch holds none): chunk i owns users in [firstUser(i), firstUser(i+1)),
// with chunk 0 absorbing anything below its range and the last chunk anything
// above. Both the batch's user blocks and the chunk ranges are in ascending
// user order, so the routed ranges are contiguous and in chunk order.
func planMerge(old *Table, batch *activity.Table, opts Options) (st *Table, remap [][]uint64, routed []span) {
	schema := old.schema
	st = &Table{
		schema:    schema,
		chunkSize: opts.chunkSize(),
		dicts:     make([]*encoding.Dict, schema.NumCols()),
		globalMin: make([]int64, schema.NumCols()),
		globalMax: make([]int64, schema.NumCols()),
		dir:       old.dir,
		cache:     old.cache,
	}
	remap = make([][]uint64, schema.NumCols())
	for c := 0; c < schema.NumCols(); c++ {
		if c == schema.UserCol() {
			continue
		}
		if schema.IsStringCol(c) {
			st.dicts[c], remap[c] = old.dicts[c].Grow(batch.Strings(c))
			continue
		}
		st.globalMin[c], st.globalMax[c] = encoding.MinMax(batch.Ints(c), old.globalMin[c], old.globalMax[c])
	}
	routed = make([]span, old.NumChunks())
	for i := range routed {
		routed[i].Lo = -1
	}
	ci := 0
	batch.UserBlocks(func(user string, start, end int) {
		for ci < len(routed)-1 && old.metas[ci+1].minUser <= user {
			ci++
		}
		if routed[ci].Lo < 0 {
			routed[ci].Lo = start
		}
		routed[ci].Hi = end
	})
	return st, remap, routed
}

// rebuildChunk decodes old chunk ci, merges the routed batch rows into it in
// (Au, At, Ae) order and re-encodes the result through the encoder the full
// build uses, splitting at the block budget when the merged chunk outgrows
// it. The chunks come back self-contained, for the caller to bind.
func rebuildChunk(old *Table, ci int, batch *activity.Table, routed span, chunkSize int) ([]*segChunk, error) {
	sub := activity.NewTable(old.schema)
	sub.AppendRows(batch, routed.Lo, routed.Hi)
	if err := sub.AssertSortedByPK(); err != nil {
		return nil, fmt.Errorf("storage: routed delta rows for chunk %d: %w", ci, err)
	}
	sealed, err := old.MaterializeChunk(ci)
	if err != nil {
		return nil, err
	}
	rows, err := activity.MergeSorted(sealed, sub)
	if err != nil {
		return nil, fmt.Errorf("storage: merging chunk %d: %w", ci, err)
	}
	var spans []span
	rows.UserBlocks(func(_ string, start, end int) {
		spans = append(spans, span{Lo: start, Hi: end})
	})
	return encodeChunks(rows, [][]span{spans}, chunkSize)[0], nil
}

// remapStats rebinds per-chunk string stats onto grown dictionaries. The
// remap is monotonic, so the lists stay sorted; unchanged columns share the
// old slices.
func remapStats(strVals [][]uint64, remap [][]uint64) [][]uint64 {
	out := make([][]uint64, len(strVals))
	for c, vals := range strVals {
		if vals == nil {
			continue
		}
		if remap[c] == nil {
			out[c] = vals
			continue
		}
		mapped := make([]uint64, len(vals))
		for k, g := range vals {
			mapped[k] = remap[c][g]
		}
		out[c] = mapped
	}
	return out
}

// carryPermChunk carries an untouched perm chunk into a merged table,
// rebasing its user ids and remapping its chunk dictionaries onto the grown
// global dictionaries. Payloads are shared; the segment content (values, not
// ids) is unchanged, so the handle's segment identity carries over as is.
func carryPermChunk(old *Table, ci int, newBase uint64, remap [][]uint64) *Chunk {
	och := old.chunks[ci]
	schema := old.schema
	userCol := schema.UserCol()
	changed := newBase != och.userBase
	for c := 0; c < schema.NumCols(); c++ {
		if c != userCol && schema.IsStringCol(c) && remap[c] != nil {
			changed = true
		}
	}
	if !changed {
		return och
	}
	ch := &Chunk{
		numRows:  och.numRows,
		cols:     make([]chunkColumn, schema.NumCols()),
		userVals: och.userVals,
		userBase: newBase,
		births:   och.births,
	}
	if newBase == och.userBase {
		ch.users = och.users
	} else {
		lens := make([]uint32, och.users.NumRuns())
		for r := range lens {
			lens[r] = och.users.Run(r).Length
		}
		ch.users = encoding.RLEConsecutive(newBase, lens) // one ascending run per user
	}
	for c := 0; c < schema.NumCols(); c++ {
		if c == userCol {
			continue
		}
		if !schema.IsStringCol(c) || remap[c] == nil {
			ch.cols[c] = och.cols[c]
			continue
		}
		ocd := och.cols[c].cdict
		ids := make([]uint64, ocd.Len())
		for i := range ids {
			ids[i] = remap[c][ocd.GlobalID(uint64(i))]
		}
		cd, err := encoding.ChunkDictFromIDs(ids)
		if err != nil {
			panic("storage: chunk dict remap out of order: " + err.Error())
		}
		ch.cols[c] = chunkColumn{cdict: cd, ids: och.cols[c].ids}
	}
	return ch
}
