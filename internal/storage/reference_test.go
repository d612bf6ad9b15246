package storage

import (
	"fmt"
	"sort"

	"repro/internal/activity"
	"repro/internal/encoding"
)

// This file is the reference builder: the copy-then-encode composition the
// storage format was first built with — partition the table into per-shard
// copies, one hash-map dictionary per column, a second hashing pass for the
// global ids, a map-built chunk dictionary and a binary search per row. It is
// slow and obviously right, and it lives under _test.go only: the equivalence
// tests assert that the production encoder produces the same bytes.

// refPartitionByUser splits a sorted activity table into per-shard activity
// tables by user hash. Whole user blocks move together, so every part is
// already in (Au, At, Ae) order.
func refPartitionByUser(t *activity.Table, shards int) ([]*activity.Table, error) {
	parts := make([]*activity.Table, shards)
	for i := range parts {
		parts[i] = activity.NewTable(t.Schema())
	}
	t.UserBlocks(func(user string, start, end int) {
		parts[ShardOf(user, shards)].AppendRows(t, start, end)
	})
	for i, p := range parts {
		if err := p.AssertSortedByPK(); err != nil {
			return nil, fmt.Errorf("shard %d partition out of order: %w", i, err)
		}
	}
	return parts, nil
}

// refBuildSharded is BuildSharded through the reference builder.
func refBuildSharded(t *activity.Table, shards int, opts Options) (*Sharded, error) {
	if shards <= 1 {
		st, err := refBuild(t, opts)
		if err != nil {
			return nil, err
		}
		return SingleShard(st), nil
	}
	parts, err := refPartitionByUser(t, shards)
	if err != nil {
		return nil, err
	}
	out := make([]*Table, shards)
	for i := range parts {
		if out[i], err = refBuild(parts[i], opts); err != nil {
			return nil, err
		}
	}
	return &Sharded{schema: t.Schema(), shards: out}, nil
}

// refBuild is Build through the reference builder.
func refBuild(t *activity.Table, opts Options) (*Table, error) {
	if !t.Sorted() {
		return nil, fmt.Errorf("reference: input table must be sorted by primary key")
	}
	schema := t.Schema()
	st := &Table{
		schema:    schema,
		chunkSize: opts.chunkSize(),
		dicts:     make([]*encoding.Dict, schema.NumCols()),
		globalMin: make([]int64, schema.NumCols()),
		globalMax: make([]int64, schema.NumCols()),
	}
	// dicts holds every string column's dictionary, the user column's too;
	// the table keeps the others.
	dicts := make([]*encoding.Dict, schema.NumCols())
	for c := 0; c < schema.NumCols(); c++ {
		if schema.IsStringCol(c) {
			dicts[c] = encoding.BuildDict(t.Strings(c))
			if c != schema.UserCol() {
				st.dicts[c] = dicts[c]
			}
			continue
		}
		vals := t.Ints(c)
		if len(vals) > 0 {
			mn, mx := vals[0], vals[0]
			for _, v := range vals[1:] {
				mn, mx = min(mn, v), max(mx, v)
			}
			st.globalMin[c], st.globalMax[c] = mn, mx
		}
	}
	gids, err := refGlobalIDs(t, schema, dicts)
	if err != nil {
		return nil, err
	}
	for _, ch := range refEncodeChunks(t, schema, dicts[schema.UserCol()], gids, st.chunkSize) {
		st.appendPerm(ch)
	}
	return st, nil
}

// refGlobalIDs encodes every string column to global ids through a hash map
// built per column.
func refGlobalIDs(t *activity.Table, schema *activity.Schema, dicts []*encoding.Dict) ([][]uint64, error) {
	gids := make([][]uint64, schema.NumCols())
	for c := 0; c < schema.NumCols(); c++ {
		if !schema.IsStringCol(c) {
			continue
		}
		lookup := make(map[string]uint64, dicts[c].Len())
		for id, v := range dicts[c].Values() {
			lookup[v] = uint64(id)
		}
		col := t.Strings(c)
		out := make([]uint64, len(col))
		for i, v := range col {
			id, ok := lookup[v]
			if !ok {
				return nil, fmt.Errorf("reference: value %q missing from its own dictionary", v)
			}
			out[i] = id
		}
		gids[c] = out
	}
	return gids, nil
}

// refEncodeChunks splits sorted rows into whole-user chunks — accumulating
// user blocks until the target size — and encodes each.
func refEncodeChunks(t *activity.Table, schema *activity.Schema, users *encoding.Dict, gids [][]uint64, target int) []*Chunk {
	var start int
	var blockEnds []int
	t.UserBlocks(func(_ string, _, end int) {
		blockEnds = append(blockEnds, end)
	})
	var chunks []*Chunk
	for _, end := range blockEnds {
		if end-start >= target || end == t.Len() {
			chunks = append(chunks, refBuildChunk(t, schema, users, gids, start, end))
			start = end
		}
	}
	return chunks
}

func refBuildChunk(t *activity.Table, schema *activity.Schema, users *encoding.Dict, gids [][]uint64, start, end int) *Chunk {
	ch := &Chunk{numRows: end - start, cols: make([]chunkColumn, schema.NumCols()), births: &birthIndexes{}}
	first, lengths := refUserRuns(gids[schema.UserCol()][start:end])
	ch.users = encoding.RLEConsecutive(first, lengths)
	ch.userVals, ch.userBase = users.Values()[first:first+uint64(len(lengths))], first
	for c := 0; c < schema.NumCols(); c++ {
		if c == schema.UserCol() {
			continue
		}
		if schema.IsStringCol(c) {
			seg := gids[c][start:end]
			cdict := refBuildChunkDict(seg)
			ch.cols[c] = chunkColumn{cdict: cdict, ids: refPack(refChunkIDs(cdict, seg))}
		} else {
			ch.cols[c] = chunkColumn{ints: encoding.EncodeFrameOfRef(t.Ints(c)[start:end])}
		}
	}
	return ch
}

// refUserRuns run-length encodes a chunk's user ids, which count up by one
// from run to run in a sorted table: the first id and the run lengths.
func refUserRuns(ids []uint64) (first uint64, lengths []uint32) {
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[i] {
			j++
		}
		if ids[i] != ids[0]+uint64(len(lengths)) {
			panic(fmt.Sprintf("reference: user id %d out of order", ids[i]))
		}
		lengths = append(lengths, uint32(j-i))
		i = j
	}
	return ids[0], lengths
}

// refPack bit-packs values at the minimum width that fits the largest one.
func refPack(values []uint64) *encoding.BitPacked {
	var max uint64
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	return encoding.PackUint64Width(values, encoding.BitWidth(max))
}

// refBuildChunkDict collects the sorted distinct global-ids appearing in ids.
func refBuildChunkDict(ids []uint64) *encoding.ChunkDict {
	seen := make(map[uint64]struct{})
	var uniq []uint64
	for _, id := range ids {
		if _, ok := seen[id]; !ok {
			seen[id] = struct{}{}
			uniq = append(uniq, id)
		}
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })
	cd, err := encoding.ChunkDictFromIDs(uniq)
	if err != nil {
		panic(err)
	}
	return cd
}

// refChunkIDs maps global-ids to chunk-ids, one binary search per row.
func refChunkIDs(cd *encoding.ChunkDict, globalIDs []uint64) []uint64 {
	out := make([]uint64, len(globalIDs))
	for i, g := range globalIDs {
		cid, ok := cd.ChunkID(g)
		if !ok {
			panic(fmt.Sprintf("reference: global id %d missing from chunk dict", g))
		}
		out[i] = cid
	}
	return out
}
