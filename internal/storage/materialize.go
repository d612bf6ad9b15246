package storage

import "repro/internal/activity"

// This file is the decompression path of the storage format: turning sealed
// chunks back into activity rows. The live-ingestion subsystem uses it in two
// places — per-user materialization when a shard's union input combines a
// user's sealed tuples with fresh delta tuples, and full-table
// materialization when the compactor merges the delta into a new sealed
// table. These paths pin chunks through the chunk cache, so they can fail
// with a *CorruptSegmentError when a segment is damaged.

// UserLoc locates one user's tuples inside a sealed table: users never span
// chunks (the clustering property), so a (chunk, run) pair identifies the
// whole block.
type UserLoc struct {
	Chunk int // chunk index
	Run   int // RLE run index within the chunk's user column
}

// AppendUserRows decodes the user block at loc into dst, which must share the
// table's schema. Rows arrive in the sealed (At, Ae) order.
func (st *Table) AppendUserRows(dst *activity.Table, loc UserLoc) error {
	ch, release, err := st.PinChunk(loc.Chunk)
	if err != nil {
		return err
	}
	defer release()
	gid, first, n := ch.UserRun(loc.Run)
	st.appendRows(dst, ch, gid, first, first+n)
	return nil
}

// Materialize decodes the whole table back into a sorted activity table —
// the inverse of Build, used by the compactor to merge delta rows in.
func (st *Table) Materialize() (*activity.Table, error) {
	dst := activity.NewTable(st.schema)
	for ci := range st.chunks {
		ch, release, err := st.PinChunk(ci)
		if err != nil {
			return nil, err
		}
		for r := 0; r < ch.NumUsers(); r++ {
			gid, first, n := ch.UserRun(r)
			st.appendRows(dst, ch, gid, first, first+n)
		}
		release()
	}
	// Chunks preserve the (Au, At, Ae) build order, so the decoded rows are
	// already sorted; verify in one linear pass instead of re-sorting. A
	// sealed table satisfies the primary-key constraint by construction, so
	// a violation here means corrupted chunk state.
	if err := dst.AssertSortedByPK(); err != nil {
		panic("storage: materialized table violates primary key: " + err.Error())
	}
	return dst, nil
}

// MaterializeChunk decodes chunk i back into a sorted activity table — the
// chunk-granular counterpart of Materialize, used by the compactor to merge
// delta rows into only the chunks that own their users.
func (st *Table) MaterializeChunk(i int) (*activity.Table, error) {
	dst := activity.NewTable(st.schema)
	ch, release, err := st.PinChunk(i)
	if err != nil {
		return nil, err
	}
	defer release()
	dst.Grow(ch.NumRows())
	for r := 0; r < ch.NumUsers(); r++ {
		gid, first, n := ch.UserRun(r)
		st.appendRows(dst, ch, gid, first, first+n)
	}
	if err := dst.AssertSortedByPK(); err != nil {
		panic("storage: materialized chunk violates primary key: " + err.Error())
	}
	return dst, nil
}

// ChunkUserRange returns the first and last user (by value) of chunk i —
// the per-chunk user range that routes delta rows to their owning chunk and
// is recorded in the manifest — without touching the chunk.
func (st *Table) ChunkUserRange(i int) (first, last string) {
	m := &st.metas[i]
	return m.minUser, m.maxUser
}

// appendRows decodes chunk-local rows [first, end) of one user block.
func (st *Table) appendRows(dst *activity.Table, ch *Chunk, gid uint64, first, end int) {
	schema := st.schema
	userCol := schema.UserCol()
	user := st.UserString(ch, gid)
	strs := make([]string, schema.NumCols())
	ints := make([]int64, schema.NumCols())
	for row := first; row < end; row++ {
		for c := 0; c < schema.NumCols(); c++ {
			switch {
			case c == userCol:
				strs[c] = user
			case schema.IsStringCol(c):
				strs[c] = st.dicts[c].Value(ch.StringID(c, row))
			default:
				ints[c] = ch.Int(c, row)
			}
		}
		dst.AppendRow(strs, ints)
	}
}

// HasTuple reports whether the user block at loc contains a tuple with the
// given timestamp and action global-id — the sealed side of the primary-key
// check the ingest path runs before admitting a new row.
func (st *Table) HasTuple(loc UserLoc, ts int64, actionGID uint64) (bool, error) {
	ch, release, err := st.PinChunk(loc.Chunk)
	if err != nil {
		return false, err
	}
	defer release()
	_, first, n := ch.UserRun(loc.Run)
	timeCol, actionCol := st.schema.TimeCol(), st.schema.ActionCol()
	for row := first; row < first+n; row++ {
		t := ch.Int(timeCol, row)
		if t > ts {
			return false, nil // block is time-ordered: no later match possible
		}
		if t == ts && ch.StringID(actionCol, row) == actionGID {
			return true, nil
		}
	}
	return false, nil
}
