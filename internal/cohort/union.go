package cohort

import (
	"fmt"
	"sync"

	"repro/internal/activity"
	"repro/internal/obs"
	"repro/internal/storage"
)

// This file is the union execution path for live tables: a live shard puts
// two tables on the query's schedule, its sealed compressed tier and a small
// encoded table built from the in-memory delta tier, and their chunks fold
// into the same per-worker accumulators as every other entry, for one
// always-fresh result.
//
// Correct merging hinges on the clustering property: a user's tuples must be
// aggregated by exactly one scan. Users with delta tuples may also have
// sealed tuples (an existing user kept playing), so their sealed blocks are
// materialized, combined with their delta tuples and encoded into the union
// table, while the sealed entries skip them (their skip set). Every other
// sealed user is scanned where it lies. The two tables have separate
// dictionaries; cohort keys encode values, so both fold into the same
// accumulators unchanged.

// UnionDelta is the precomputed union input of a live shard: the delta rows
// combined with the sealed blocks of every delta user, encoded as a table at
// the sealed tier's chunk size, and the sealed user gids the sealed scan must
// skip. It depends only on (sealed, delta), so the ingest layer builds it
// once per table change and shares it across all queries of that generation.
type UnionDelta struct {
	Table     *storage.Table
	SkipUsers map[uint64]bool

	// bindings caches Table's binding per plan query (the *Query a plan
	// cache keeps), so a repeated query binds it once per generation; it is
	// emptied at maxUnionBindings entries, so it cannot grow without bound.
	mu       sync.Mutex
	bindings map[*Query]*Compiled
}

const maxUnionBindings = 64

// binding returns q compiled against the union table, cached per q.
func (u *UnionDelta) binding(q *Query) (*Compiled, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if c := u.bindings[q]; c != nil {
		return c, nil
	}
	c, err := Compile(q, u.Table)
	if err != nil {
		return nil, err
	}
	if u.bindings == nil || len(u.bindings) >= maxUnionBindings {
		u.bindings = make(map[*Query]*Compiled)
	}
	u.bindings[q] = c
	return c, nil
}

// BuildUnionDelta combines delta — a sorted uncompressed activity table
// sharing tbl's schema — with the sealed blocks of its users, located via
// the table's sorted user ranges (Table.FindUser), so no side index is
// needed and an opened table loads only the chunks owning delta users.
func BuildUnionDelta(tbl *storage.Table, delta *activity.Table) (*UnionDelta, error) {
	if !delta.Sorted() {
		return nil, fmt.Errorf("cohort: delta tier must be sorted by primary key")
	}
	schema := tbl.Schema()
	combined := activity.NewTable(schema)
	skip := make(map[uint64]bool)
	strs := make([]string, schema.NumCols())
	ints := make([]int64, schema.NumCols())
	var buildErr error
	delta.UserBlocks(func(user string, start, end int) {
		if buildErr != nil {
			return
		}
		gid, loc, ok, err := tbl.FindUser(user)
		if err != nil {
			buildErr = err
			return
		}
		if ok {
			skip[gid] = true
			if err := tbl.AppendUserRows(combined, loc); err != nil {
				buildErr = err
				return
			}
		}
		for r := start; r < end; r++ {
			for c := 0; c < schema.NumCols(); c++ {
				if schema.IsStringCol(c) {
					strs[c] = delta.Strings(c)[r]
				} else {
					ints[c] = delta.Ints(c)[r]
				}
			}
			combined.AppendRow(strs, ints)
		}
	})
	if buildErr != nil {
		return nil, buildErr
	}
	// Delta tuples may predate a user's sealed tuples (late-arriving
	// events), so re-establish the (Au, At, Ae) order across both tiers.
	if err := combined.SortByPK(); err != nil {
		return nil, fmt.Errorf("cohort: sealed and delta tiers conflict: %w", err)
	}
	union, err := storage.Build(combined, storage.Options{ChunkSize: tbl.ChunkSize()})
	if err != nil {
		return nil, err
	}
	return &UnionDelta{Table: union, SkipUsers: skip}, nil
}

// AddShard appends one shard to the schedule, under a "shard i" child of
// the query's span. On a live shard (a non-empty delta) the union table's
// chunks go first, on a "delta union" child, so that a multi-chunk union
// never becomes the tail of the fan-out; then the sealed tier's chunks in
// index order, skipping the users the union table owns. c is the shard's
// sealed binding; pre, when non-nil, is the cached BuildUnionDelta result
// for exactly this (sealed, delta) pair, which also caches the union table's
// binding of c.Query, and nil builds it for this query.
// The error names the shard.
func (s *Schedule) AddShard(c *Compiled, delta *activity.Table, pre *UnionDelta) error {
	shard := s.shards
	s.shards++
	var span *obs.Span
	if s.opts.Trace != nil {
		span = s.opts.Trace.Child(fmt.Sprintf("shard %d", shard))
	}
	var skip map[uint64]bool
	if delta != nil && delta.Len() > 0 {
		if pre == nil {
			var err error
			if pre, err = BuildUnionDelta(c.tbl, delta); err != nil {
				return fmt.Errorf("shard %d: %w", shard, err)
			}
		}
		uc, err := pre.binding(c.Query)
		if err != nil {
			return fmt.Errorf("shard %d: %w", shard, err)
		}
		s.add(uc, nil, span.Child("delta union"), false)
		// The union table's rows: the delta tuples plus the sealed rows of
		// users that also appear in the delta.
		rows := int64(pre.Table.NumRows())
		obs.DeltaRowsScannedTotal.Add(rows)
		span.AddInt("delta_rows_scanned", rows)
		skip = pre.SkipUsers
	}
	s.add(c, skip, span, true)
	return nil
}
