package cohort

import (
	"fmt"

	"repro/internal/activity"
	"repro/internal/obs"
	"repro/internal/storage"
)

// This file is the union execution path for live tables: a query runs over
// the sealed compressed tier through the pruned parallel chunk executor and
// over the in-memory delta tier through the row-scan executor, and the
// partial accumulators merge into one always-fresh result.
//
// Correct merging hinges on the clustering property: a user's tuples must be
// aggregated by exactly one path. Users with delta tuples may also have
// sealed tuples (an existing user kept playing), so their sealed blocks are
// materialized, combined with their delta tuples, and handed to the row path,
// while the chunk path skips them (RunOptions.SkipUsers). Every other sealed
// user stays on the fast compressed path untouched.

// UnionDelta is the precomputed row-scan input of the union path: the delta
// rows combined with the sealed blocks of every delta user, and the sealed
// user gids the chunk path must skip. It depends only on (sealed, delta), so
// the ingest layer builds it once per table change and shares it across all
// queries of that generation instead of re-materializing the overlap users'
// sealed blocks per query.
type UnionDelta struct {
	Combined  *activity.Table
	SkipUsers map[uint64]bool
}

// BuildUnionDelta combines delta — a sorted uncompressed activity table
// sharing tbl's schema — with the sealed blocks of its users, located via
// the table's sorted user ranges (Table.FindUser), so no side index is
// needed and lazy tables only load the chunks owning delta users.
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
	return &UnionDelta{Combined: combined, SkipUsers: skip}, nil
}

// RunUnionAccum executes c over its sealed table unioned with delta and
// returns the merged partial accumulator, so the scatter-gather executor can
// fold several shards' partials — each a sealed tier unioned with its own
// delta — into one result. pre, when non-nil, is the cached BuildUnionDelta
// result for exactly this (sealed, delta) pair; nil computes it for this
// query.
func RunUnionAccum(c *Compiled, rq *RowQuery, delta *activity.Table, pre *UnionDelta, opts RunOptions) (*Accumulator, error) {
	if delta == nil || delta.Len() == 0 {
		return runAccum(c, opts)
	}
	if pre == nil {
		var err error
		if pre, err = BuildUnionDelta(c.tbl, delta); err != nil {
			return nil, err
		}
	}
	runOpts := opts
	runOpts.SkipUsers = pre.SkipUsers
	// The delta row scan proceeds concurrently with the sealed chunk fan-out
	// and its partial merges in at the end. Exact integer sums make the merge
	// order unobservable (see runStreaming).
	rowAcc := NewAccumulator(c.NumAggs())
	done := make(chan struct{})
	// The delta scan is pool-safe: it folds rows into its private
	// accumulator and never waits on another pooled task.
	spawn(opts.Pool, func() {
		defer close(done)
		if !opts.cancelled() {
			scanDelta(rq, pre, rowAcc, opts.Trace)
		}
	})
	acc, err := runAccum(c, runOpts)
	<-done
	if err != nil {
		return nil, err
	}
	acc.Merge(rowAcc)
	return acc, nil
}

// scanDelta runs the union row path over the combined delta table, timing it
// under a "delta union" child of the shard's trace span. The row count is
// the combined table's length: the delta tuples plus the sealed rows of
// users that also appear in the delta.
func scanDelta(rq *RowQuery, pre *UnionDelta, acc *Accumulator, trace *obs.Span) {
	sp := trace.Child("delta union")
	rq.Scan(pre.Combined, acc)
	sp.End()
	rows := int64(pre.Combined.Len())
	sp.SetInt("rows_scanned", rows)
	obs.DeltaRowsScannedTotal.Add(rows)
	if trace != nil {
		trace.AddInt("delta_rows_scanned", rows)
	}
}
