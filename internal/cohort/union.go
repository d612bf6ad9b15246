package cohort

import (
	"fmt"

	"repro/internal/activity"
	"repro/internal/obs"
	"repro/internal/storage"
)

// This file is the union execution path for live tables: a query runs the
// chunk kernel over the sealed compressed tier and over a small encoded
// table built from the in-memory delta tier, and the partial accumulators
// merge into one always-fresh result.
//
// Correct merging hinges on the clustering property: a user's tuples must be
// aggregated by exactly one scan. Users with delta tuples may also have
// sealed tuples (an existing user kept playing), so their sealed blocks are
// materialized, combined with their delta tuples and encoded into the union
// table, while the sealed scan skips them (RunOptions.skipUsers). Every other
// sealed user is scanned where it lies. The two tables have separate
// dictionaries; cohort keys encode values, so the partials merge unchanged.

// UnionDelta is the precomputed union input of a live shard: the delta rows
// combined with the sealed blocks of every delta user, encoded as a table at
// the sealed tier's chunk size, and the sealed user gids the sealed scan must
// skip. It depends only on (sealed, delta), so the ingest layer builds it
// once per table change and shares it across all queries of that generation.
type UnionDelta struct {
	Table     *storage.Table
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
	union, err := storage.Build(combined, storage.Options{ChunkSize: tbl.ChunkSize()})
	if err != nil {
		return nil, err
	}
	return &UnionDelta{Table: union, SkipUsers: skip}, nil
}

// RunUnionAccum executes c over its sealed table unioned with delta and
// returns the merged partial accumulator, so the scatter-gather executor can
// fold several shards' partials — each a sealed tier unioned with its own
// delta — into one result. pre, when non-nil, is the cached BuildUnionDelta
// result for exactly this (sealed, delta) pair; nil computes it for this
// query.
func RunUnionAccum(c *Compiled, delta *activity.Table, pre *UnionDelta, opts RunOptions) (*Accumulator, error) {
	if delta == nil || delta.Len() == 0 {
		return runAccum(c, opts)
	}
	if pre == nil {
		var err error
		if pre, err = BuildUnionDelta(c.tbl, delta); err != nil {
			return nil, err
		}
	}
	uc, err := Compile(c.Query, pre.Table)
	if err != nil {
		return nil, err
	}
	// The union scan proceeds concurrently with the sealed chunk fan-out
	// and its partial merges in at the end. Exact integer sums make the merge
	// order unobservable (see fanOut). It runs inline on one worker,
	// never waiting on another pooled task, so it is pool-safe; the union
	// table is a few chunks at most. Its tallies land on its own "delta
	// union" span and in the delta counters: ExecStats and the shard span's
	// aggregates count the sealed tier.
	unionOpts := opts
	unionOpts.Parallelism, unionOpts.Pool, unionOpts.Stats = 1, nil, nil
	unionOpts.Trace = opts.Trace.Child("delta union")
	var unionAcc *Accumulator
	var unionErr error
	done := make(chan struct{})
	spawn(opts.Pool, func() {
		defer close(done)
		unionAcc, unionErr = runAccum(uc, unionOpts)
		unionOpts.Trace.End()
	})
	sealedOpts := opts
	sealedOpts.skipUsers = pre.SkipUsers
	acc, err := runAccum(c, sealedOpts)
	<-done
	if err == nil {
		err = unionErr
	}
	if err != nil {
		return nil, err
	}
	acc.Merge(unionAcc)
	// The union table's rows: the delta tuples plus the sealed rows of users
	// that also appear in the delta.
	rows := int64(pre.Table.NumRows())
	obs.DeltaRowsScannedTotal.Add(rows)
	opts.Trace.AddInt("delta_rows_scanned", rows)
	return acc, nil
}
