//go:build !race

package cohort

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
)

// pooledAllocs runs q over tbl on a two-worker pool once — which builds the
// birth indexes — and returns that result and the allocations of a further
// run. Parallelism is 2, not -1: AllocsPerRun sets GOMAXPROCS to 1, which
// would turn -1 into a one-worker run. The file builds without -race only:
// the race runtime drops sync.Pool puts at random, so the kernel's pooled
// scratch is reallocated per chunk there.
func pooledAllocs(t *testing.T, q *Query, tbl *storage.Table) (*Result, float64) {
	t.Helper()
	pool := NewPool(2)
	defer pool.Close()
	opts := RunOptions{Parallelism: 2, Pool: pool}
	c, err := Compile(q, tbl)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, c, opts)
	return res, testing.AllocsPerRun(20, func() {
		if _, err := Run(c, opts); err != nil {
			panic(err)
		}
	})
}

// TestRunAllocsIndependentOfChunkCount pins the served path's allocations to
// the result, not the table's layout: a pooled two-worker run folds every
// chunk into one accumulator per worker, so scanning the same rows as 37
// chunks instead of 1 may add only a few allocations per chunk (its pin and
// scratch), never a fresh partial's cohort states and buckets.
func TestRunAllocsIndependentOfChunkCount(t *testing.T) {
	rows := allocRows(t)
	q := kernelTemplates()[0].q // count_full
	q.CohortBy = []CohortKey{{Col: "country"}, {Col: "role"}}
	allocs := func(chunkSize int) (float64, int) {
		tbl, err := storage.Build(rows, storage.Options{ChunkSize: chunkSize})
		if err != nil {
			t.Fatal(err)
		}
		_, allocs := pooledAllocs(t, q, tbl)
		return allocs, tbl.NumChunks()
	}
	one, n1 := allocs(1 << 20)
	many, n := allocs(1024)
	if n1 != 1 || n < 30 {
		t.Fatalf("fixture has %d and %d chunks, want 1 and >= 30", n1, n)
	}
	if limit := one + 4*float64(n-1); many > limit {
		t.Errorf("%d chunks: %.0f allocs per run, want <= %.0f (1 chunk: %.0f, + 4 per extra chunk)", n, many, limit, one)
	}
	t.Logf("allocs per run: 1 chunk %.0f, %d chunks %.0f", one, n, many)
}

// TestRunAllocsGrowWithCohortsNotBuckets pins the accumulator's allocations
// to the result's cohorts: each cohort keeps its (age × aggregate) states in
// one array grown geometrically, and the result's rows share one aggregate
// array, so letting every cohort reach fifteen ages instead of one may add
// only a few allocations per cohort, never one per (cohort, age) bucket.
func TestRunAllocsGrowWithCohortsNotBuckets(t *testing.T) {
	tbl, err := storage.Build(allocRows(t), storage.Options{ChunkSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(ageBound int64) (allocs float64, cohorts, buckets int) {
		q := *kernelTemplates()[0].q // count_full
		q.AgeCond = expr.Cmp{Op: expr.OpLt, L: expr.Age{}, R: expr.Lit{Val: expr.I(ageBound)}}
		q.CohortBy = []CohortKey{{Col: "country"}, {Col: "role"}}
		res, allocs := pooledAllocs(t, &q, tbl)
		seen := map[string]bool{}
		for _, r := range res.Rows {
			seen[strings.Join(r.Cohort, "\x00")] = true
		}
		return allocs, len(seen), len(res.Rows)
	}
	one, c1, b1 := allocs(2)
	many, cohorts, buckets := allocs(16)
	if c1 != cohorts || buckets < 8*b1 {
		t.Fatalf("fixture: %d cohorts / %d buckets at one age, %d / %d at fifteen; want the same cohorts and >= 8x the buckets",
			c1, b1, cohorts, buckets)
	}
	if limit := one + 16*float64(cohorts); many > limit {
		t.Errorf("%d cohorts, %d buckets: %.0f allocs per run, want <= %.0f (one age: %.0f, + 16 per cohort)",
			cohorts, buckets, many, limit, one)
	}
	t.Logf("allocs per run: %d cohorts at one age %.0f, %d buckets %.0f", cohorts, one, buckets, many)
}
