//go:build !race

package cohort

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/storage"
)

// TestRunAllocsIndependentOfChunkCount pins the served path's allocations to
// the result, not the table's layout: a pooled two-worker run folds every
// chunk into one accumulator per worker, so scanning the same rows as 37
// chunks instead of 1 may add only a few allocations per chunk (its pin and
// scratch), never a fresh partial's cohort states and buckets.
// Parallelism is 2, not -1: AllocsPerRun sets GOMAXPROCS to 1, which would
// turn -1 into a one-worker run. The file builds without -race only: the race
// runtime drops sync.Pool puts at random, so the kernel's pooled scratch is
// reallocated per chunk there.
func TestRunAllocsIndependentOfChunkCount(t *testing.T) {
	rows := gen.Generate(gen.Config{Users: 2000, Seed: 1})
	if err := rows.SortByPK(); err != nil {
		t.Fatal(err)
	}
	q := kernelTemplates()[0].q // count_full
	q.CohortBy = []CohortKey{{Col: "country"}, {Col: "role"}}
	pool := NewPool(2)
	defer pool.Close()
	opts := RunOptions{Parallelism: 2, Pool: pool}
	allocs := func(chunkSize int) (float64, int) {
		tbl, err := storage.Build(rows, storage.Options{ChunkSize: chunkSize})
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(q, tbl)
		if err != nil {
			t.Fatal(err)
		}
		mustRun(t, c, opts) // builds the birth indexes
		return testing.AllocsPerRun(20, func() {
			if _, err := Run(c, opts); err != nil {
				panic(err)
			}
		}), tbl.NumChunks()
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
