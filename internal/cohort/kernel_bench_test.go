package cohort

import (
	"testing"

	"repro/internal/activity"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/storage"
)

// kernelTemplates are the four query shapes of the load test's ad-hoc grid
// (cmd/cohana-loadtest/queries.go) at one point of the grid each: every
// launch cohort up to an age bound (count_full), launch cohorts born in a
// week (count_born), and the same two over shop cohorts averaging gold over
// their later shop tuples (avg_full, avg_born).
func kernelTemplates() []struct {
	name string
	q    *Query
} {
	day := func(d int64) expr.Value { return expr.I(gen.StartTime + d*activity.SecondsPerDay) }
	born := expr.Between{L: expr.Col{Name: "time"}, Lo: day(5), Hi: day(12)}
	shop := expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "action"}, R: expr.Lit{Val: expr.S("shop")}}
	below := expr.Cmp{Op: expr.OpLt, L: expr.Age{}, R: expr.Lit{Val: expr.I(16)}}
	country := []CohortKey{{Col: "country"}}
	users := []AggSpec{{Func: UserCount}}
	gold := []AggSpec{{Func: Avg, Col: "gold"}}
	return []struct {
		name string
		q    *Query
	}{
		{"count_full", &Query{BirthAction: "launch", AgeCond: below, CohortBy: country, Aggs: users}},
		{"count_born", &Query{BirthAction: "launch", BirthCond: born, CohortBy: country, Aggs: users}},
		{"avg_full", &Query{BirthAction: "shop", AgeCond: expr.And{L: shop, R: below}, CohortBy: country, Aggs: gold}},
		{"avg_born", &Query{BirthAction: "shop", BirthCond: born, AgeCond: shop, CohortBy: country, Aggs: gold}},
	}
}

// BenchmarkKernelTemplates runs each ad-hoc template over one warm table of
// a few thousand users, so a kernel change can be sized per template without
// the HTTP load test:
//
//	go test -run '^$' -bench KernelTemplates -count 5 ./internal/cohort
//
// The top-level runs are serial over three chunks. The pooled group runs the
// served path's shape: two workers on a shared pool, the ad-hoc grid's
// (country, role) keys and a table of more than 30 chunks. A serial run folds
// every chunk into the one result accumulator, and three chunks leave little
// to fold, so it cannot see a cost the fan-out pays per chunk or per worker.
func BenchmarkKernelTemplates(b *testing.B) {
	full := gen.Generate(gen.Config{Users: 4000, Seed: 1})
	if err := full.SortByPK(); err != nil {
		b.Fatal(err)
	}
	build := func(chunkSize int) *storage.Table {
		tbl, err := storage.Build(full, storage.Options{ChunkSize: chunkSize})
		if err != nil {
			b.Fatal(err)
		}
		return tbl
	}
	serial, chunked := build(32768), build(2048)
	if n := chunked.NumChunks(); n < 30 {
		b.Fatalf("pooled table has %d chunks, want >= 30", n)
	}
	pool := NewPool(2)
	defer pool.Close()
	for _, tc := range kernelTemplates() {
		benchRun(b, tc.name, tc.q, serial, RunOptions{})
	}
	b.Run("pooled", func(b *testing.B) {
		for _, tc := range kernelTemplates() {
			tc.q.CohortBy = []CohortKey{{Col: "country"}, {Col: "role"}}
			benchRun(b, tc.name, tc.q, chunked, RunOptions{Parallelism: 2, Pool: pool})
		}
	})
}

// benchRun benchmarks q over tbl as sub-benchmark name, after one untimed run
// that builds the birth indexes.
func benchRun(b *testing.B, name string, q *Query, tbl *storage.Table, opts RunOptions) {
	c, err := Compile(q, tbl)
	if err != nil {
		b.Fatal(err)
	}
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		if _, err := Run(c, opts); err != nil {
			b.Fatal(err)
		}
		for b.Loop() {
			if _, err := Run(c, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
