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

// BenchmarkKernelTemplates runs each ad-hoc template serially over one warm
// table of a few thousand users, so a kernel change can be sized per template
// without the HTTP load test:
//
//	go test -run '^$' -bench KernelTemplates -count 5 ./internal/cohort
func BenchmarkKernelTemplates(b *testing.B) {
	full := gen.Generate(gen.Config{Users: 4000, Seed: 1})
	if err := full.SortByPK(); err != nil {
		b.Fatal(err)
	}
	tbl, err := storage.Build(full, storage.Options{ChunkSize: 32768})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range kernelTemplates() {
		c, err := Compile(tc.q, tbl)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			if _, err := Run(c, RunOptions{}); err != nil { // builds the birth index
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(c, RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
