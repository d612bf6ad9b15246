package plan

import (
	"strings"
	"testing"

	"repro/internal/activity"
	"repro/internal/baseline"
	"repro/internal/cohort"
	"repro/internal/expr"
	"repro/internal/relational"
	"repro/internal/storage"
)

func paperStore(t *testing.T, chunkSize int) *storage.Table {
	t.Helper()
	st, err := storage.Build(activity.PaperTable1(), storage.Options{ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func exampleQuery() *cohort.Query {
	return &cohort.Query{
		BirthAction: "launch",
		BirthCond:   expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "role"}, R: expr.Lit{Val: expr.S("dwarf")}},
		AgeCond:     expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "action"}, R: expr.Lit{Val: expr.S("shop")}},
		CohortBy:    []cohort.CohortKey{{Col: "country"}},
		Aggs:        []cohort.AggSpec{{Func: cohort.Sum, Col: "gold", As: "spent"}},
	}
}

// TestOptimizePushdown checks Equation 1: birth selections move below age
// selections regardless of the written order, and same-kind selections fuse.
func TestOptimizePushdown(t *testing.T) {
	q := exampleQuery()
	p := FromQuery(q)
	// FromQuery mirrors the clause order: age select below birth select.
	if _, ok := p[1].(AgeSelect); !ok {
		t.Fatalf("plan[1] = %T, want AgeSelect", p[1])
	}
	opt, err := Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt) != 4 {
		t.Fatalf("optimized length %d", len(opt))
	}
	if _, ok := opt[1].(BirthSelect); !ok {
		t.Errorf("optimized[1] = %T, want BirthSelect (push-down)", opt[1])
	}
	if _, ok := opt[2].(AgeSelect); !ok {
		t.Errorf("optimized[2] = %T, want AgeSelect", opt[2])
	}
}

func TestOptimizeFusesSelections(t *testing.T) {
	c1 := expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "role"}, R: expr.Lit{Val: expr.S("dwarf")}}
	c2 := expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "country"}, R: expr.Lit{Val: expr.S("Australia")}}
	p := Plan{
		Scan{},
		BirthSelect{Cond: c1},
		AgeSelect{Cond: expr.Cmp{Op: expr.OpLt, L: expr.Age{}, R: expr.Lit{Val: expr.I(5)}}},
		BirthSelect{Cond: c2},
		CohortAgg{CohortBy: []cohort.CohortKey{{Col: "country"}}, Aggs: []cohort.AggSpec{{Func: cohort.Count}}},
	}
	opt, err := Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt) != 4 {
		t.Fatalf("optimized = %d ops, want 4 (fused)", len(opt))
	}
	bs := opt[1].(BirthSelect)
	if !strings.Contains(bs.Cond.String(), "dwarf") || !strings.Contains(bs.Cond.String(), "Australia") {
		t.Errorf("fused birth cond = %s", bs.Cond)
	}
}

func TestOptimizeRejectsMalformedPlans(t *testing.T) {
	agg := CohortAgg{CohortBy: []cohort.CohortKey{{Col: "country"}}, Aggs: []cohort.AggSpec{{Func: cohort.Count}}}
	cases := []Plan{
		{},
		{Scan{}},
		{agg, Scan{}},         // wrong order
		{Scan{}, Scan{}, agg}, // scan in the middle
		{Scan{}, agg, agg},    // agg in the middle
	}
	for i, p := range cases {
		if _, err := Optimize(p); err == nil {
			t.Errorf("malformed plan %d accepted", i)
		}
	}
}

func TestDescribe(t *testing.T) {
	p := FromQuery(exampleQuery())
	opt, err := Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	d := Describe(opt)
	// Figure 5 shape: aggregation on top, then age select, then birth
	// select, then scan.
	wantOrder := []string{"CohortAgg", "AgeSelect", "BirthSelect", "TableScan"}
	pos := -1
	for _, w := range wantOrder {
		p := strings.Index(d, w)
		if p < 0 {
			t.Fatalf("Describe missing %s:\n%s", w, d)
		}
		if p < pos {
			t.Fatalf("Describe order wrong:\n%s", d)
		}
		pos = p
	}
	// Note: Describe prints bottom-up plans top-down, so BirthSelect
	// appears *below* AgeSelect in the rendered tree, matching Figure 5.
}

func TestExecuteExample1(t *testing.T) {
	for _, par := range []int{0, 4, -1} {
		tbl := paperStore(t, 3)
		res, err := Execute(exampleQuery(), tbl, ExecOptions{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 3 {
			t.Fatalf("parallelism %d: rows=%d\n%s", par, len(res.Rows), res)
		}
		wantGold := map[int64]float64{1: 50, 2: 100, 3: 50}
		for _, r := range res.Rows {
			if r.Cohort[0] != "Australia" || r.Size != 1 || r.Aggs[0] != wantGold[r.Age] {
				t.Errorf("parallelism %d: row %+v", par, r)
			}
		}
	}
}

// rowReference is the executor's oracle: the paper's SQL approach (Figure 2)
// over the rows as a plain relational table, with no chunks, no pruning and
// no encoded-domain evaluation.
func rowReference(t testing.TB, q *cohort.Query, rows *activity.Table) *cohort.Result {
	t.Helper()
	res, err := baseline.SQLApproach(relational.ColEngine{}, baseline.FromActivity(rows), rows.Schema(), q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustMaterialize decodes tbl back to its sorted rows.
func mustMaterialize(t *testing.T, tbl *storage.Table) *activity.Table {
	t.Helper()
	rows, err := tbl.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestExecuteWithPruningDisabledMatches(t *testing.T) {
	tbl := paperStore(t, 2)
	q := exampleQuery()
	if n, err := prunedChunks(q, tbl); err != nil || n == 0 {
		t.Fatalf("fixture prunes %d chunks (err %v), want some", n, err)
	}
	got, err := Execute(q, tbl, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "pruned vs row reference", got, rowReference(t, q, mustMaterialize(t, tbl)))
}

func TestExecuteAbsentBirthAction(t *testing.T) {
	tbl := paperStore(t, 1024)
	q := exampleQuery()
	q.BirthAction = "teleport"
	res, err := Execute(q, tbl, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("absent birth action produced rows:\n%s", res)
	}
}

func TestExecuteInvalidQuery(t *testing.T) {
	tbl := paperStore(t, 1024)
	q := exampleQuery()
	q.CohortBy = nil
	if _, err := Execute(q, tbl, ExecOptions{}); err == nil {
		t.Error("invalid query executed")
	}
}

func TestPrunedChunks(t *testing.T) {
	tbl := paperStore(t, 3)
	q := &cohort.Query{
		BirthAction: "shop",
		CohortBy:    []cohort.CohortKey{{Col: "country"}},
		Aggs:        []cohort.AggSpec{{Func: cohort.Count}},
	}
	n, err := prunedChunks(q, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 { // player 003 never shopped
		t.Errorf("pruned %d chunks, want 1", n)
	}
}

// prunedChunks reports how many chunks pruning would skip for q.
func prunedChunks(q *cohort.Query, tbl *storage.Table) (int, error) {
	skip, err := PruneMap(q, tbl)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, s := range skip {
		if s {
			n++
		}
	}
	return n, nil
}
