package cohort

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/activity"
	"repro/internal/expr"
	"repro/internal/storage"
)

// paperStore compresses the Table 1 fixture with the given chunk size.
func paperStore(t *testing.T, chunkSize int) *storage.Table {
	t.Helper()
	st, err := storage.Build(activity.PaperTable1(), storage.Options{ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func runQuery(t *testing.T, tbl *storage.Table, q *Query) *Result {
	t.Helper()
	c, err := Compile(q, tbl)
	if err != nil {
		t.Fatal(err)
	}
	acc := NewAccumulator(c.NumAggs())
	for i := 0; i < tbl.NumChunks(); i++ {
		if c.CanSkipChunk(i) {
			continue
		}
		c.runChunk(i, acc, nil)
	}
	return acc.Result(c.KeyColNames(), q.Aggs)
}

func TestAgeOf(t *testing.T) {
	day := activity.SecondsPerDay
	cases := []struct {
		ts, birth int64
		unit      Unit
		want      int64
	}{
		{1000, 1000, Day, 0},                       // birth instant
		{999, 1000, Day, -1},                       // pre-birth
		{1000 + 1, 1000, Day, 1},                   // the paper's "week 1"/1-based convention
		{1000 + int64(day) - 1, 1000, Day, 1},      // still the first day
		{1000 + int64(day), 1000, Day, 2},          // exactly one day later -> day 2 bin
		{1000 + int64(day)*7, 1000, Week, 2},       // one week later -> week 2
		{1000 + int64(day)*6, 1000, Week, 1},       // within the first week
		{1000 + int64(day)*45, 1000, Month, 2},     // second 30-day month
		{1000 + int64(day)*3 + 7200, 1000, Day, 4}, // 3d2h -> day 4
	}
	for _, c := range cases {
		if got := AgeOf(c.ts, c.birth, c.unit); got != c.want {
			t.Errorf("AgeOf(%d, %d, %s) = %d, want %d", c.ts, c.birth, c.unit, got, c.want)
		}
	}
}

func TestTimeBin(t *testing.T) {
	ts, _ := activity.ParseTime("2013/05/19:1000")
	day := TimeBinStart(ts, Day)
	if FormatTimeBin(day) != "2013-05-19" {
		t.Errorf("day bin = %s", FormatTimeBin(day))
	}
	if TimeBinStart(-1, Day) != -activity.SecondsPerDay {
		t.Errorf("pre-epoch floor = %d", TimeBinStart(-1, Day))
	}
	if TimeBinStart(0, Week) != 0 {
		t.Errorf("epoch week = %d", TimeBinStart(0, Week))
	}
}

func TestValidate(t *testing.T) {
	schema := activity.PaperSchema()
	ok := &Query{
		BirthAction: "launch",
		CohortBy:    []CohortKey{{Col: "country"}},
		Aggs:        []AggSpec{{Func: Sum, Col: "gold"}},
	}
	if err := ok.Validate(schema); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	bad := []*Query{
		{CohortBy: []CohortKey{{Col: "country"}}, Aggs: ok.Aggs},                                    // no birth action
		{BirthAction: "launch", Aggs: ok.Aggs},                                                      // no cohort by
		{BirthAction: "launch", CohortBy: []CohortKey{{Col: "bogus"}}, Aggs: ok.Aggs},               // unknown cohort attr
		{BirthAction: "launch", CohortBy: []CohortKey{{Col: "player"}}, Aggs: ok.Aggs},              // user attr in L
		{BirthAction: "launch", CohortBy: []CohortKey{{Col: "action"}}, Aggs: ok.Aggs},              // action attr in L
		{BirthAction: "launch", CohortBy: ok.CohortBy},                                              // no aggs
		{BirthAction: "launch", CohortBy: ok.CohortBy, Aggs: []AggSpec{{Func: Sum, Col: "role"}}},   // string measure
		{BirthAction: "launch", CohortBy: ok.CohortBy, Aggs: []AggSpec{{Func: Sum, Col: "time"}}},   // time measure
		{BirthAction: "launch", CohortBy: ok.CohortBy, Aggs: []AggSpec{{Func: Count, Col: "gold"}}}, // Count with arg
		{BirthAction: "launch", CohortBy: ok.CohortBy, Aggs: ok.Aggs,
			BirthCond: expr.Cmp{Op: expr.OpEq, L: expr.Birth{Name: "role"}, R: expr.Lit{Val: expr.S("dwarf")}}}, // Birth() in σb
		{BirthAction: "launch", CohortBy: ok.CohortBy, Aggs: ok.Aggs,
			BirthCond: expr.Cmp{Op: expr.OpLt, L: expr.Age{}, R: expr.Lit{Val: expr.I(3)}}}, // AGE in σb
		{BirthAction: "launch", CohortBy: ok.CohortBy, Aggs: ok.Aggs,
			AgeCond: expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "bogus"}, R: expr.Lit{Val: expr.S("x")}}}, // bad σg
	}
	for i, q := range bad {
		if err := q.Validate(schema); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}

// TestExample1 reproduces Example 1 / query Q1 of Section 3.4: birth action
// launch with birth role dwarf, shop age activities, cohort by country,
// Sum(gold). Only player 001 qualifies; gold 50/100/50 lands in day ages
// 1/2/3.
func TestExample1(t *testing.T) {
	for _, chunkSize := range []int{3, 1024} {
		tbl := paperStore(t, chunkSize)
		q := &Query{
			BirthAction: "launch",
			BirthCond:   expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "role"}, R: expr.Lit{Val: expr.S("dwarf")}},
			AgeCond:     expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "action"}, R: expr.Lit{Val: expr.S("shop")}},
			CohortBy:    []CohortKey{{Col: "country"}},
			Aggs:        []AggSpec{{Func: Sum, Col: "gold", As: "spent"}},
		}
		res := runQuery(t, tbl, q)
		if len(res.Rows) != 3 {
			t.Fatalf("chunkSize=%d: %d rows, want 3:\n%s", chunkSize, len(res.Rows), res)
		}
		wantGold := map[int64]float64{1: 50, 2: 100, 3: 50}
		for _, r := range res.Rows {
			if r.Cohort[0] != "Australia" || r.Size != 1 {
				t.Errorf("row %+v: want Australia cohort of size 1", r)
			}
			if r.Aggs[0] != wantGold[r.Age] {
				t.Errorf("age %d: gold %v, want %v", r.Age, r.Aggs[0], wantGold[r.Age])
			}
		}
	}
}

// TestCohortSizesWithoutBirthCond checks Hc: with no birth condition every
// user who launched is counted in its country cohort even if it produced no
// age tuples.
func TestCohortSizesWithoutBirthCond(t *testing.T) {
	tbl := paperStore(t, 1024)
	q := &Query{
		BirthAction: "launch",
		CohortBy:    []CohortKey{{Col: "country"}},
		Aggs:        []AggSpec{{Func: Count}},
	}
	c, err := Compile(q, tbl)
	if err != nil {
		t.Fatal(err)
	}
	acc := NewAccumulator(c.NumAggs())
	for i := 0; i < tbl.NumChunks(); i++ {
		c.runChunk(i, acc, nil)
	}
	sizes := cohortSizes(acc)
	want := map[string]int64{"Australia": 1, "United States": 1, "China": 1}
	if !reflect.DeepEqual(sizes, want) {
		t.Errorf("cohort sizes = %v, want %v", sizes, want)
	}
}

// cohortSizes returns acc's Hc table keyed by the display key.
func cohortSizes(acc *Accumulator) map[string]int64 {
	out := make(map[string]int64, len(acc.cohorts))
	for _, cs := range acc.cohorts {
		out[strings.Join(cs.display, "\x00")] = cs.size
	}
	return out
}

// TestUserCountRetention checks the Section 4.5 retention aggregate: player
// 001 has two shop tuples in distinct day-ages plus more actions; each
// (cohort, age) bucket counts the player once.
func TestUserCountRetention(t *testing.T) {
	tbl := paperStore(t, 1024)
	q := &Query{
		BirthAction: "launch",
		CohortBy:    []CohortKey{{Col: "country"}},
		Aggs:        []AggSpec{{Func: UserCount}},
	}
	res := runQuery(t, tbl, q)
	// Every bucket holds exactly one distinct user in this tiny dataset.
	for _, r := range res.Rows {
		if r.Aggs[0] != 1 {
			t.Errorf("bucket (%v, %d) UserCount = %v, want 1", r.Cohort, r.Age, r.Aggs[0])
		}
	}
	// Player 001: ages 1 (t2), 2 (t3), 3 (t4, t5 same day-age bin? t4 is
	// 52h -> age 3, t5 is 71h -> age 3): buckets 1, 2, 3.
	var auAges []int64
	for _, r := range res.Rows {
		if r.Cohort[0] == "Australia" {
			auAges = append(auAges, r.Age)
		}
	}
	if !reflect.DeepEqual(auAges, []int64{1, 2, 3}) {
		t.Errorf("Australia ages = %v, want [1 2 3]", auAges)
	}
}

// TestBirthFunctionInAgeCond reproduces the σg role=Birth(role) example of
// Section 3.3.2 via aggregation: with shop births, only tuples shopped in
// the birth role qualify.
func TestBirthFunctionInAgeCond(t *testing.T) {
	tbl := paperStore(t, 1024)
	q := &Query{
		BirthAction: "shop",
		AgeCond: expr.And{
			L: expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "action"}, R: expr.Lit{Val: expr.S("shop")}},
			R: expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "role"}, R: expr.Birth{Name: "role"}},
		},
		CohortBy: []CohortKey{{Col: "country"}},
		Aggs:     []AggSpec{{Func: Sum, Col: "gold"}, {Func: Count}},
	}
	res := runQuery(t, tbl, q)
	// Qualifying age tuples: t3 (001, dwarf shop, 100 gold, age 1) and t8
	// (002, wizard shop, 40 gold, age 2 — 26h after birth t7).
	want := []Row{
		{Cohort: []string{"Australia"}, Age: 1, Size: 1, Aggs: []float64{100, 1}},
		{Cohort: []string{"United States"}, Age: 2, Size: 1, Aggs: []float64{40, 1}},
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows:\n%s", res)
	}
	for i, w := range want {
		g := res.Rows[i]
		if !reflect.DeepEqual(g.Cohort, w.Cohort) || g.Age != w.Age || g.Size != w.Size || !reflect.DeepEqual(g.Aggs, w.Aggs) {
			t.Errorf("row %d = %+v, want %+v", i, g, w)
		}
	}
}

// TestSelectTuplesExamples replays the three worked operator examples of
// Section 3.3 at tuple granularity. Global rows 0..9 are t1..t10.
func TestSelectTuplesExamples(t *testing.T) {
	for _, chunkSize := range []int{2, 1024} {
		tbl := paperStore(t, chunkSize)
		// σb country=Australia, launch -> {t1..t5}.
		got, err := SelectTuples(tbl, "launch",
			expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "country"}, R: expr.Lit{Val: expr.S("Australia")}}, nil, Day)
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
			t.Errorf("σb example = %v, want %v", got, want)
		}
		// σg action=shop ∧ country≠China, shop -> {t2, t3, t4, t7, t8}.
		got, err = SelectTuples(tbl, "shop", nil,
			expr.And{
				L: expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "action"}, R: expr.Lit{Val: expr.S("shop")}},
				R: expr.Cmp{Op: expr.OpNe, L: expr.Col{Name: "country"}, R: expr.Lit{Val: expr.S("China")}},
			}, Day)
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{1, 2, 3, 6, 7}; !reflect.DeepEqual(got, want) {
			t.Errorf("σg example = %v, want %v", got, want)
		}
		// σg role=Birth(role), shop -> {t2, t3, t7, t8}.
		got, err = SelectTuples(tbl, "shop", nil,
			expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "role"}, R: expr.Birth{Name: "role"}}, Day)
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{1, 2, 6, 7}; !reflect.DeepEqual(got, want) {
			t.Errorf("Birth() example = %v, want %v", got, want)
		}
	}
}

func TestSelectTuplesErrors(t *testing.T) {
	tbl := paperStore(t, 1024)
	if _, err := SelectTuples(tbl, "", nil, nil, Day); err == nil {
		t.Error("empty birth action accepted")
	}
	if _, err := SelectTuples(tbl, "launch",
		expr.Cmp{Op: expr.OpEq, L: expr.Birth{Name: "role"}, R: expr.Lit{Val: expr.S("x")}}, nil, Day); err == nil {
		t.Error("Birth() in birth condition accepted")
	}
	got, err := SelectTuples(tbl, "teleport", nil, nil, Day)
	if err != nil || len(got) != 0 {
		t.Errorf("absent birth action: %v, %v", got, err)
	}
}

// TestTimeCohorts checks COHORT BY over the time attribute with week bins:
// all three players launched in the same epoch-aligned week.
func TestTimeCohorts(t *testing.T) {
	tbl := paperStore(t, 1024)
	q := &Query{
		BirthAction: "launch",
		CohortBy:    []CohortKey{{Col: "time", Bin: Week}},
		Aggs:        []AggSpec{{Func: UserCount}},
	}
	res := runQuery(t, tbl, q)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	cohorts := map[string]bool{}
	for _, r := range res.Rows {
		cohorts[r.Cohort[0]] = true
		if r.Size != 3 {
			t.Errorf("cohort size = %d, want 3 (all players born the same week)", r.Size)
		}
	}
	if len(cohorts) != 1 {
		t.Errorf("cohorts = %v, want a single week bin", cohorts)
	}
}

// TestMultiAttributeCohort cohorts by (country, role) pairs.
func TestMultiAttributeCohort(t *testing.T) {
	tbl := paperStore(t, 1024)
	q := &Query{
		BirthAction: "launch",
		CohortBy:    []CohortKey{{Col: "country"}, {Col: "role"}},
		Aggs:        []AggSpec{{Func: Count}},
	}
	res := runQuery(t, tbl, q)
	for _, r := range res.Rows {
		if len(r.Cohort) != 2 {
			t.Fatalf("cohort key arity %d", len(r.Cohort))
		}
	}
	// Player 002's cohort must be (United States, wizard).
	found := false
	for _, r := range res.Rows {
		if r.Cohort[0] == "United States" && r.Cohort[1] == "wizard" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing (United States, wizard) cohort:\n%s", res)
	}
}

func TestAggsMinMaxAvg(t *testing.T) {
	tbl := paperStore(t, 1024)
	q := &Query{
		BirthAction: "launch",
		AgeCond:     expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "action"}, R: expr.Lit{Val: expr.S("shop")}},
		CohortBy:    []CohortKey{{Col: "country"}},
		Aggs: []AggSpec{
			{Func: Min, Col: "gold"}, {Func: Max, Col: "gold"}, {Func: Avg, Col: "gold"},
		},
	}
	res := runQuery(t, tbl, q)
	// Australia (player 001): age 2 has a single 100-gold shop.
	for _, r := range res.Rows {
		if r.Cohort[0] == "Australia" && r.Age == 2 {
			if r.Aggs[0] != 100 || r.Aggs[1] != 100 || r.Aggs[2] != 100 {
				t.Errorf("age-2 aggs = %v", r.Aggs)
			}
		}
	}
}

func TestChunkPruningByBirthAction(t *testing.T) {
	tbl := paperStore(t, 3) // one player per chunk
	q := &Query{
		BirthAction: "shop",
		CohortBy:    []CohortKey{{Col: "country"}},
		Aggs:        []AggSpec{{Func: Count}},
	}
	c, err := Compile(q, tbl)
	if err != nil {
		t.Fatal(err)
	}
	// Player 003 (chunk 2) never shopped: its chunk must be pruned.
	if !c.CanSkipChunk(2) {
		t.Error("chunk without shop not pruned")
	}
	if c.CanSkipChunk(0) || c.CanSkipChunk(1) {
		t.Error("chunk with shop wrongly pruned")
	}
}

func TestChunkPruningByBirthCondRanges(t *testing.T) {
	tbl := paperStore(t, 3)
	mkQuery := func(cond expr.Expr) *Compiled {
		q := &Query{
			BirthAction: "launch",
			BirthCond:   cond,
			CohortBy:    []CohortKey{{Col: "country"}},
			Aggs:        []AggSpec{{Func: Count}},
		}
		c, err := Compile(q, tbl)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// country = China prunes the Australian and US players' chunks.
	c := mkQuery(expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "country"}, R: expr.Lit{Val: expr.S("China")}})
	if !c.CanSkipChunk(0) || !c.CanSkipChunk(1) || c.CanSkipChunk(2) {
		t.Error("string equality pruning wrong")
	}
	// country = Mars (absent everywhere) prunes all chunks.
	c = mkQuery(expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "country"}, R: expr.Lit{Val: expr.S("Mars")}})
	for i := 0; i < 3; i++ {
		if !c.CanSkipChunk(i) {
			t.Errorf("chunk %d not pruned for absent value", i)
		}
	}
	// IN over absent values prunes; IN including a present value does not.
	c = mkQuery(expr.In{L: expr.Col{Name: "country"}, List: []expr.Value{expr.S("Mars"), expr.S("Venus")}})
	if !c.CanSkipChunk(0) {
		t.Error("IN pruning failed")
	}
	c = mkQuery(expr.In{L: expr.Col{Name: "country"}, List: []expr.Value{expr.S("Mars"), expr.S("Australia")}})
	if c.CanSkipChunk(0) {
		t.Error("IN with present member wrongly pruned")
	}
	// time BETWEEN outside the chunk's range prunes.
	c = mkQuery(expr.Between{L: expr.Col{Name: "time"}, Lo: expr.S("2014-01-01"), Hi: expr.S("2014-02-01")})
	for i := 0; i < 3; i++ {
		if !c.CanSkipChunk(i) {
			t.Errorf("chunk %d not pruned by disjoint time range", i)
		}
	}
	// gold > 1000 prunes every chunk (max gold is 100).
	c = mkQuery(expr.Cmp{Op: expr.OpGt, L: expr.Col{Name: "gold"}, R: expr.Lit{Val: expr.I(1000)}})
	if !c.CanSkipChunk(0) {
		t.Error("int comparison pruning failed")
	}
	// A satisfiable condition must not prune.
	c = mkQuery(expr.Cmp{Op: expr.OpGe, L: expr.Col{Name: "gold"}, R: expr.Lit{Val: expr.I(0)}})
	if c.CanSkipChunk(0) {
		t.Error("satisfiable condition pruned")
	}
	// Age conditions must never prune: cohort sizes depend on all chunks.
	q := &Query{
		BirthAction: "launch",
		AgeCond:     expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "country"}, R: expr.Lit{Val: expr.S("Mars")}},
		CohortBy:    []CohortKey{{Col: "country"}},
		Aggs:        []AggSpec{{Func: Count}},
	}
	cc, err := Compile(q, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if cc.CanSkipChunk(0) {
		t.Error("age condition pruned a chunk")
	}
}

func TestAccumulatorMerge(t *testing.T) {
	tbl3 := paperStore(t, 3) // three chunks
	q := &Query{
		BirthAction: "launch",
		CohortBy:    []CohortKey{{Col: "country"}},
		Aggs:        []AggSpec{{Func: Sum, Col: "gold"}, {Func: UserCount}, {Func: Min, Col: "gold"}},
	}
	c, err := Compile(q, tbl3)
	if err != nil {
		t.Fatal(err)
	}
	// Serial.
	serial := NewAccumulator(c.NumAggs())
	for i := 0; i < tbl3.NumChunks(); i++ {
		c.runChunk(i, serial, nil)
	}
	// Per-chunk accumulators merged.
	merged := NewAccumulator(c.NumAggs())
	for i := 0; i < tbl3.NumChunks(); i++ {
		part := NewAccumulator(c.NumAggs())
		c.runChunk(i, part, nil)
		merged.Merge(part)
	}
	rs, rm := serial.Result(c.KeyColNames(), q.Aggs), merged.Result(c.KeyColNames(), q.Aggs)
	if d := rs.Diff(rm); d != "" {
		t.Errorf("merge mismatch: %s\nserial:\n%s\nmerged:\n%s", d, rs, rm)
	}
}

func TestResultHelpers(t *testing.T) {
	res := &Result{
		KeyCols:  []string{"country"},
		AggNames: []string{"Sum(gold)"},
		Rows: []Row{
			{Cohort: []string{"B"}, Age: 2, Size: 3, Aggs: []float64{5}},
			{Cohort: []string{"A"}, Age: 1, Size: 2, Aggs: []float64{7}},
			{Cohort: []string{"B"}, Age: 1, Size: 3, Aggs: []float64{9}},
		},
	}
	res.Sort()
	if res.Rows[0].Cohort[0] != "A" || res.Rows[1].Age != 1 || res.Rows[1].Cohort[0] != "B" {
		t.Errorf("sort order wrong: %+v", res.Rows)
	}
	s := res.String()
	if !strings.Contains(s, "COHORTSIZE") || !strings.Contains(s, "AGE") {
		t.Errorf("table rendering missing headers:\n%s", s)
	}
	m := res.Pivot(0)
	if len(m.Cohorts) != 2 || len(m.Ages) != 2 {
		t.Fatalf("pivot shape %dx%d", len(m.Cohorts), len(m.Ages))
	}
	var sb strings.Builder
	if err := m.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "A (2)") {
		t.Errorf("matrix rendering:\n%s", sb.String())
	}
}

func TestResultEqualTolerance(t *testing.T) {
	a := &Result{Rows: []Row{{Cohort: []string{"x"}, Age: 1, Size: 1, Aggs: []float64{1.0}}}}
	b := &Result{Rows: []Row{{Cohort: []string{"x"}, Age: 1, Size: 1, Aggs: []float64{1.0 + 1e-9}}}}
	if !a.Equal(b) {
		t.Error("tolerance not applied")
	}
	c := &Result{Rows: []Row{{Cohort: []string{"x"}, Age: 1, Size: 1, Aggs: []float64{2.0}}}}
	if a.Equal(c) {
		t.Error("different values considered equal")
	}
	if a.Diff(c) == "" {
		t.Error("Diff empty for different results")
	}
}
