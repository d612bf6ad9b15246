package cohana

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
)

func paperEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := NewEngine(PaperTable1(), Options{ChunkSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// query runs src through Engine.Query and returns the whole Output.
func query(t *testing.T, eng *Engine, src string) *Output {
	t.Helper()
	out, err := eng.Query(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestQueryExample1(t *testing.T) {
	eng := paperEngine(t)
	res := query(t, eng, `
		SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent
		FROM D
		BIRTH FROM action = "launch" AND role = "dwarf"
		AGE ACTIVITIES IN action = "shop"
		COHORT BY country`).Cohort
	if len(res.Rows) != 3 {
		t.Fatalf("rows:\n%s", res)
	}
	want := map[int64]float64{1: 50, 2: 100, 3: 50}
	for _, r := range res.Rows {
		if r.Cohort[0] != "Australia" || r.Size != 1 || r.Aggs[0] != want[r.Age] {
			t.Errorf("row %+v", r)
		}
	}
	if res.AggNames[0] != "spent" {
		t.Errorf("agg name = %q", res.AggNames[0])
	}
}

func TestQueryValidatesSelectList(t *testing.T) {
	eng := paperEngine(t)
	_, err := eng.Query(context.Background(), `SELECT role, Count() FROM D BIRTH FROM action = "launch" COHORT BY country`)
	if err == nil || !strings.Contains(err.Error(), "COHORT BY") {
		t.Errorf("select of non-cohort attribute accepted: %v", err)
	}
}

// TestQueryTellsFormsApart checks that the parse, not the caller, decides
// which Output field a text fills: exactly one, by the statement's form.
func TestQueryTellsFormsApart(t *testing.T) {
	eng := paperEngine(t)
	const cohortSrc = `SELECT country, Count() FROM D BIRTH FROM action = "launch" COHORT BY country`
	mixedSrc := "WITH c AS (" + cohortSrc + ")\n\t\tSELECT country FROM c"
	for _, c := range []struct {
		src                    string
		cohort, mixed, explain bool
	}{
		{cohortSrc, true, false, false},
		{"  with c AS (" + cohortSrc + ") SELECT country FROM c", false, true, false},
		{mixedSrc, false, true, false},
		{"EXPLAIN " + cohortSrc, false, false, true},
		{"explain analyze " + mixedSrc, false, false, true},
	} {
		out := query(t, eng, c.src)
		if (out.Cohort != nil) != c.cohort || (out.Mixed != nil) != c.mixed || (out.Explain != "") != c.explain || out.Trace != nil {
			t.Errorf("%q: cohort %v, mixed %v, explain %v, trace %v", c.src, out.Cohort != nil, out.Mixed != nil, out.Explain != "", out.Trace != nil)
		}
	}
}

func TestQueryMixed(t *testing.T) {
	eng := paperEngine(t)
	res := query(t, eng, `
		WITH cohorts AS (
			SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent
			FROM D BIRTH FROM action = "launch"
			COHORT BY country
		)
		SELECT country, AGE, spent FROM cohorts
		WHERE country IN ["Australia", "China"] AND spent > 0
		ORDER BY spent DESC LIMIT 2`).Mixed
	if len(res.Cols) != 3 || res.Cols[0] != "country" {
		t.Fatalf("cols = %v", res.Cols)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows:\n%s", res)
	}
	// Australia's age-2 bucket (100 gold) sorts first.
	if res.Rows[0][0] != "Australia" || res.Rows[0][2] != "100" {
		t.Errorf("first row = %v", res.Rows[0])
	}
	// String output is a rendered table.
	if !strings.Contains(res.String(), "spent") {
		t.Errorf("render:\n%s", res)
	}
}

func TestQueryMixedErrors(t *testing.T) {
	eng := paperEngine(t)
	cases := []string{
		// Unknown outer column.
		`WITH c AS (SELECT country, Count() FROM D BIRTH FROM action = "launch" COHORT BY country)
		 SELECT bogus FROM c`,
		// Unknown column in WHERE.
		`WITH c AS (SELECT country, Count() FROM D BIRTH FROM action = "launch" COHORT BY country)
		 SELECT country FROM c WHERE bogus = 1`,
		// Type confusion: string vs number.
		`WITH c AS (SELECT country, Count() FROM D BIRTH FROM action = "launch" COHORT BY country)
		 SELECT country FROM c WHERE country > 3`,
		// Birth() leaking into the outer query.
		`WITH c AS (SELECT country, Count() FROM D BIRTH FROM action = "launch" COHORT BY country)
		 SELECT country FROM c WHERE Birth(country) = "x"`,
	}
	for _, src := range cases {
		if _, err := eng.Query(context.Background(), src); err == nil {
			t.Errorf("accepted:\n%s", src)
		}
	}
}

func TestSaveOpen(t *testing.T) {
	eng := paperEngine(t)
	path := filepath.Join(t.TempDir(), "t.cohana")
	if err := eng.Save(context.Background(), path); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const src = `SELECT country, UserCount() FROM D BIRTH FROM action = "launch" COHORT BY country`
	a, b := query(t, eng, src).Cohort, query(t, re, src).Cohort
	if d := a.Diff(b); d != "" {
		t.Errorf("reopened engine differs: %s", d)
	}
}

func TestStats(t *testing.T) {
	eng := paperEngine(t)
	s := eng.Stats()
	if s.Rows != 10 || s.Users != 3 || s.Chunks < 1 || s.EncodedSize <= 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestNewEngineSortsUnsortedInput(t *testing.T) {
	tbl := NewActivityTable(PaperSchema())
	// Append in reverse-ish order.
	if err := tbl.Append("b", int64(100), "launch", "r", "c", int64(0)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append("a", int64(50), "launch", "r", "c", int64(0)); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(tbl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Users != 2 {
		t.Errorf("users = %d", eng.Stats().Users)
	}
}

func TestNewEngineRejectsPKViolation(t *testing.T) {
	tbl := NewActivityTable(PaperSchema())
	for i := 0; i < 2; i++ {
		if err := tbl.Append("a", int64(50), "launch", "r", "c", int64(0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewEngine(tbl, Options{}); err == nil {
		t.Error("duplicate primary key accepted")
	}
}

func TestGeneratedWorkloadEndToEnd(t *testing.T) {
	tbl := Generate(GenConfig{Users: 80, Seed: 42})
	eng, err := NewEngine(tbl, Options{ChunkSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	res := query(t, eng, `
		SELECT country, COHORTSIZE, AGE, Avg(gold)
		FROM GameActions
		BIRTH FROM action = "shop"
		AGE ACTIVITIES IN action = "shop"
		COHORT BY country`).Cohort
	if len(res.Rows) == 0 {
		t.Fatal("no rows from generated workload")
	}
	// Retention matrix via time cohorts.
	res2 := query(t, eng, `
		SELECT COHORTSIZE, AGE, UserCount()
		FROM GameActions BIRTH FROM action = "launch"
		COHORT BY time(week)`).Cohort
	m := res2.Pivot(0)
	if len(m.Cohorts) == 0 || len(m.Ages) == 0 {
		t.Fatalf("retention matrix empty:\n%s", res2)
	}
	var buf bytes.Buffer
	if err := m.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cohort") {
		t.Errorf("matrix render:\n%s", buf.String())
	}
}

// TestHugeAgeBoundMatchesUnbounded pins the age cut's arithmetic: the kernel
// ends each user's decode window at birth + bound × unit, and a bound that
// admits every age must return exactly the unbounded result — the sum
// saturates instead of wrapping into a cut before the first row.
func TestHugeAgeBoundMatchesUnbounded(t *testing.T) {
	eng, err := NewEngine(Generate(GenConfig{Users: 300, Seed: 29}), Options{ChunkSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	const sel = `SELECT country, COHORTSIZE, AGE, UserCount(), Count(), Sum(gold)
		FROM GameActions BIRTH FROM action = "launch"`
	want := query(t, eng, sel+` AGE ACTIVITIES IN action = "shop" COHORT BY country`).Cohort
	if len(want.Rows) == 0 {
		t.Fatal("fixture yields no rows")
	}
	for _, cond := range []string{
		`AGE < 200000000000000`,
		`AGE <= 9223372036854775807`,
		`AGE BETWEEN 1 AND 9223372036854775807`,
		`AGE < 106751991167301`, // birth + bound × one day passes MaxInt64
	} {
		got := query(t, eng, sel+` AGE ACTIVITIES IN action = "shop" AND `+cond+` COHORT BY country`).Cohort
		if got.String() != want.String() {
			t.Errorf("%s: %d rows, want the unbounded %d:\n%s", cond, len(got.Rows), len(want.Rows), got)
		}
	}
}
