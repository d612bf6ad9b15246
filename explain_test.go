package cohana

import (
	"context"
	"strings"
	"testing"
)

// explain runs an EXPLAIN or EXPLAIN ANALYZE text and returns its plan text.
func explain(t *testing.T, eng *Engine, src string) string {
	t.Helper()
	out := query(t, eng, src)
	if out.Explain == "" || out.Cohort != nil || out.Mixed != nil {
		t.Fatalf("%q: want plan text only, got %+v", src, out)
	}
	return out.Explain
}

func TestExplainCohort(t *testing.T) {
	tbl := PaperTable1()
	eng, err := NewEngine(tbl, Options{ChunkSize: 3}) // one player per chunk
	if err != nil {
		t.Fatal(err)
	}
	out := explain(t, eng, `EXPLAIN
		SELECT country, COHORTSIZE, AGE, Avg(gold)
		FROM D
		AGE ACTIVITIES IN action = "shop"
		BIRTH FROM action = "shop" AND role = "dwarf"
		COHORT BY country`)
	for _, want := range []string{"Birth action", "shop", "Optimized plan", "BirthSelect", "AgeSelect", "TableScan", "prunable"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// Player 003 never shopped (birth-action pruning) and player 002's
	// chunk contains no dwarf role (birth-condition dictionary pruning), so
	// two of the three chunks are prunable.
	if !strings.Contains(out, "3 total, 2 prunable") {
		t.Errorf("pruning summary wrong:\n%s", out)
	}
	// In the optimized rendering the birth selection sits directly above
	// the scan (below the age selection).
	bi := strings.Index(out[strings.Index(out, "Optimized"):], "BirthSelect")
	ai := strings.Index(out[strings.Index(out, "Optimized"):], "AgeSelect")
	if bi < ai {
		t.Errorf("birth selection not pushed below age selection:\n%s", out)
	}
}

func TestExplainMixed(t *testing.T) {
	eng := paperEngine(t)
	out := explain(t, eng, `EXPLAIN
		WITH c AS (
			SELECT country, Count() FROM D BIRTH FROM action = "launch" COHORT BY country
		)
		SELECT country FROM c WHERE country = "Australia" ORDER BY country LIMIT 3`)
	for _, want := range []string{"Mixed query", "cohort sub-query first", "OuterSQL", "LIMIT 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestExplainErrors(t *testing.T) {
	eng := paperEngine(t)
	ctx := context.Background()
	if _, err := eng.Query(ctx, "EXPLAIN not a query"); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := eng.Query(ctx, `EXPLAIN SELECT bogus, Count() FROM D BIRTH FROM action = "launch" COHORT BY bogus`); err == nil {
		t.Error("invalid attribute accepted")
	}
}

// TestExplainValidatesSelectList checks that EXPLAIN rejects what running
// the statement rejects: a selected attribute outside COHORT BY, in the
// cohort form and inside a mixed query's sub-query.
func TestExplainValidatesSelectList(t *testing.T) {
	eng := paperEngine(t)
	const bad = `SELECT role, COHORTSIZE, AGE, Sum(gold) FROM D BIRTH FROM action = "launch" AGE ACTIVITIES IN action = "shop" COHORT BY country`
	for _, src := range []string{
		"EXPLAIN " + bad,
		"EXPLAIN ANALYZE " + bad,
		"EXPLAIN WITH c AS (" + bad + ") SELECT country, AGE FROM c",
		"EXPLAIN ANALYZE WITH c AS (" + bad + ") SELECT country, AGE FROM c",
	} {
		if _, err := eng.Query(context.Background(), src); err == nil || !strings.Contains(err.Error(), "not in COHORT BY") {
			t.Errorf("%q: err = %v, want the COHORT BY select-list error", src, err)
		}
	}
}
