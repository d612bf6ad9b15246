package cohana

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestPrepareExecuteMatchesQuery(t *testing.T) {
	eng := paperEngine(t)
	src := `
		SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent
		FROM D
		BIRTH FROM action = "launch" AND role = "dwarf"
		AGE ACTIVITIES IN action = "shop"
		COHORT BY country`
	stmt, err := eng.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.IsMixed() {
		t.Fatal("plain cohort statement reports mixed")
	}
	want, err := eng.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stmt.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("prepared execution differs from ad-hoc:\n%s", got.Diff(want))
	}
	// Static errors surface at Prepare, not Execute.
	if _, err := eng.Prepare(`SELECT role, Count() FROM D BIRTH FROM action = "launch" COHORT BY country`); err == nil || !strings.Contains(err.Error(), "COHORT BY") {
		t.Errorf("Prepare accepted a bad select list: %v", err)
	}
	if _, err := eng.Prepare(`SELECT nonsense`); err == nil {
		t.Error("Prepare accepted a malformed query")
	}
	// Wrong-mode executions are rejected cleanly.
	if _, err := stmt.ExecuteMixed(); err == nil {
		t.Error("ExecuteMixed accepted a plain cohort statement")
	}
	if s, err := stmt.Explain(); err != nil || s == "" {
		t.Errorf("Explain: %q, %v", s, err)
	}
}

func TestPrepareSharesThePlanCache(t *testing.T) {
	eng := paperEngine(t)
	src := `SELECT country, COHORTSIZE, AGE, Sum(gold) FROM D BIRTH FROM action = "launch" COHORT BY country`
	if _, err := eng.Prepare(src); err != nil {
		t.Fatal(err)
	}
	st := eng.PlanCacheStats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats after first Prepare = %+v", st)
	}
	// Re-preparing (any whitespace variant) and ad-hoc Query of the same
	// text both hit the cached plan.
	if _, err := eng.Prepare("  " + src + "\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(src); err != nil {
		t.Fatal(err)
	}
	st = eng.PlanCacheStats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats after hitting Prepare + Query = %+v", st)
	}
}

func TestPreparedStatementSeesAppendsAndCompaction(t *testing.T) {
	eng := paperEngine(t)
	src := `SELECT country, COHORTSIZE, AGE, Sum(gold) FROM D BIRTH FROM action = "launch" COHORT BY country`
	stmt, err := eng.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	res0, err := stmt.Execute()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]any{
		{"newbie", int64(1368928800), "launch", "dwarf", "Narnia", int64(0)},
		{"newbie", int64(1369015200), "shop", "dwarf", "Narnia", int64(50)},
	} {
		if err := eng.Append(row...); err != nil {
			t.Fatal(err)
		}
	}
	res1, err := stmt.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res1.Equal(res0) || !strings.Contains(res1.String(), "Narnia") {
		t.Fatalf("prepared statement blind to appends:\n%s", res1)
	}
	rebinds := eng.PlanCacheStats().Rebinds
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	res2, err := stmt.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Equal(res1) {
		t.Fatalf("compaction changed the prepared statement's result:\n%s", res2.Diff(res1))
	}
	if after := eng.PlanCacheStats().Rebinds; after <= rebinds {
		t.Fatal("compaction did not re-bind the prepared plan's shard")
	}
}

func TestPrepareMixedStatement(t *testing.T) {
	eng := paperEngine(t)
	src := `WITH c AS (SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent
		FROM D BIRTH FROM action = "launch" COHORT BY country)
		SELECT country, spent FROM c WHERE spent > 0 ORDER BY spent DESC`
	stmt, err := eng.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.IsMixed() {
		t.Fatal("mixed statement not detected")
	}
	if _, err := stmt.Execute(); err == nil {
		t.Error("Execute accepted a mixed statement")
	}
	want, err := eng.QueryMixed(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stmt.ExecuteMixed()
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("prepared mixed result differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestConcurrentPrepareAndExecute hammers one engine from many goroutines —
// prepared and ad-hoc, with appends and compactions interleaved — and is
// meaningful under -race: the plan cache, shard bindings and snapshots must
// tolerate full concurrency.
func TestConcurrentPrepareAndExecute(t *testing.T) {
	eng := paperEngine(t)
	queries := []string{
		`SELECT country, COHORTSIZE, AGE, Sum(gold) FROM D BIRTH FROM action = "launch" COHORT BY country`,
		`SELECT role, COHORTSIZE, AGE, Count() FROM D BIRTH FROM action = "launch" COHORT BY role`,
	}
	// Prepare each text once up front: two goroutines whose first Prepare of
	// a text raced would both miss, so the exact counts below need it.
	for _, src := range queries {
		if _, err := eng.Prepare(src); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				src := queries[(g+i)%len(queries)]
				stmt, err := eng.Prepare(src)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := stmt.ExecuteContext(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		base := int64(1368950000)
		for i := 0; i < 10; i++ {
			if err := eng.Append("conc-user", base+int64(i)*1000, "shop", "dwarf", "Narnia", int64(i)); err != nil {
				t.Error(err)
				return
			}
			if i%4 == 3 {
				if err := eng.Compact(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	st := eng.PlanCacheStats()
	if st.Misses != uint64(len(queries)) || st.Hits != 8*20 {
		t.Fatalf("plan cache stats = %+v, want exactly %d misses and %d hits", st, len(queries), 8*20)
	}
}
