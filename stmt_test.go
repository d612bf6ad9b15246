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
	want := query(t, eng, src).Cohort
	got := run(t, stmt, eng)
	if got.Mixed != nil || got.Explain != "" {
		t.Fatalf("plain cohort statement answered %+v", got)
	}
	if !got.Cohort.Equal(want) {
		t.Fatalf("prepared execution differs from ad-hoc:\n%s", got.Cohort.Diff(want))
	}
	// Static errors surface at Prepare, not Execute.
	if _, err := eng.Prepare(`SELECT role, Count() FROM D BIRTH FROM action = "launch" COHORT BY country`); err == nil || !strings.Contains(err.Error(), "COHORT BY") {
		t.Errorf("Prepare accepted a bad select list: %v", err)
	}
	if _, err := eng.Prepare(`SELECT nonsense`); err == nil {
		t.Error("Prepare accepted a malformed query")
	}
	// A snapshot of another table is rejected cleanly.
	other := paperEngine(t)
	if _, err := stmt.Run(context.Background(), other.Snapshot(), RunOpts{}); err == nil {
		t.Error("Run accepted a snapshot of another table")
	}
	if s := explain(t, eng, "EXPLAIN "+src); !strings.Contains(s, "Optimized plan") {
		t.Errorf("EXPLAIN of the prepared text: %q", s)
	}
}

// run executes stmt on a fresh snapshot of eng.
func run(t *testing.T, stmt *Stmt, eng *Engine) *Output {
	t.Helper()
	out, err := stmt.Run(context.Background(), eng.Snapshot(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return out
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
	query(t, eng, src)
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
	res0 := run(t, stmt, eng).Cohort
	for _, row := range [][]any{
		{"newbie", int64(1368928800), "launch", "dwarf", "Narnia", int64(0)},
		{"newbie", int64(1369015200), "shop", "dwarf", "Narnia", int64(50)},
	} {
		if err := eng.Append(row...); err != nil {
			t.Fatal(err)
		}
	}
	res1 := run(t, stmt, eng).Cohort
	if res1.Equal(res0) || !strings.Contains(res1.String(), "Narnia") {
		t.Fatalf("prepared statement blind to appends:\n%s", res1)
	}
	rebinds := eng.PlanCacheStats().Rebinds
	if err := eng.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	res2 := run(t, stmt, eng).Cohort
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
	got := run(t, stmt, eng)
	if got.Mixed == nil || got.Cohort != nil || got.Explain != "" {
		t.Fatalf("mixed statement answered %+v", got)
	}
	want := query(t, eng, src).Mixed
	if got.Mixed.String() != want.String() {
		t.Fatalf("prepared mixed result differs:\ngot:\n%s\nwant:\n%s", got.Mixed, want)
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
				if _, err := stmt.Run(ctx, eng.Snapshot(), RunOpts{}); err != nil {
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
				if err := eng.Compact(ctx); err != nil {
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
