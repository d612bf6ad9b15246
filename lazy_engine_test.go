package cohana

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/activity"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/storage"
)

// rareActionTable builds a table where action "rare" occurs only among the
// first few users, so chunk pruning genuinely skips most chunks for a
// BIRTH FROM action = "rare" query.
func rareActionTable(t *testing.T, users int) *ActivityTable {
	t.Helper()
	tbl := activity.NewTable(activity.PaperSchema())
	base := int64(1368928800)
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("u%03d", u)
		for d := 0; d < 4; d++ {
			if err := tbl.Append(user, base+int64(d)*86400, "common", "dwarf", "Australia", int64(d)); err != nil {
				t.Fatal(err)
			}
		}
		if u < 3 {
			if err := tbl.Append(user, base+5*86400, "rare", "dwarf", "Australia", int64(7)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tbl.SortByPK(); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// saveRareTable commits the rare-action fixture as a 2-shard v3 manifest.
func saveRareTable(t *testing.T) string {
	t.Helper()
	eng, err := NewEngine(rareActionTable(t, 40), Options{ChunkSize: 8, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rare.cohana")
	if err := eng.Save(context.Background(), path); err != nil {
		t.Fatal(err)
	}
	return path
}

const rareQuery = `SELECT country, UserCount() FROM D BIRTH FROM action = "rare" COHORT BY country`

// TestOpenLazyExplainZeroSegmentReads pins the ISSUE's cold-start contract at
// the engine level: Open (lazy by default) plus a plain EXPLAIN answer from
// the manifest alone — zero chunk segments are read. The first real query
// then pays only for the chunks it scans.
func TestOpenLazyExplainZeroSegmentReads(t *testing.T) {
	path := saveRareTable(t)
	before := obs.SegmentReadsTotal.Value()
	eng, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	explain(t, eng, "EXPLAIN "+rareQuery)
	if got := obs.SegmentReadsTotal.Value() - before; got != 0 {
		t.Fatalf("open + EXPLAIN performed %d segment reads, want 0", got)
	}
	if _, err := eng.Query(context.Background(), rareQuery); err != nil {
		t.Fatal(err)
	}
	if got := obs.SegmentReadsTotal.Value() - before; got == 0 {
		t.Fatal("executing the query read no segments; fixture broken")
	}
}

// TestLazyQueryDecodesExactlyUnprunedChunks pins scan-proportional decoding:
// a query whose birth action lives in k of n chunks decodes exactly k
// segments, and a repeat run decodes none (cache hits).
func TestLazyQueryDecodesExactlyUnprunedChunks(t *testing.T) {
	path := saveRareTable(t)
	// A private cache: the process-wide default may already hold this
	// fixture's content-addressed segments from another test.
	st, err := storage.ReadShardedWith(path, storage.ReadOptions{Lazy: true, Cache: storage.NewChunkCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	live, err := ingest.OpenSharded(st, ingest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng := EngineForIngest(live, Options{})
	// Expected k: chunks whose manifest stats admit the "rare" action gid.
	k, n := 0, 0
	for _, v := range eng.live.Views() {
		sealed := v.Sealed
		actionCol := sealed.Schema().ActionCol()
		gid, ok := sealed.LookupString(actionCol, "rare")
		if !ok {
			t.Fatal("action \"rare\" missing from dictionary")
		}
		for ci := 0; ci < sealed.NumChunks(); ci++ {
			n++
			if sealed.ChunkMayHaveGID(ci, actionCol, gid) {
				k++
			}
		}
	}
	if k == 0 || k == n {
		t.Fatalf("fixture prunes nothing: %d of %d chunks scannable", k, n)
	}
	before := obs.SegmentReadsTotal.Value()
	if _, err := eng.Query(context.Background(), rareQuery); err != nil {
		t.Fatal(err)
	}
	if got := obs.SegmentReadsTotal.Value() - before; got != uint64(k) {
		t.Fatalf("query over %d scannable of %d chunks read %d segments, want %d", k, n, got, k)
	}
	// Second run: everything it needs is resident in the process cache.
	if _, err := eng.Query(context.Background(), rareQuery); err != nil {
		t.Fatal(err)
	}
	if got := obs.SegmentReadsTotal.Value() - before; got != uint64(k) {
		t.Fatalf("repeat query re-read segments: %d total reads, want %d", got, k)
	}
}

// TestLazyEagerQueryEquivalence runs a battery of queries through a lazy open
// of a saved table and through the eager storage.ReadSharded reference of
// the same file, and requires bit-identical results — including with a tiny
// private cache standing in for "table larger than RAM" (shards keep
// evicting each other mid-query).
func TestLazyEagerQueryEquivalence(t *testing.T) {
	tbl := Generate(GenConfig{Users: 50, Days: 10, MeanActions: 8, Seed: 123})
	eng, err := NewEngine(tbl, Options{ChunkSize: 64, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.cohana")
	if err := eng.Save(context.Background(), path); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT country, UserCount() FROM D BIRTH FROM action = "launch" COHORT BY country`,
		`SELECT role, AGE, Sum(gold), UserCount() FROM D
		   BIRTH FROM action = "launch" AND country = "China"
		   AGE ACTIVITIES IN action = "shop" COHORT BY role`,
		`SELECT country, COHORTSIZE, AGE, Count() FROM D
		   BIRTH FROM action = "shop" COHORT BY country`,
		// shop-born birth ranges: σb's time range on the birth index, built
		// afresh on every reload at budget 1.
		`SELECT country, COHORTSIZE, AGE, Count(), Avg(gold) FROM D
		   BIRTH FROM action = "shop" AND time BETWEEN "2013-05-20" AND "2013-05-26"
		   AGE ACTIVITIES IN AGE < 4 COHORT BY country`,
		`SELECT role, COHORTSIZE, AGE, UserCount() FROM D
		   BIRTH FROM action = "shop" AND time >= "2013-05-24" AND country != "China"
		   COHORT BY role`,
	}
	eagerTbl, err := storage.ReadSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	eagerLive, err := ingest.OpenSharded(eagerTbl, ingest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eager := EngineForIngest(eagerLive, Options{Parallelism: -1})
	for _, budget := range []int64{1, 0} {
		// A private cache keeps the tiny budget from leaking to other tests.
		st, err := storage.ReadShardedWith(path, storage.ReadOptions{Lazy: true, Cache: storage.NewChunkCache(budget)})
		if err != nil {
			t.Fatal(err)
		}
		live, err := ingest.OpenSharded(st, ingest.Config{})
		if err != nil {
			t.Fatal(err)
		}
		lazyEng := EngineForIngest(live, Options{Parallelism: -1})
		for qi, q := range queries {
			want, err := eager.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("query %d eager: %v", qi, err)
			}
			if len(want.Cohort.Rows) == 0 {
				t.Fatalf("query %d returns no rows: the comparison would be vacuous", qi)
			}
			got, err := lazyEng.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("query %d lazy (budget %d): %v", qi, budget, err)
			}
			if d := want.Cohort.Diff(got.Cohort); d != "" {
				t.Errorf("query %d (budget %d) lazy differs from eager:\n%s", qi, budget, d)
			}
		}
	}
}
