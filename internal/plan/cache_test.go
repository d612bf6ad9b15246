package plan

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/activity"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/storage"
)

const cacheTestQuery = `SELECT country, COHORTSIZE, AGE, Sum(gold), UserCount()
	FROM D BIRTH FROM action = "launch" COHORT BY country`

// cacheTestTable seeds a live sharded table with most of a generated
// workload and returns the held-back rows, so tests can append and compact
// without ever colliding with seeded primary keys.
func cacheTestTable(t *testing.T, shards int) (*ingest.Table, []ingest.Row) {
	t.Helper()
	full := gen.Generate(gen.Config{Users: 90, Days: 14, MeanActions: 10, Seed: 29})
	if err := full.SortByPK(); err != nil {
		t.Fatal(err)
	}
	seedRows := activity.NewTable(full.Schema())
	var lateRows []ingest.Row
	for r := 0; r < full.Len(); r++ {
		if r%8 == 5 {
			lateRows = append(lateRows, rowOf(full, r))
		} else {
			seedRows.AppendRow(rowOf(full, r).Strs, rowOf(full, r).Ints)
		}
	}
	if err := seedRows.AssertSortedByPK(); err != nil {
		t.Fatal(err)
	}
	sharded, err := storage.BuildSharded(seedRows, shards, storage.Options{ChunkSize: 150})
	if err != nil {
		t.Fatal(err)
	}
	lt, err := ingest.OpenSharded(sharded, ingest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lt.Close() })
	return lt, lateRows
}

func TestPlanCacheHitMissAndRebind(t *testing.T) {
	lt, late := cacheTestTable(t, 2)
	schema := lt.Schema()
	cache := NewCache(8)

	p1, err := cache.Prepare(cacheTestQuery, schema)
	if err != nil {
		t.Fatal(err)
	}
	// Same query modulo whitespace: must normalize onto the cached plan.
	p2, err := cache.Prepare("  SELECT country,   COHORTSIZE, AGE, Sum(gold), UserCount()\n\tFROM D BIRTH FROM action = \"launch\"   COHORT BY country ", schema)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("whitespace-variant query text compiled a second plan")
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats after one miss + one hit = %+v", st)
	}

	inputs := shardInputsOf(lt.Views())
	want, err := ExecuteShards(parseQuery(t, cacheTestQuery), inputs, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExecuteCached(cache, p1, inputs, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "cached execution", got, want)
	rebinds := cache.Stats().Rebinds
	if rebinds == 0 {
		t.Fatal("first execution bound no shards")
	}
	// A repeat execution over unchanged shards re-binds nothing.
	if _, err := ExecuteCached(cache, p1, inputs, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Rebinds; got != rebinds {
		t.Fatalf("repeat execution re-bound %d shards, want 0", got-rebinds)
	}

	// Compaction installs new sealed tiers for the shards that absorbed
	// delta rows; the next execution re-binds exactly those and still
	// matches a from-scratch execution.
	if err := lt.Append(late); err != nil {
		t.Fatal(err)
	}
	if err := lt.CompactContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	inputs = shardInputsOf(lt.Views())
	want, err = ExecuteShards(parseQuery(t, cacheTestQuery), inputs, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err = ExecuteCached(cache, p1, inputs, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "post-compaction cached execution", got, want)
	after := cache.Stats()
	if after.Rebinds <= rebinds {
		t.Fatal("compaction did not force any shard re-binding")
	}
	if after.Rebinds > rebinds+uint64(len(inputs)) {
		t.Fatalf("compaction re-bound %d shards, table has %d", after.Rebinds-rebinds, len(inputs))
	}
	// The plan itself stayed cached throughout.
	if p3, err := cache.Prepare(cacheTestQuery, schema); err != nil || p3 != p1 {
		t.Fatalf("plan evicted across compaction: %v", err)
	}
}

func TestPlanCacheEvictionCapacityAndDisabled(t *testing.T) {
	lt, _ := cacheTestTable(t, 1)
	schema := lt.Schema()

	small := NewCache(1)
	if _, err := small.Prepare(cacheTestQuery, schema); err != nil {
		t.Fatal(err)
	}
	other := `SELECT role, COHORTSIZE, AGE, Count() FROM D BIRTH FROM action = "launch" COHORT BY role`
	if _, err := small.Prepare(other, schema); err != nil {
		t.Fatal(err)
	}
	if st := small.Stats(); st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("capacity-1 cache after two plans = %+v", st)
	}

	off := NewCache(-1)
	a, err := off.Prepare(cacheTestQuery, schema)
	if err != nil {
		t.Fatal(err)
	}
	b, err := off.Prepare(cacheTestQuery, schema)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("disabled cache shared a plan")
	}
	if st := off.Stats(); st.Entries != 0 {
		t.Fatalf("disabled cache retained entries: %+v", st)
	}

	if def := NewCache(0); def.Stats().Capacity != DefaultCacheSize {
		t.Fatalf("NewCache(0) capacity = %d, want %d", def.Stats().Capacity, DefaultCacheSize)
	}

	// Reset empties the cache; the next Prepare recompiles.
	small.Reset()
	if st := small.Stats(); st.Entries != 0 {
		t.Fatalf("entries after Reset = %d", st.Entries)
	}

	// Parse errors are returned, never cached.
	if _, err := small.Prepare("SELECT FROM nothing", schema); err == nil {
		t.Fatal("malformed query prepared successfully")
	}
	if st := small.Stats(); st.Entries != 0 {
		t.Fatal("a failed compilation was cached")
	}
}

// TestPlanCacheConcurrentPrepareAndExecute drives shared plans from many
// goroutines while appends and compactions change shard identity under
// them; run under -race this pins the cache's and bindings' locking.
func TestPlanCacheConcurrentPrepareAndExecute(t *testing.T) {
	lt, late := cacheTestTable(t, 2)
	schema := lt.Schema()
	cache := NewCache(8)
	queries := []string{
		cacheTestQuery,
		`SELECT role, COHORTSIZE, AGE, Count() FROM D BIRTH FROM action = "launch" COHORT BY role`,
		`SELECT country, COHORTSIZE, AGE, Avg(session) FROM D BIRTH FROM action = "shop" AGE ACTIVITIES IN AGE < 7 COHORT BY country`,
	}

	// Prepare each text once up front: two goroutines whose first Prepare of
	// a text raced would both miss, so the exact counts below need it.
	for _, src := range queries {
		if _, err := cache.Prepare(src, schema); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				src := queries[(g+i)%len(queries)]
				p, err := cache.Prepare(src, schema)
				if err != nil {
					errc <- err
					return
				}
				if _, err := ExecuteCached(cache, p, shardInputsOf(lt.Views()), ExecOptions{}); err != nil {
					errc <- fmt.Errorf("execute %q: %w", src, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			n := len(late) / 3
			if err := lt.Append(late[i*n : (i+1)*n]); err != nil {
				errc <- err
				return
			}
			if err := lt.CompactContext(context.Background()); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != uint64(len(queries)) || st.Hits != 6*10 {
		t.Fatalf("concurrent stats = %+v, want exactly %d misses and %d hits", st, len(queries), 6*10)
	}
}
