package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/activity"
	"repro/internal/storage"
)

// The result cache contract: cached results are keyed on the table's
// generation, so any append or compaction — to any shard — changes the key, and a repeat with no state change in between hits. While
// the table holds un-compacted rows a result is stored on the first repeat
// of its key, so the repeat after that is the first hit.

// shardUser returns a user name hashing to the given shard of a 2-shard
// table.
func shardUser(t *testing.T, shard, salt int) string {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		u := fmt.Sprintf("user-%d-%d", salt, i)
		if storage.ShardOf(u, 2) == shard {
			return u
		}
	}
	t.Fatal("no user found for shard")
	return ""
}

// writeSplitFixture builds a 2-shard table whose birth actions are disjoint
// per shard: shard 0's users perform alpha-birth/alpha-age, shard 1's users
// beta-birth/beta-age — so a query over the alpha actions prunes shard 1
// entirely, and vice versa.
func writeSplitFixture(t *testing.T, dir, name string) {
	t.Helper()
	schema := activity.GameSchema()
	tbl := activity.NewTable(schema)
	for shard := 0; shard < 2; shard++ {
		birth, age := "alpha-birth", "alpha-age"
		if shard == 1 {
			birth, age = "beta-birth", "beta-age"
		}
		for u := 0; u < 12; u++ {
			user := shardUser(t, shard, u)
			base := int64(1_369_000_000 + u*1000)
			if err := tbl.Append(user, base, birth, "China", "Beijing", "mage", int64(1), int64(0)); err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= 3; k++ {
				if err := tbl.Append(user, base+int64(k)*90_000, age, "China", "Beijing", "mage", int64(1), int64(k)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := tbl.SortByPK(); err != nil {
		t.Fatal(err)
	}
	sharded, err := storage.BuildSharded(tbl, 2, storage.Options{ChunkSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteShardedFile(filepath.Join(dir, name+TableExt), sharded); err != nil {
		t.Fatal(err)
	}
}

// postRows appends rows to the table through the HTTP API.
func postRows(t *testing.T, url, table string, rows ...map[string]any) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"rows": rows})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/tables/"+table+"/append", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d", resp.StatusCode)
	}
}

// TestAppendToOtherShardKeepsCacheWarm pins that the result-cache key moves
// with every state change: an append to the shard a query never reads still
// invalidates its cached result (the key is the table generation, not a
// per-query relevance analysis), and the recomputed result is correct.
func TestAppendToOtherShardKeepsCacheWarm(t *testing.T) {
	dir := t.TempDir()
	writeSplitFixture(t, dir, "split")
	_, ts := newTestServer(t, dir, Config{Workers: 2, CacheSize: 16})

	alphaQuery := `SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent
		FROM D BIRTH FROM action = "alpha-birth"
		AGE ACTIVITIES IN action = "alpha-age"
		COHORT BY country`
	query := func(step, want string) (string, queryResponse) {
		t.Helper()
		resp, body, qr := postQuery(t, ts.URL, "split", alphaQuery)
		if got := resp.Header.Get(cacheStatusHeader); got != want {
			t.Fatalf("%s: cache %q, want %q", step, got, want)
		}
		return body, qr
	}

	body1, _ := query("first alpha query", "miss")
	if body2, _ := query("repeat with no state change", "hit"); body2 != body1 {
		t.Fatal("cached body differs from computed body")
	}

	// Append a beta row — a user owned by shard 1, an action the alpha
	// query never reads. The key still moves: miss, and the recomputed
	// result is unchanged.
	postRows(t, ts.URL, "split", map[string]any{
		"player": shardUser(t, 1, 999), "time": 2_000_000_000, "action": "beta-birth",
		"country": "China", "city": "Beijing", "role": "mage", "session": 1, "gold": 0,
	})
	if body3, _ := query("alpha query after other-shard append", "miss"); body3 != body1 {
		t.Fatal("alpha result changed after an append it cannot see")
	}
	query("repeat after other-shard append", "miss")
	query("second repeat after other-shard append", "hit")

	// An append the alpha query does see (its birth action, a shard-0
	// user): miss, and the fresh result observes the new row.
	postRows(t, ts.URL, "split", map[string]any{
		"player": shardUser(t, 0, 777), "time": 2_000_000_100, "action": "alpha-birth",
		"country": "China", "city": "Beijing", "role": "mage", "session": 1, "gold": 0,
	})
	body4, qr := query("alpha query after same-shard append", "miss")
	size := 0
	for _, row := range qr.Rows {
		if int(row.Size) > size {
			size = int(row.Size)
		}
	}
	if size != 13 {
		t.Fatalf("post-append cohort size %d, want 13 (12 sealed births + 1 delta birth)", size)
	}

	// Compaction moves rows between tiers without changing the answer, and
	// it changes the key too.
	cresp, err := http.Post(ts.URL+"/v1/tables/split/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("compact status %d", cresp.StatusCode)
	}
	if body5, _ := query("alpha query after compaction", "miss"); body5 != body4 {
		t.Fatal("alpha result changed across compaction")
	}
	query("repeat after compaction", "hit")
}

// TestIngestDoesNotFlushOtherTables pins why results over un-compacted rows
// are stored only on a repeat: a reader of a table under steady ingest asks
// for each text once per generation, and storing those results would push
// every other table's entries out of the LRU.
func TestIngestDoesNotFlushOtherTables(t *testing.T) {
	dir := t.TempDir()
	writeSplitFixture(t, dir, "dash")
	writeSplitFixture(t, dir, "live")
	_, ts := newTestServer(t, dir, Config{Workers: 2, CacheSize: 4})

	query := func(table, text, want string) {
		t.Helper()
		resp, _, _ := postQuery(t, ts.URL, table, text)
		if got := resp.Header.Get(cacheStatusHeader); got != want {
			t.Fatalf("%s: cache %q, want %q", table, got, want)
		}
	}
	dash := `SELECT country, COHORTSIZE, AGE, UserCount() FROM D BIRTH FROM action = "alpha-birth" COHORT BY country`
	query("dash", dash, "miss")
	query("dash", dash, "hit")

	for i := 0; i < 8; i++ {
		postRows(t, ts.URL, "live", map[string]any{
			"player": shardUser(t, i%2, 500+i), "time": 2_000_000_000 + i, "action": "beta-age",
			"country": "China", "city": "Beijing", "role": "mage", "session": 1, "gold": i,
		})
		for _, age := range []int{1, 2, 3} {
			query("live", fmt.Sprintf(`SELECT country, COHORTSIZE, AGE, Sum(gold) FROM D BIRTH FROM action = "beta-birth" AGE ACTIVITIES IN AGE < %d COHORT BY country`, age), "miss")
		}
	}
	query("dash", dash, "hit")

	// A text read twice in one generation is stored like any other.
	live := `SELECT country, COHORTSIZE, AGE, UserCount() FROM D BIRTH FROM action = "beta-birth" COHORT BY country`
	query("live", live, "miss")
	query("live", live, "miss")
	query("live", live, "hit")
}

// TestGenerationArithmetic pins the one table generation of a 2-shard
// table: a fresh load is 1, each acknowledged batch adds 1 whichever shards
// it spans, each compaction swap adds 1 (one per shard with delta rows),
// and a reload continues at the old generation + 1. /v1/stats and the
// cohana_table_generation gauge report the same number.
func TestGenerationArithmetic(t *testing.T) {
	dir := t.TempDir()
	writeSplitFixture(t, dir, "split")
	_, ts := newTestServer(t, dir, Config{Workers: 2, CacheSize: 16})

	post := func(path string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
	}
	batch := func(salt int) {
		t.Helper()
		var rows []map[string]any
		for shard := 0; shard < 2; shard++ {
			rows = append(rows, map[string]any{
				"player": shardUser(t, shard, salt), "time": 2_000_000_000, "action": "alpha-birth",
				"country": "China", "city": "Beijing", "role": "mage", "session": 1, "gold": 0,
			})
		}
		postRows(t, ts.URL, "split", rows...)
	}
	want := func(step string, gen uint64) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var stats struct {
			Tables []TableShards `json:"tables"`
		}
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(stats.Tables) != 1 || stats.Tables[0].Generation != gen {
			t.Fatalf("%s: /v1/stats tables %+v, want generation %d", step, stats.Tables, gen)
		}
		if g := scrapeMetrics(t, ts.URL).samples[`cohana_table_generation{table="split"}`]; g != float64(gen) {
			t.Fatalf("%s: cohana_table_generation %v, want %d", step, g, gen)
		}
	}

	postQuery(t, ts.URL, "split", `SELECT country, COHORTSIZE FROM D BIRTH FROM action = "alpha-birth" COHORT BY country`)
	want("fresh load", 1)
	batch(900)
	want("one batch over both shards", 2)
	batch(901)
	want("second batch", 3)
	post("/v1/tables/split/compact")
	want("compaction of both shards", 5)
	post("/v1/tables/split/compact")
	want("compaction of empty deltas", 5)
	post("/v1/tables/split/reload")
	want("reload", 6)
	batch(902)
	want("batch after reload", 7)
}
