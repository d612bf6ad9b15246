package server

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/storage"
)

// writeShardedFixture commits a 2-shard v3 manifest (segments on disk), the
// layout lazy loading serves from.
func writeShardedFixture(t *testing.T, dir, name string) {
	t.Helper()
	tbl := gen.Generate(gen.Config{Users: 100, Days: 15, MeanActions: 15, Seed: 11})
	s, err := storage.BuildSharded(tbl, 2, storage.Options{ChunkSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteShardedFile(filepath.Join(dir, name+TableExt), s); err != nil {
		t.Fatal(err)
	}
}

// TestLazySweptSegmentIsCorruptTableError is the query-path half of the
// crash-injection satellite: a segment file swept away between the manifest
// load and the first lazy touch must surface as a structured corrupt_table
// error (HTTP 500, clean JSON) — never a panic — on every query that touches
// it, while /stats keeps serving the chunk-cache budget.
func TestLazySweptSegmentIsCorruptTableError(t *testing.T) {
	dir := t.TempDir()
	writeShardedFixture(t, dir, "game")
	_, ts := newTestServer(t, dir, Config{Workers: 2, CacheSize: 4, ChunkCacheBytes: 1 << 20})

	// Load the manifest (the /tables endpoint opens the table lazily)...
	resp, err := http.Get(ts.URL + "/v1/tables/game")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table info status %d", resp.StatusCode)
	}
	// ...then sweep one chunk segment before any query touches it.
	segs, err := filepath.Glob(filepath.Join(dir, "*.cohseg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments on disk (err=%v)", err)
	}
	if err := os.Remove(segs[0]); err != nil {
		t.Fatal(err)
	}

	for attempt := 0; attempt < 2; attempt++ {
		resp, body, _ := postQuery(t, ts.URL, "game", fixtureQuery)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("attempt %d: status %d, want 500 (body %q)", attempt, resp.StatusCode, body)
		}
		var e errorResponse
		if err := json.Unmarshal([]byte(body), &e); err != nil {
			t.Fatalf("attempt %d: error is not clean JSON: %q", attempt, body)
		}
		if e.Code != "corrupt_table" {
			t.Fatalf("attempt %d: code %q, want corrupt_table", attempt, e.Code)
		}
	}

	// /stats still serves, with the configured budget visible.
	sr, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var stats struct {
		ChunkCache storage.ChunkCacheStats `json:"chunkCache"`
	}
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.ChunkCache.BudgetBytes != 1<<20 {
		t.Fatalf("chunkCache budget = %d, want %d", stats.ChunkCache.BudgetBytes, 1<<20)
	}
}

// TestLazyServerQueriesMatchEager runs the fixture query through a catalog
// under a 1-byte chunk-cache budget (every chunk evicted as soon as it is
// unpinned) and through an unbounded one (every chunk stays resident after
// its first load), requiring identical results — the serving-path property
// that eviction never changes an answer.
func TestLazyServerQueriesMatchEager(t *testing.T) {
	tinyDir, fullDir := t.TempDir(), t.TempDir()
	writeShardedFixture(t, tinyDir, "game")
	writeShardedFixture(t, fullDir, "game")
	_, tinyTS := newTestServer(t, tinyDir, Config{Workers: 2, ChunkCacheBytes: 1})
	_, fullTS := newTestServer(t, fullDir, Config{Workers: 2})

	tr, tinyBody, _ := postQuery(t, tinyTS.URL, "game", fixtureQuery)
	fr, fullBody, _ := postQuery(t, fullTS.URL, "game", fixtureQuery)
	if tr.StatusCode != http.StatusOK || fr.StatusCode != http.StatusOK {
		t.Fatalf("status budget-1=%d unbounded=%d", tr.StatusCode, fr.StatusCode)
	}
	if tinyBody != fullBody {
		t.Fatalf("budget-1 result differs from unbounded:\nbudget-1:  %s\nunbounded: %s", tinyBody, fullBody)
	}
}
