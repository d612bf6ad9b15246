package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/storage"
)

// writeFixture compresses a synthetic workload into dir/name.cohana and
// returns the table.
func writeFixture(t *testing.T, dir, name string) *storage.Table {
	t.Helper()
	tbl := gen.Generate(gen.Config{Users: 100, Days: 15, MeanActions: 15, Seed: 11})
	st, err := storage.Build(tbl, storage.Options{ChunkSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumChunks() < 4 {
		t.Fatalf("fixture has %d chunks, want >= 4 to exercise the fan-out", st.NumChunks())
	}
	if err := st.WriteFile(filepath.Join(dir, name+TableExt)); err != nil {
		t.Fatal(err)
	}
	return st
}

const fixtureQuery = `
	SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent, UserCount()
	FROM GameActions
	BIRTH FROM action = "launch"
	AGE ACTIVITIES IN action = "shop"
	COHORT BY country`

func newTestServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.DataDir = dir
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postQuery(t *testing.T, url, table, query string) (*http.Response, string, queryResponse) {
	t.Helper()
	body, err := json.Marshal(queryRequest{Table: table, Query: query})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var qr queryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &qr); err != nil {
			t.Fatalf("unmarshaling response %q: %v", data, err)
		}
	}
	return resp, string(data), qr
}

func TestCatalogLazyLoadListAndReload(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "game")
	cat := NewCatalogWith(dir, CatalogConfig{})
	defer cat.Close()

	// Listed but not loaded before first use.
	infos, err := cat.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "game" || infos[0].Loaded {
		t.Fatalf("fresh catalog list = %+v, want one unloaded 'game'", infos)
	}

	tbl, _, err := cat.Get("game")
	if err != nil {
		t.Fatal(err)
	}
	gen1 := tbl.Gen()
	if gen1 != 1 || tbl.Stats().SealedRows == 0 {
		t.Fatalf("first load: gen=%d rows=%d", gen1, tbl.Stats().SealedRows)
	}
	// Shared, not re-read: same pointer and generation on the second Get.
	tbl2, _, err := cat.Get("game")
	if err != nil {
		t.Fatal(err)
	}
	if gen2 := tbl2.Gen(); tbl2 != tbl || gen2 != gen1 {
		t.Fatalf("second Get reloaded: gen %d -> %d, same pointer %v", gen1, gen2, tbl2 == tbl)
	}
	info, err := cat.Info("game")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Loaded || info.Rows != tbl.Stats().SealedRows || len(info.Columns) == 0 {
		t.Fatalf("info after load = %+v", info)
	}

	// Reload replaces the shared table and bumps the generation.
	tbl3, err := cat.Reload("game")
	if err != nil {
		t.Fatal(err)
	}
	if gen3 := tbl3.Gen(); tbl3 == tbl || gen3 != gen1+1 {
		t.Fatalf("reload: gen %d -> %d, fresh pointer %v", gen1, gen3, tbl3 != tbl)
	}

	// Unknown and malicious names 404.
	if _, _, err := cat.Get("nope"); !errors.As(err, &ErrUnknownTable{}) {
		t.Fatalf("Get(nope) error = %v, want ErrUnknownTable", err)
	}
	for _, bad := range []string{"", ".", "..", "a/b", `a\b`} {
		if _, _, err := cat.Get(bad); !errors.As(err, &ErrUnknownTable{}) {
			t.Errorf("Get(%q) error = %v, want ErrUnknownTable", bad, err)
		}
	}
}

func TestCatalogConcurrentFirstLoad(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "game")
	cat := NewCatalogWith(dir, CatalogConfig{})
	defer cat.Close()
	var wg sync.WaitGroup
	tables := make([]*ingest.Table, 16)
	for i := range tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tbl, _, err := cat.Get("game")
			if err != nil {
				t.Error(err)
				return
			}
			tables[i] = tbl
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(tables); i++ {
		if tables[i] != tables[0] {
			t.Fatalf("concurrent first loads produced distinct tables (single-flight broken)")
		}
	}
}

func TestResultCacheLRUAndInvalidation(t *testing.T) {
	c := NewResultCache(2)
	c.Put("t", "g1", "q1", []byte("r1"))
	c.Put("t", "g1", "q2", []byte("r2"))
	if got, ok := c.Get("t", "g1", "q1"); !ok || string(got) != "r1" {
		t.Fatalf("Get(q1) = %q, %v", got, ok)
	}
	// q2 is now least recently used; adding q3 evicts it.
	c.Put("t", "g1", "q3", []byte("r3"))
	if _, ok := c.Get("t", "g1", "q2"); ok {
		t.Fatal("q2 survived eviction past capacity")
	}
	if _, ok := c.Get("t", "g1", "q1"); !ok {
		t.Fatal("recently used q1 was evicted")
	}
	// A new fingerprint misses even for the same query text.
	if _, ok := c.Get("t", "g2", "q1"); ok {
		t.Fatal("stale fingerprint served from cache")
	}
	if n := c.InvalidateTable("t"); n != 2 {
		t.Fatalf("InvalidateTable removed %d entries, want 2", n)
	}
	if st := c.Stats(); st.Entries != 0 || st.Evictions != 1 {
		t.Fatalf("stats after invalidation = %+v", st)
	}

	off := NewResultCache(0)
	off.Put("t", "g1", "q", []byte("r"))
	if _, ok := off.Get("t", "g1", "q"); ok {
		t.Fatal("disabled cache returned a hit")
	}
}

func TestResultCachePutOnRepeat(t *testing.T) {
	c := NewResultCache(2)
	c.PutOnRepeat("t", "g1", "q1", []byte("r1"))
	if _, ok := c.Get("t", "g1", "q1"); ok {
		t.Fatal("a key offered once was stored")
	}
	c.PutOnRepeat("t", "g1", "q1", []byte("r1"))
	if got, ok := c.Get("t", "g1", "q1"); !ok || string(got) != "r1" {
		t.Fatalf("Get(q1) after a repeat = %q, %v", got, ok)
	}
	// An offer under another fingerprint is a first offer of a new key.
	c.PutOnRepeat("t", "g2", "q1", []byte("r1'"))
	if _, ok := c.Get("t", "g2", "q1"); ok {
		t.Fatal("a new fingerprint was stored on its first offer")
	}
	// The remembered offers are bounded by the capacity: filling the set
	// forgets every earlier offer.
	c.PutOnRepeat("t", "g2", "q2", []byte("r2"))
	c.PutOnRepeat("t", "g2", "q3", []byte("r3"))
	c.PutOnRepeat("t", "g2", "q1", []byte("r1'"))
	if _, ok := c.Get("t", "g2", "q1"); ok {
		t.Fatal("an offer survived the offered set's reset")
	}
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 entry", st)
	}

	off := NewResultCache(0)
	off.PutOnRepeat("t", "g1", "q", []byte("r"))
	off.PutOnRepeat("t", "g1", "q", []byte("r"))
	if _, ok := off.Get("t", "g1", "q"); ok {
		t.Fatal("disabled cache returned a hit")
	}
}

func TestNormalizeQueryPreservesLiterals(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT  country \n FROM  t", "SELECT country FROM t"},
		{`BIRTH FROM country = "US  East"`, `BIRTH FROM country = "US  East"`},
		{"a = 'x\t y'  AND  b", "a = 'x\t y' AND b"},
		{`a = "he said \" hi  \" ok"`, `a = "he said \" hi  \" ok"`},
		{"  leading and trailing  ", "leading and trailing"},
		{`a = "unterminated   lit`, `a = "unterminated   lit`},
	}
	for _, c := range cases {
		if got := NormalizeQuery(c.in); got != c.want {
			t.Errorf("NormalizeQuery(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// The collision that must not happen: distinct literals stay distinct.
	a := NormalizeQuery(`... country = "US  East" ...`)
	b := NormalizeQuery(`... country = "US East" ...`)
	if a == b {
		t.Fatal("queries with different string literals normalized to one cache key")
	}
}

func TestCatalogUnknownNamesDoNotAccumulate(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "game")
	cat := NewCatalogWith(dir, CatalogConfig{})
	defer cat.Close()
	for i := 0; i < 50; i++ {
		if _, _, err := cat.Get(fmt.Sprintf("ghost-%d", i)); err == nil {
			t.Fatal("Get of a nonexistent table succeeded")
		}
	}
	if _, _, err := cat.Get("game"); err != nil {
		t.Fatal(err)
	}
	cat.mu.Lock()
	n := len(cat.entries)
	cat.mu.Unlock()
	if n != 1 {
		t.Fatalf("catalog holds %d entries after 50 unknown-table lookups, want 1", n)
	}
}

func TestQueryEndpoint(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "game")
	_, ts := newTestServer(t, dir, Config{Workers: 4, CacheSize: 16})

	resp, _, qr := postQuery(t, ts.URL, "game", fixtureQuery)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get(cacheStatusHeader) != "miss" {
		t.Fatalf("first query cache header = %q, want miss", resp.Header.Get(cacheStatusHeader))
	}
	if qr.NumRows == 0 || len(qr.Rows) != qr.NumRows {
		t.Fatalf("response rows = %d (numRows %d)", len(qr.Rows), qr.NumRows)
	}
	if len(qr.KeyCols) != 1 || qr.KeyCols[0] != "country" || len(qr.AggNames) != 2 {
		t.Fatalf("response header cols = %v / %v", qr.KeyCols, qr.AggNames)
	}
	for _, row := range qr.Rows {
		if row.Size <= 0 || row.Age <= 0 || len(row.Aggs) != 2 {
			t.Fatalf("malformed row %+v", row)
		}
	}
}

func TestQueryEndpointMixed(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "game")
	_, ts := newTestServer(t, dir, Config{Workers: 2, CacheSize: 16})

	mixed := `WITH cohorts AS (` + fixtureQuery + `)
		SELECT country, AGE, spent FROM cohorts ORDER BY spent DESC LIMIT 5`
	resp, _, qr := postQuery(t, ts.URL, "game", mixed)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if qr.Mixed == nil || len(qr.Mixed.Rows) == 0 || len(qr.Mixed.Rows) > 5 {
		t.Fatalf("mixed response = %+v", qr.Mixed)
	}
	if len(qr.Mixed.Cols) != 3 {
		t.Fatalf("mixed cols = %v, want 3", qr.Mixed.Cols)
	}
}

// TestConcurrentQueries is the acceptance scenario: many concurrent POST
// /query requests against one fixture table through a small shared pool,
// race-detector clean, with every response identical.
func TestConcurrentQueries(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "game")
	_, ts := newTestServer(t, dir, Config{Workers: 3, CacheSize: 0}) // cache off: every request executes

	const concurrent = 12
	bodies := make([]string, concurrent)
	statuses := make([]int, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(queryRequest{Table: "game", Query: fixtureQuery})
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			statuses[i] = resp.StatusCode
			bodies[i] = string(data)
		}(i)
	}
	wg.Wait()
	for i := 0; i < concurrent; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, statuses[i], bodies[i])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("request %d returned a different result than request 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
}

func TestCacheHitAndReloadInvalidation(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "game")
	s, ts := newTestServer(t, dir, Config{Workers: 2, CacheSize: 16})

	resp1, body1, _ := postQuery(t, ts.URL, "game", fixtureQuery)
	if got := resp1.Header.Get(cacheStatusHeader); got != "miss" {
		t.Fatalf("first query: cache %q, want miss", got)
	}
	// Same query with different whitespace: normalization makes it a hit.
	resp2, body2, _ := postQuery(t, ts.URL, "game", NormalizeQuery(fixtureQuery))
	if got := resp2.Header.Get(cacheStatusHeader); got != "hit" {
		t.Fatalf("repeat query: cache %q, want hit", got)
	}
	if body1 != body2 {
		t.Fatal("cached response differs from computed response")
	}
	if st := s.CacheStats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("cache stats after hit = %+v", st)
	}

	// Reload drops the entry; the same query misses and recomputes.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/tables/game/reload", nil)
	if err != nil {
		t.Fatal(err)
	}
	rresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var reload struct {
		Invalidated int `json:"invalidatedCacheEntries"`
	}
	if err := json.NewDecoder(rresp.Body).Decode(&reload); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK || reload.Invalidated != 1 {
		t.Fatalf("reload: status %d invalidated %d, want 200/1", rresp.StatusCode, reload.Invalidated)
	}
	resp3, body3, _ := postQuery(t, ts.URL, "game", fixtureQuery)
	if got := resp3.Header.Get(cacheStatusHeader); got != "miss" {
		t.Fatalf("post-reload query: cache %q, want miss", got)
	}
	if body1 != body3 {
		t.Fatal("reloaded table produced a different result for the same data")
	}
}

func TestTableEndpointsAndErrors(t *testing.T) {
	dir := t.TempDir()
	st := writeFixture(t, dir, "game")
	_, ts := newTestServer(t, dir, Config{Workers: 2, CacheSize: 4})

	// Health.
	hr, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hr.StatusCode)
	}

	// GET /tables/{name} loads and reports stats.
	tr, err := http.Get(ts.URL + "/v1/tables/game")
	if err != nil {
		t.Fatal(err)
	}
	var info TableInfo
	if err := json.NewDecoder(tr.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	tr.Body.Close()
	if !info.Loaded || info.Rows != st.NumRows() || info.Chunks != st.NumChunks() {
		t.Fatalf("table info = %+v, want rows=%d chunks=%d", info, st.NumRows(), st.NumChunks())
	}

	// GET /tables reflects the load.
	lr, err := http.Get(ts.URL + "/v1/tables")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Tables []TableInfo `json:"tables"`
	}
	if err := json.NewDecoder(lr.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	if len(listing.Tables) != 1 || !listing.Tables[0].Loaded {
		t.Fatalf("tables listing = %+v", listing.Tables)
	}

	// Unknown table: 404 on query and info.
	resp, _, _ := postQuery(t, ts.URL, "nope", fixtureQuery)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-table query status %d, want 404", resp.StatusCode)
	}
	nr, err := http.Get(ts.URL + "/v1/tables/nope")
	if err != nil {
		t.Fatal(err)
	}
	nr.Body.Close()
	if nr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-table info status %d, want 404", nr.StatusCode)
	}

	// Malformed query text: 400.
	resp, _, _ = postQuery(t, ts.URL, "game", "SELECT FROM WHERE")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query status %d, want 400", resp.StatusCode)
	}

	// Missing fields: 400.
	resp, _, _ = postQuery(t, ts.URL, "", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty request status %d, want 400", resp.StatusCode)
	}
}
