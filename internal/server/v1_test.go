package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestV1RoutesOnly drives every endpoint through its /v1/ path and checks
// that the unversioned paths are not mounted.
func TestV1RoutesOnly(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "game")
	_, ts := newTestServer(t, dir, Config{Workers: 2, CacheSize: 8})

	get := func(path string) (*http.Response, map[string]json.RawMessage) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp, body
	}

	for _, path := range []string{"/v1/healthz", "/v1/tables", "/v1/tables/game", "/v1/stats"} {
		if resp, _ := get(path); resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
	}

	body, err := json.Marshal(queryRequest{Table: "game", Query: fixtureQuery})
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]int{"/v1/query": http.StatusOK, "/query": http.StatusNotFound} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("POST %s = %d, want %d", path, resp.StatusCode, want)
		}
	}

	// Ingestion endpoints under /v1/.
	appendBody := []byte(`{"rows": [{"player": "v1-user", "time": 1369000000, "action": "launch", "country": "Narnia", "city": "Cair", "role": "dwarf", "session": 1, "gold": 0}]}`)
	resp, err := http.Post(ts.URL+"/v1/tables/game/append", "application/json", bytes.NewReader(appendBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST /v1/tables/game/append = %d", resp.StatusCode)
	}
	for _, path := range []string{"/v1/tables/game/compact", "/v1/tables/game/reload"} {
		resp, err := http.Post(ts.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST %s = %d", path, resp.StatusCode)
		}
	}
}

// TestStructuredErrors pins the {"code", "message"} error contract, and
// nothing more, across the error classes handlers can produce.
func TestStructuredErrors(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "game")
	_, ts := newTestServer(t, dir, Config{Workers: 2, CacheSize: 8})

	post := func(path string, body []byte) (int, errorResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		var er errorResponse
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatalf("POST %s: decoding error body: %v", path, err)
		}
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Fatalf("POST %s: decoding error body: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK && len(fields) != 2 {
			t.Errorf("POST %s: error body %s has fields beyond code and message", path, raw)
		}
		return resp.StatusCode, er
	}

	queryBody := func(table, query string) []byte {
		b, err := json.Marshal(queryRequest{Table: table, Query: query})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	cases := []struct {
		name       string
		path       string
		body       []byte
		wantStatus int
		wantCode   string
	}{
		{"unknown table", "/v1/query", queryBody("ghost", fixtureQuery), http.StatusNotFound, "unknown_table"},
		{"malformed query", "/v1/query", queryBody("game", "SELECT nonsense"), http.StatusBadRequest, "bad_request"},
		{"EXPLAIN of an invalid select list", "/v1/query", queryBody("game", "EXPLAIN "+invalidSelect), http.StatusBadRequest, "bad_request"},
		{"missing fields", "/v1/query", []byte(`{}`), http.StatusBadRequest, "bad_request"},
		{"bad row", "/v1/tables/game/append", []byte(`{"rows": [{"player": ""}]}`), http.StatusBadRequest, "bad_request"},
		{"duplicate row", "/v1/tables/game/append", nil, http.StatusConflict, "duplicate_row"},
	}
	// Seed the duplicate: append once, then replay the same primary key.
	dup := []byte(`{"rows": [{"player": "dup-user", "time": 1369000000, "action": "launch", "country": "X", "city": "Y", "role": "dwarf", "session": 1, "gold": 0}]}`)
	if status, er := post("/v1/tables/game/append", dup); status != http.StatusOK {
		t.Fatalf("seeding append failed: %d %+v", status, er)
	}
	cases[5].body = dup

	for _, c := range cases {
		status, er := post(c.path, c.body)
		if status != c.wantStatus {
			t.Errorf("%s: status = %d, want %d (%+v)", c.name, status, c.wantStatus, er)
		}
		if er.Code != c.wantCode {
			t.Errorf("%s: code = %q, want %q", c.name, er.Code, c.wantCode)
		}
		if er.Message == "" {
			t.Errorf("%s: empty message", c.name)
		}
	}
}

// invalidSelect selects role, which is not a COHORT BY attribute: running it
// fails, and so must explaining it.
const invalidSelect = `SELECT role, COHORTSIZE, AGE, Sum(gold) FROM D BIRTH FROM action = "launch" AGE ACTIVITIES IN action = "shop" COHORT BY country`

// planCacheStats reads the planCache section of /v1/stats.
func planCacheStats(t *testing.T, url string) (entries int, hits, misses uint64) {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		t.Fatalf("stats content type %q", resp.Header.Get("Content-Type"))
	}
	var stats struct {
		PlanCache struct {
			Entries int    `json:"entries"`
			Hits    uint64 `json:"hits"`
			Misses  uint64 `json:"misses"`
		} `json:"planCache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	pc := stats.PlanCache
	return pc.Entries, pc.Hits, pc.Misses
}

// TestStatsReportsPlanCache checks that repeat queries surface as plan-cache
// hits in /v1/stats. The result cache is off, so every repeat reaches the
// plan cache: one miss compiles the plan, and each repeat is one hit.
func TestStatsReportsPlanCache(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "game")
	_, ts := newTestServer(t, dir, Config{Workers: 2, CacheSize: 0})

	for i := 0; i < 3; i++ {
		if resp, body, _ := postQuery(t, ts.URL, "game", fixtureQuery); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d (%s)", i, resp.StatusCode, body)
		}
	}
	if entries, hits, misses := planCacheStats(t, ts.URL); misses != 1 || hits != 2 || entries != 1 {
		t.Fatalf("planCache stats = %d entries, %d hits, %d misses; want 1, 2, 1", entries, hits, misses)
	}
}

// TestResultCacheMissPreparesOnce checks that a request missing the result
// cache prepares its text exactly once: computing the cache key consults
// no plan, so N distinct texts cost exactly N plan-cache misses and no hits.
func TestResultCacheMissPreparesOnce(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "game")
	_, ts := newTestServer(t, dir, Config{Workers: 2, CacheSize: 8})

	const n = 5
	for i := 0; i < n; i++ {
		q := fmt.Sprintf(`SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent%d FROM GameActions
			BIRTH FROM action = "launch" AGE ACTIVITIES IN action = "shop" COHORT BY country`, i)
		resp, body, _ := postQuery(t, ts.URL, "game", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d (%s)", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get(cacheStatusHeader); got != "miss" {
			t.Fatalf("query %d: cache %q, want miss", i, got)
		}
	}
	if entries, hits, misses := planCacheStats(t, ts.URL); misses != n || hits != 0 || entries != n {
		t.Fatalf("planCache stats = %d entries, %d hits, %d misses; want %d, 0, %d", entries, hits, misses, n, n)
	}
}

// TestExplainIsNeverCached checks that an EXPLAIN text, which goes through
// the result-cache lookup like any other, is never stored: its repeat is
// computed again and never answered as a hit.
func TestExplainIsNeverCached(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "game")
	s, ts := newTestServer(t, dir, Config{Workers: 2, CacheSize: 8})

	for _, src := range []string{"EXPLAIN " + fixtureQuery, "EXPLAIN ANALYZE " + fixtureQuery} {
		for i := 0; i < 2; i++ {
			resp, body, qr := postQuery(t, ts.URL, "game", src)
			if resp.StatusCode != http.StatusOK || qr.Explain == "" {
				t.Fatalf("%q #%d: status %d (%s)", src, i, resp.StatusCode, body)
			}
			if got := resp.Header.Get(cacheStatusHeader); got != "bypass" {
				t.Errorf("%q #%d: cache %q, want bypass", src, i, got)
			}
		}
	}
	if st := s.CacheStats(); st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("cache stats after EXPLAIN repeats = %+v, want no hits and no entries", st)
	}
}

// TestResultCacheHitSkipsPlanCache checks the other half of "the hit path
// never parses": result-cache hits leave the plan cache's counters alone.
func TestResultCacheHitSkipsPlanCache(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "game")
	_, ts := newTestServer(t, dir, Config{Workers: 2, CacheSize: 8})

	if resp, body, _ := postQuery(t, ts.URL, "game", fixtureQuery); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, body)
	}
	_, hits, misses := planCacheStats(t, ts.URL)
	for i := 0; i < 3; i++ {
		resp, body, _ := postQuery(t, ts.URL, "game", fixtureQuery)
		if got := resp.Header.Get(cacheStatusHeader); got != "hit" {
			t.Fatalf("repeat %d: cache %q, want hit (%s)", i, got, body)
		}
	}
	if _, h, m := planCacheStats(t, ts.URL); h != hits || m != misses {
		t.Fatalf("planCache hits/misses moved on result-cache hits: %d/%d -> %d/%d", hits, misses, h, m)
	}
}

// fillReader yields an endless run of one byte.
type fillReader byte

func (f fillReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// requireBodyTooLarge streams a JSON body of just over limit bytes — one
// string value, so nothing before the cap is malformed — to path and checks
// it is refused with 413 and the body_too_large code.
func requireBodyTooLarge(t *testing.T, path, prefix string, limit int64) {
	t.Helper()
	dir := t.TempDir()
	writeFixture(t, dir, "game")
	s, _ := newTestServer(t, dir, Config{Workers: 2, CacheSize: 8})
	body := io.MultiReader(strings.NewReader(prefix), io.LimitReader(fillReader('x'), limit), strings.NewReader(`"}]}`))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
	var er errorResponse
	if err := json.NewDecoder(rec.Body).Decode(&er); err != nil {
		t.Fatalf("decoding error body: %v", err)
	}
	if rec.Code != http.StatusRequestEntityTooLarge || er.Code != "body_too_large" {
		t.Fatalf("status %d code %q, want 413 body_too_large (%s)", rec.Code, er.Code, er.Message)
	}
}

func TestQueryBodyTooLarge(t *testing.T) {
	requireBodyTooLarge(t, "/v1/query", `{"table":"game","query":"`, 1<<20)
}

func TestAppendBodyTooLarge(t *testing.T) {
	requireBodyTooLarge(t, "/v1/tables/game/append", `{"rows":[{"player":"`, 64<<20)
}
