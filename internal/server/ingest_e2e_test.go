package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ingest"
)

// postJSON posts v and returns the status and body.
func postJSON(t *testing.T, url string, v any) (int, string) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// liveRows is a batch of fresh activity for a user no fixture contains, in a
// country no sealed dictionary holds, so freshness is unambiguous.
func liveRows(ts0 int64) []map[string]any {
	return []map[string]any{
		{"player": "live-1", "time": ts0, "action": "launch", "country": "Narnia", "city": "Cair", "role": "dwarf", "session": 3, "gold": 0},
		{"player": "live-1", "time": ts0 + 90000, "action": "shop", "country": "Narnia", "city": "Cair", "role": "dwarf", "session": 3, "gold": 55},
		{"player": "live-1", "time": ts0 + 180000, "action": "shop", "country": "Narnia", "city": "Cair", "role": "dwarf", "session": 4, "gold": 21},
	}
}

// TestTableNameWithGlobMetacharacters pins that a table whose name holds a
// glob metacharacter loads, takes an append and replays it after a restart:
// the journal's directory is listed, never used as a glob pattern.
func TestTableNameWithGlobMetacharacters(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "a[b")
	cat := NewCatalogWith(dir, CatalogConfig{CompactRows: -1})
	lt, _, err := cat.Get("a[b")
	if err != nil {
		t.Fatal(err)
	}
	var rows []ingest.Row
	for _, obj := range liveRows(1369000000) {
		r, err := ingest.ParseRow(lt.Schema(), obj)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
	}
	if err := lt.Append(rows); err != nil {
		t.Fatal(err)
	}
	cat.Close()

	cat = NewCatalogWith(dir, CatalogConfig{CompactRows: -1})
	defer cat.Close()
	lt, _, err = cat.Get("a[b")
	if err != nil {
		t.Fatal(err)
	}
	if st := lt.Stats(); st.ReplayedRows != uint64(len(rows)) || st.DeltaRows != len(rows) {
		t.Fatalf("replay after restart = %+v, want %d replayed rows", st, len(rows))
	}
}

// TestLiveIngestFreshnessCompactionAndRestart is the acceptance scenario of
// the live-ingestion subsystem: rows appended to a served table are visible
// to queries before compaction, compaction preserves the results bit for
// bit, and a catalog reload after a simulated restart replays the journal
// with no lost rows.
func TestLiveIngestFreshnessCompactionAndRestart(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "game")
	_, ts := newTestServer(t, dir, Config{Workers: 4, CacheSize: 16, CompactRows: -1})

	// Baseline result without the live rows.
	resp0, body0, _ := postQuery(t, ts.URL, "game", fixtureQuery)
	if resp0.StatusCode != http.StatusOK {
		t.Fatalf("baseline query status %d", resp0.StatusCode)
	}

	// Append a batch; the acknowledgement reports the delta.
	status, ack := postJSON(t, ts.URL+"/v1/tables/game/append", appendRequest{Rows: liveRows(1369000000)})
	if status != http.StatusOK {
		t.Fatalf("append status %d body %s", status, ack)
	}
	var ar appendResponse
	if err := json.Unmarshal([]byte(ack), &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Appended != 3 || ar.DeltaRows != 3 {
		t.Fatalf("append response = %+v", ar)
	}

	// Freshness: the same query now reflects the appended rows (a miss —
	// the append invalidated the cache and bumped the generation).
	resp1, body1, _ := postQuery(t, ts.URL, "game", fixtureQuery)
	if resp1.Header.Get(cacheStatusHeader) != "miss" {
		t.Fatalf("post-append query was a cache %s", resp1.Header.Get(cacheStatusHeader))
	}
	if body1 == body0 {
		t.Fatal("appended rows not visible before compaction")
	}
	if !strings.Contains(body1, "Narnia") {
		t.Fatalf("fresh cohort missing from result: %s", body1)
	}

	// A duplicate append is rejected with 409 and admits nothing.
	status, _ = postJSON(t, ts.URL+"/v1/tables/game/append", appendRequest{Rows: liveRows(1369000000)[:1]})
	if status != http.StatusConflict {
		t.Fatalf("duplicate append status %d, want 409", status)
	}

	// Compaction preserves results bit for bit.
	status, cbody := postJSON(t, ts.URL+"/v1/tables/game/compact", nil)
	if status != http.StatusOK {
		t.Fatalf("compact status %d body %s", status, cbody)
	}
	var cr compactResponse
	if err := json.Unmarshal([]byte(cbody), &cr); err != nil {
		t.Fatal(err)
	}
	if cr.DeltaRows != 0 || cr.Compactions != 1 {
		t.Fatalf("compact response = %+v", cr)
	}
	resp2, body2, _ := postQuery(t, ts.URL, "game", fixtureQuery)
	if resp2.Header.Get(cacheStatusHeader) != "miss" {
		t.Fatal("compaction did not invalidate the cached result")
	}
	if body2 != body1 {
		t.Fatalf("compaction changed the result:\nbefore: %s\nafter:  %s", body1, body2)
	}

	// The compacted table was persisted: the .cohana file now contains the
	// live rows, and the journal is empty.
	if fi, err := os.Stat(filepath.Join(dir, "game"+JournalExt)); err != nil || fi.Size() != 0 {
		t.Fatalf("journal after compaction: %v / %d bytes, want empty", err, fi.Size())
	}

	// More appends after compaction land in the journal...
	status, _ = postJSON(t, ts.URL+"/v1/tables/game/append", appendRequest{Rows: []map[string]any{
		{"player": "live-2", "time": 1369000500, "action": "launch", "country": "Narnia", "city": "Cair", "role": "elf", "session": 1, "gold": 0},
		{"player": "live-2", "time": 1369090500, "action": "shop", "country": "Narnia", "city": "Cair", "role": "elf", "session": 1, "gold": 8},
	}})
	if status != http.StatusOK {
		t.Fatalf("second append status %d", status)
	}
	_, body3, _ := postQuery(t, ts.URL, "game", fixtureQuery)

	// ...and survive a simulated restart: a fresh catalog over the same
	// directory replays them with no lost rows.
	cat := NewCatalogWith(dir, CatalogConfig{CompactRows: -1})
	defer cat.Close()
	lt, _, err := cat.Get("game")
	if err != nil {
		t.Fatal(err)
	}
	st := lt.Stats()
	if st.ReplayedRows != 2 || st.DeltaRows != 2 || st.ReplayDroppedRows != 0 {
		t.Fatalf("replay after restart = %+v, want 2 replayed rows", st)
	}
	// The reloaded table answers the query identically to the live server.
	srv2 := New(Config{DataDir: dir, Workers: 2, CacheSize: 4, CompactRows: -1})
	defer srv2.Close()
	rec := newLocalRequest(t, srv2, "game", fixtureQuery)
	if rec != body3 {
		t.Fatalf("restarted server answers differently:\nwant: %s\ngot:  %s", body3, rec)
	}
}

// newLocalRequest runs one query through a Server without a listener.
func newLocalRequest(t *testing.T, s *Server, table, query string) string {
	t.Helper()
	body, err := json.Marshal(queryRequest{Table: table, Query: query})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	s.ServeHTTP(rec, req)
	if rec.status != http.StatusOK {
		t.Fatalf("local query status %d body %s", rec.status, rec.body.String())
	}
	return rec.body.String()
}

// newRecorder is a minimal ResponseWriter for in-process requests.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newRecorder() *recorder               { return &recorder{header: make(http.Header), status: 200} }
func (r *recorder) Header() http.Header    { return r.header }
func (r *recorder) WriteHeader(status int) { r.status = status }
func (r *recorder) Write(p []byte) (int, error) {
	return r.body.Write(p)
}

func TestAppendValidationAndStats(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "game")
	_, ts := newTestServer(t, dir, Config{Workers: 2, CacheSize: 4, CompactRows: -1})

	// Unknown table: 404.
	status, _ := postJSON(t, ts.URL+"/v1/tables/nope/append", appendRequest{Rows: liveRows(1)})
	if status != http.StatusNotFound {
		t.Fatalf("unknown-table append status %d, want 404", status)
	}
	// Empty batch and malformed rows: 400.
	status, _ = postJSON(t, ts.URL+"/v1/tables/game/append", appendRequest{})
	if status != http.StatusBadRequest {
		t.Fatalf("empty append status %d, want 400", status)
	}
	status, body := postJSON(t, ts.URL+"/v1/tables/game/append", appendRequest{Rows: []map[string]any{{"nope": 1}}})
	if status != http.StatusBadRequest || !strings.Contains(body, "nope") {
		t.Fatalf("bad-row append status %d body %s, want 400 naming the column", status, body)
	}
	// Structurally invalid rows that pass JSON parsing (empty user, NUL in
	// action) are client errors too, not 500s.
	for _, row := range []map[string]any{
		{"player": "", "time": 1, "action": "launch", "country": "c", "city": "x", "role": "r", "session": 1, "gold": 0},
		{"player": "p", "time": 1, "action": "laun\x00ch", "country": "c", "city": "x", "role": "r", "session": 1, "gold": 0},
	} {
		status, body := postJSON(t, ts.URL+"/v1/tables/game/append", appendRequest{Rows: []map[string]any{row}})
		if status != http.StatusBadRequest {
			t.Fatalf("invalid row %v: status %d body %s, want 400", row, status, body)
		}
	}

	// A good append shows up in /stats.
	status, _ = postJSON(t, ts.URL+"/v1/tables/game/append", appendRequest{Rows: liveRows(1369000000)})
	if status != http.StatusOK {
		t.Fatalf("append status %d", status)
	}
	sr, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		AppendBatches uint64       `json:"appendBatches"`
		Ingest        IngestTotals `json:"ingest"`
	}
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if stats.AppendBatches != 1 || stats.Ingest.AppendedRows != 3 || stats.Ingest.DeltaRows != 3 {
		t.Fatalf("stats after append = %+v", stats)
	}

	// Table info reports the live delta.
	tr, err := http.Get(ts.URL + "/v1/tables/game")
	if err != nil {
		t.Fatal(err)
	}
	var info TableInfo
	if err := json.NewDecoder(tr.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	tr.Body.Close()
	if info.DeltaRows != 3 || info.JournalBytes == 0 {
		t.Fatalf("table info after append = %+v", info)
	}
}

func TestCatalogRejectsCorruptTableFile(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "game")
	// A truncated table file and a non-COHANA file.
	good, err := os.ReadFile(filepath.Join(dir, "game.cohana"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trunc.cohana"), good[:len(good)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.cohana"), []byte("not a table"), 0o644); err != nil {
		t.Fatal(err)
	}

	cat := NewCatalogWith(dir, CatalogConfig{})
	defer cat.Close()
	for _, name := range []string{"trunc", "junk"} {
		_, _, err := cat.Get(name)
		var corrupt ErrCorruptTable
		if !errors.As(err, &corrupt) {
			t.Fatalf("Get(%s) error = %v, want ErrCorruptTable", name, err)
		}
		if corrupt.File != name+TableExt {
			t.Fatalf("corrupt error names file %q, want %q", corrupt.File, name+TableExt)
		}
	}

	// Over HTTP: a clean JSON 500 naming the file, and the healthy table
	// still serves.
	_, ts := newTestServer(t, dir, Config{Workers: 2, CacheSize: 4})
	resp, body, _ := postQuery(t, ts.URL, "trunc", fixtureQuery)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("corrupt-table query status %d, want 500", resp.StatusCode)
	}
	var e errorResponse
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("corrupt-table error is not clean JSON: %q", body)
	}
	if !strings.Contains(e.Message, "trunc.cohana") {
		t.Fatalf("error %q does not name the file", e.Message)
	}
	if resp, _, _ := postQuery(t, ts.URL, "game", fixtureQuery); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy table failed next to a corrupt one: %d", resp.StatusCode)
	}
}
