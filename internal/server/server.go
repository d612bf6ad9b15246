package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cohort"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Config sizes a Server.
type Config struct {
	// DataDir is the directory of .cohana table files.
	DataDir string
	// Workers bounds total chunk-scan concurrency across all in-flight
	// queries; <= 0 selects GOMAXPROCS.
	Workers int
	// CacheSize is the result cache capacity in entries; <= 0 disables
	// the cache.
	CacheSize int
	// PlanCacheSize is each table's compiled-plan cache capacity in plans;
	// 0 selects plan.DefaultCacheSize, negative disables plan caching.
	PlanCacheSize int
	// CompactRows is the per-shard delta row count that triggers background
	// compaction of a table; 0 selects ingest.DefaultAutoCompactRows,
	// negative disables automatic compaction (POST /v1/tables/{name}/compact
	// still works).
	CompactRows int
	// Shards is the user-hash partition count for served tables: a table
	// stored with a different count is resharded at load and the new layout
	// persisted (legacy single-file tables load as 1 shard). 0 keeps each
	// file's stored count.
	Shards int
	// ChunkCacheBytes budgets the decoded-chunk cache behind lazily loaded
	// tables; <= 0 means unbounded. See CatalogConfig.ChunkCacheBytes.
	ChunkCacheBytes int64
	// Logger receives structured access and error logs; nil selects
	// slog.Default().
	Logger *slog.Logger
}

// Server routes cohort queries and live ingestion over HTTP, under /v1/:
//
//	POST /v1/query                 {"table": ..., "query": ...} -> result rows
//	GET  /v1/tables                list catalog tables
//	GET  /v1/tables/{name}         one table's stats (loads it if needed)
//	POST /v1/tables/{name}/append  {"rows": [{col: val, ...}, ...]} -> delta
//	POST /v1/tables/{name}/compact seal the delta into compressed chunks
//	POST /v1/tables/{name}/reload  re-read the table file, invalidate caches
//	GET  /v1/stats                 cache, serving and ingestion counters
//	GET  /v1/healthz               liveness
//
// Errors are structured JSON: {"code": ..., "message": ...} with a stable
// machine-readable code.
//
// Every query runs as one chunk schedule over the table's sealed chunks and
// its live delta, on one shared bounded pool, so appended rows are visible
// immediately and chunk-scan concurrency stays bounded. Nothing bounds the
// requests waiting for that pool: under load they queue on it without
// limit, and nothing is shed (ROADMAP item 7).
type Server struct {
	catalog *Catalog
	cache   *ResultCache
	pool    *cohort.Pool
	mux     *http.ServeMux
	logger  *slog.Logger
	started time.Time

	queries     atomic.Uint64
	queryErrors atomic.Uint64
	appends     atomic.Uint64
	compacts    atomic.Uint64
}

// New builds a Server. Close it to release the worker pool and the loaded
// tables' journals.
func New(cfg Config) *Server {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	s := &Server{
		cache:   NewResultCache(cfg.CacheSize),
		pool:    cohort.NewPool(cfg.Workers),
		mux:     http.NewServeMux(),
		logger:  logger,
		started: time.Now().UTC(),
	}
	s.catalog = NewCatalogWith(cfg.DataDir, CatalogConfig{
		CompactRows:     cfg.CompactRows,
		Shards:          cfg.Shards,
		PlanCacheSize:   cfg.PlanCacheSize,
		ChunkCacheBytes: cfg.ChunkCacheBytes,
		// Appends and compactions do not invalidate the cache explicitly:
		// they bump the table generation, which changes every key of the
		// table, and the stranded entries age out through the LRU. Reloads
		// invalidate eagerly in handleReload — a reload discontinuity frees
		// the whole table's memory at once.
	})
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/tables", s.handleTables)
	s.mux.HandleFunc("GET /v1/tables/{name}", s.handleTable)
	s.mux.HandleFunc("POST /v1/tables/{name}/append", s.handleAppend)
	s.mux.HandleFunc("POST /v1/tables/{name}/compact", s.handleCompact)
	s.mux.HandleFunc("POST /v1/tables/{name}/reload", s.handleReload)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return s
}

// requestIDHeader carries the request ID: honored when the client sets it,
// generated otherwise, and always echoed on the response so a client can
// correlate its call with the server's access log line.
const requestIDHeader = "X-Request-ID"

type requestIDKey struct{}

// requestIDFrom recovers the request ID the middleware stashed in ctx.
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// statusRecorder captures the status and body size a handler wrote, for the
// access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// ServeHTTP implements http.Handler: every request gets a request ID
// (honoring a client-provided X-Request-ID) and a structured access log line
// with route, status, duration and bytes written.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := r.Header.Get(requestIDHeader)
	if id == "" {
		id = newRequestID()
	}
	w.Header().Set(requestIDHeader, id)
	r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(rec, r)
	obs.HTTPRequestsTotal.Inc()
	s.logger.Info("request",
		"id", id,
		"method", r.Method,
		"path", r.URL.Path,
		"status", rec.status,
		"bytes", rec.bytes,
		"dur_ms", float64(time.Since(start).Microseconds())/1000,
	)
}

// Close closes every loaded table (waiting out background compactions,
// releasing journals) and stops the shared worker pool after in-flight
// tasks drain. The HTTP listener must be shut down first so no request is
// still submitting work.
func (s *Server) Close() {
	s.catalog.Close()
	s.pool.Close()
}

// CacheStats exposes the cache counters, for tests and the stats endpoint.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// cacheStatusHeader reports hit, miss or bypass (a traced or EXPLAIN
// request, never stored) on every successful query response, making cache
// behavior observable to clients and tests.
const cacheStatusHeader = "X-Cohana-Cache"

// queryRequest is the POST /v1/query body.
type queryRequest struct {
	Table string `json:"table"`
	Query string `json:"query"`
	// Parallelism caps this query's fan-out, every shard's chunks
	// together, within the shared pool; 0 (or absent) uses every pool
	// worker.
	Parallelism int `json:"parallelism,omitempty"`
	// Trace executes the query with per-phase tracing and returns the span
	// tree (prepare, a span per shard with per-chunk detail and delta
	// union, the one merge) in the response. Traced requests bypass the
	// result cache — the point is to measure a real execution.
	Trace bool `json:"trace,omitempty"`
}

// queryResponse is the POST /v1/query body on success. Exactly one of Rows
// (cohort query), Mixed (mixed query) and Explain (EXPLAIN statement) is set.
type queryResponse struct {
	Table    string     `json:"table"`
	KeyCols  []string   `json:"keyCols,omitempty"`
	AggNames []string   `json:"aggNames,omitempty"`
	Rows     []queryRow `json:"rows,omitempty"`
	Mixed    *mixedBody `json:"mixed,omitempty"`
	NumRows  int        `json:"numRows"`
	// Explain is the plan text of an EXPLAIN / EXPLAIN ANALYZE statement.
	Explain string `json:"explain,omitempty"`
	// Trace is the measured span tree of a `"trace": true` request.
	Trace *cohana.TraceSpan `json:"trace,omitempty"`
}

type queryRow struct {
	Cohort []string   `json:"cohort"`
	Age    int64      `json:"age"`
	Size   int64      `json:"size"`
	Aggs   []*float64 `json:"aggs"`
}

type mixedBody struct {
	Cols []string   `json:"cols"`
	Rows [][]string `json:"rows"`
}

// errorResponse is every error body: a stable machine-readable Code and a
// human-readable Message.
type errorResponse struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	if status >= 500 {
		s.queryErrors.Add(1)
		obs.QueryErrorsTotal.Inc()
		s.logger.Error("request failed",
			"id", requestIDFrom(r.Context()),
			"method", r.Method,
			"path", r.URL.Path,
			"status", status,
			"error", err.Error(),
		)
	}
	writeJSON(w, status, errorResponse{Code: codeFor(status, err), Message: err.Error()})
}

// codeFor derives the stable error code: specific error types first, then
// the HTTP status class.
func codeFor(status int, err error) string {
	var unknown ErrUnknownTable
	if errors.As(err, &unknown) {
		return "unknown_table"
	}
	var corrupt ErrCorruptTable
	if errors.As(err, &corrupt) {
		return "corrupt_table"
	}
	// A lazy chunk load hitting a missing or corrupt segment file surfaces
	// mid-query with the same stable code as a corrupt manifest at load.
	var seg *storage.CorruptSegmentError
	if errors.As(err, &seg) {
		return "corrupt_table"
	}
	var dup ingest.ErrDuplicate
	if errors.As(err, &dup) {
		return "duplicate_row"
	}
	var bad ingest.ErrBadRow
	if errors.As(err, &bad) {
		return "bad_row"
	}
	if errors.Is(err, ingest.ErrClosed) {
		return "table_closed"
	}
	switch {
	case status == http.StatusRequestEntityTooLarge:
		return "body_too_large"
	case status == statusClientClosedRequest:
		return "client_closed_request"
	case status == http.StatusBadRequest:
		return "bad_request"
	case status == http.StatusNotFound:
		return "not_found"
	case status >= 500:
		return "internal"
	default:
		return "error"
	}
}

// jsonAgg converts an aggregate value to a JSON-safe pointer: NaN and the
// infinities (possible for Avg over an empty bucket) become null instead of
// failing to marshal.
func jsonAgg(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// Request body caps: a query is one statement of text, an append is a batch
// of rows. A body past its cap is refused with 413 rather than buffered.
const (
	maxQueryBodyBytes  = 1 << 20
	maxAppendBodyBytes = 64 << 20
)

// decodeBody decodes r's JSON body into v, reading at most limit bytes, and
// answers the error itself when that fails: 413 for an oversized body, 400
// otherwise.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	s.writeError(w, r, status, fmt.Errorf("decoding request body: %w", err))
	return false
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decodeBody(w, r, maxQueryBodyBytes, &req) {
		return
	}
	if req.Table == "" || strings.TrimSpace(req.Query) == "" {
		s.writeError(w, r, http.StatusBadRequest, errors.New(`request needs "table" and "query"`))
		return
	}
	s.queries.Add(1)
	lt, plans, err := s.catalog.Get(req.Table)
	if err != nil {
		s.writeError(w, r, statusFor(err), err)
		return
	}
	parallelism := req.Parallelism
	if parallelism == 0 {
		parallelism = -1 // every pool worker, still bounded by the pool
	}
	// Every request builds a throwaway engine over the shared live table, but
	// they all pass the table incarnation's plan cache: repeat queries skip
	// parse → validate → optimize → compile even across requests.
	eng := cohana.EngineForIngest(lt, cohana.Options{Parallelism: parallelism, Pool: s.pool, PlanCache: plans})
	// Pin one snapshot for the whole request: the fingerprint — the
	// snapshot's table generation — describes exactly the state the
	// execution below scans, so a cached body under this key describes
	// precisely this state. A hit touches neither the parser nor the plan
	// cache; a miss prepares once and runs once.
	snap := eng.Snapshot()
	fp := snap.Fingerprint(req.Query)
	norm := NormalizeQuery(req.Query)
	if !req.Trace {
		if body, ok := s.cache.Get(req.Table, fp, norm); ok {
			w.Header().Set(cacheStatusHeader, "hit")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(body)
			return
		}
	}
	// The request context rides into the executor: when the client
	// disconnects, the query's chunk fan-out stops early and the
	// shared pool workers go back to serving live requests.
	ctx := r.Context()
	stmt, err := eng.Prepare(req.Query)
	if err != nil {
		s.writeError(w, r, queryStatusFor(ctx, err), err)
		return
	}
	out, err := stmt.Run(ctx, snap, cohana.RunOpts{Trace: req.Trace})
	if err != nil {
		s.writeError(w, r, queryStatusFor(ctx, err), err)
		return
	}
	resp := queryResponse{Table: req.Table, Explain: out.Explain, Trace: out.Trace}
	if m := out.Mixed; m != nil {
		resp.Mixed = &mixedBody{Cols: m.Cols, Rows: m.Rows}
		resp.NumRows = len(m.Rows)
	}
	if res := out.Cohort; res != nil {
		resp.KeyCols = res.KeyCols
		resp.AggNames = res.AggNames
		resp.NumRows = len(res.Rows)
		resp.Rows = make([]queryRow, len(res.Rows))
		for i, row := range res.Rows {
			aggs := make([]*float64, len(row.Aggs))
			for k, v := range row.Aggs {
				aggs[k] = jsonAgg(v)
			}
			resp.Rows[i] = queryRow{Cohort: row.Cohort, Age: row.Age, Size: row.Size, Aggs: aggs}
		}
	}
	body, err := json.Marshal(resp)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	body = append(body, '\n')
	status := "miss"
	if req.Trace || out.Explain != "" {
		// A traced body is one measured execution, not a reusable result;
		// an EXPLAIN is cheap, or (ANALYZE) exists to measure a real run.
		status = "bypass"
	} else if lt.DeltaRows() > 0 {
		// A result over un-compacted rows is stored once its key repeats
		// (see PutOnRepeat); the next append or compaction retires it.
		s.cache.PutOnRepeat(req.Table, fp, norm, body)
	} else {
		s.cache.Put(req.Table, fp, norm, body)
	}
	w.Header().Set(cacheStatusHeader, status)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// handleMetrics refreshes the per-table gauges from the catalog and serves
// the Prometheus text exposition of every engine metric.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	_, tables := s.catalog.IngestSnapshot()
	for _, t := range tables {
		obs.TableShards.With(t.Table).Set(float64(t.Shards))
		obs.TableGeneration.With(t.Table).Set(float64(t.Generation))
		obs.TableDeltaRows.With(t.Table).Set(float64(t.DeltaRows))
		obs.TableSealedRows.With(t.Table).Set(float64(t.SealedRows))
	}
	obs.Default.Handler().ServeHTTP(w, r)
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	infos, err := s.catalog.List()
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Tables []TableInfo `json:"tables"`
	}{Tables: infos})
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// Force the load so the response carries row/chunk stats, then describe.
	if _, _, err := s.catalog.Get(name); err != nil {
		s.writeError(w, r, statusFor(err), err)
		return
	}
	info, err := s.catalog.Info(name)
	if err != nil {
		s.writeError(w, r, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// appendRequest is the POST /v1/tables/{name}/append body: a batch of activity
// rows as JSON objects keyed by column name. Time columns accept Unix
// seconds or any activity.ParseTime layout.
type appendRequest struct {
	Rows []map[string]any `json:"rows"`
}

// appendResponse acknowledges a durable append.
type appendResponse struct {
	Table      string `json:"table"`
	Appended   int    `json:"appended"`
	DeltaRows  int    `json:"deltaRows"`
	Generation uint64 `json:"generation"`
	Compacting bool   `json:"compacting"`
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req appendRequest
	if !s.decodeBody(w, r, maxAppendBodyBytes, &req) {
		return
	}
	if len(req.Rows) == 0 {
		s.writeError(w, r, http.StatusBadRequest, errors.New(`request needs a non-empty "rows" array`))
		return
	}
	lt, _, err := s.catalog.Get(name)
	if err != nil {
		s.writeError(w, r, statusFor(err), err)
		return
	}
	schema := lt.Schema()
	batch := make([]ingest.Row, len(req.Rows))
	for i, obj := range req.Rows {
		row, err := ingest.ParseRow(schema, obj)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("row %d: %w", i, err))
			return
		}
		batch[i] = row
	}
	if err := lt.Append(batch); err != nil {
		s.writeError(w, r, statusFor(err), err)
		return
	}
	s.appends.Add(1)
	st := lt.Stats()
	writeJSON(w, http.StatusOK, appendResponse{
		Table:      name,
		Appended:   len(batch),
		DeltaRows:  st.DeltaRows,
		Generation: st.Generation,
		Compacting: st.Compacting,
	})
}

// compactResponse reports a completed compaction.
type compactResponse struct {
	Table             string `json:"table"`
	SealedRows        int    `json:"sealedRows"`
	SealedChunks      int    `json:"sealedChunks"`
	DeltaRows         int    `json:"deltaRows"`
	Generation        uint64 `json:"generation"`
	Compactions       uint64 `json:"compactions"`
	LastCompactMillis int64  `json:"lastCompactMillis"`
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	lt, _, err := s.catalog.Get(name)
	if err != nil {
		s.writeError(w, r, statusFor(err), err)
		return
	}
	if err := lt.CompactContext(r.Context()); err != nil {
		s.writeError(w, r, statusFor(err), err)
		return
	}
	s.compacts.Add(1)
	st := lt.Stats()
	writeJSON(w, http.StatusOK, compactResponse{
		Table:             name,
		SealedRows:        st.SealedRows,
		SealedChunks:      st.SealedChunks,
		DeltaRows:         st.DeltaRows,
		Generation:        st.Generation,
		Compactions:       st.Compactions,
		LastCompactMillis: st.LastCompactMillis,
	})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, err := s.catalog.Reload(name); err != nil {
		s.writeError(w, r, statusFor(err), err)
		return
	}
	invalidated := s.cache.InvalidateTable(name)
	info, err := s.catalog.Info(name)
	if err != nil {
		s.writeError(w, r, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Table       TableInfo `json:"table"`
		Invalidated int       `json:"invalidatedCacheEntries"`
	}{Table: info, Invalidated: invalidated})
}

// ScanKernelStats surfaces the process-wide scan-kernel counters on /v1/stats:
// scanned rows and encoded-domain checks across all queries, plus how much
// of that work the run-aware vectorized path handled run-at-a-time.
// RowsBatched/RunsEvaluated is the realized amortization factor.
type ScanKernelStats struct {
	RowsScanned   uint64 `json:"rowsScanned"`
	EncodedChecks uint64 `json:"encodedChecks"`
	RunsEvaluated uint64 `json:"runsEvaluated"`
	RowsBatched   uint64 `json:"rowsBatched"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ingestTotals, tables := s.catalog.IngestSnapshot()
	writeJSON(w, http.StatusOK, struct {
		UptimeSeconds float64                 `json:"uptimeSeconds"`
		Workers       int                     `json:"workers"`
		Queries       uint64                  `json:"queries"`
		QueryErrors   uint64                  `json:"queryErrors"`
		AppendBatches uint64                  `json:"appendBatches"`
		Compacts      uint64                  `json:"compactRequests"`
		Cache         CacheStats              `json:"cache"`
		PlanCache     plan.CacheStats         `json:"planCache"`
		ChunkCache    storage.ChunkCacheStats `json:"chunkCache"`
		Scan          ScanKernelStats         `json:"scan"`
		Ingest        IngestTotals            `json:"ingest"`
		Tables        []TableShards           `json:"tables,omitempty"`
	}{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Workers:       s.pool.Workers(),
		Queries:       s.queries.Load(),
		QueryErrors:   s.queryErrors.Load(),
		AppendBatches: s.appends.Load(),
		Compacts:      s.compacts.Load(),
		Cache:         s.cache.Stats(),
		PlanCache:     s.catalog.PlanCacheStats(),
		ChunkCache:    s.catalog.ChunkCacheStats(),
		Scan: ScanKernelStats{
			RowsScanned:   obs.RowsScannedTotal.Value(),
			EncodedChecks: obs.EncodedChecksTotal.Value(),
			RunsEvaluated: obs.RunsEvaluatedTotal.Value(),
			RowsBatched:   obs.RowsBatchedTotal.Value(),
		},
		Ingest: ingestTotals,
		Tables: tables,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ok"})
}

// statusClientClosedRequest is the (nginx-convention) status logged when a
// query fails because its client disconnected; no client sees it.
const statusClientClosedRequest = 499

// queryStatusFor distinguishes a query error caused by the client going away
// (a cancelled request context) from a genuinely bad query, and server-side
// storage corruption (a lazy chunk load hitting a missing or corrupt segment
// mid-query) from client errors.
func queryStatusFor(ctx context.Context, err error) int {
	if errors.Is(err, context.Canceled) || ctx.Err() != nil {
		return statusClientClosedRequest
	}
	var seg *storage.CorruptSegmentError
	if errors.As(err, &seg) {
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// statusFor maps catalog and ingest errors to HTTP statuses.
func statusFor(err error) int {
	if errors.Is(err, context.Canceled) {
		return statusClientClosedRequest
	}
	var unknown ErrUnknownTable
	if errors.As(err, &unknown) {
		return http.StatusNotFound
	}
	var dup ingest.ErrDuplicate
	if errors.As(err, &dup) {
		return http.StatusConflict
	}
	var bad ingest.ErrBadRow
	if errors.As(err, &bad) {
		return http.StatusBadRequest
	}
	if errors.Is(err, ingest.ErrClosed) {
		return http.StatusServiceUnavailable
	}
	// ErrCorruptTable and everything else: a clean 500 whose message names
	// the offending file instead of a raw decode failure.
	return http.StatusInternalServerError
}
