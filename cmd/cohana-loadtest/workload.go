package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/storage"
)

// workloads are the four traffic mixes, in report order. BENCHMARK.json
// carries the same names with the reason each exists.
var workloads = []string{"adhoc-scan", "dashboard-repeat", "ingest-mixed", "cold-budget"}

// job is what the parent process hands a workload child: which workload, on
// which private copy of the table, and the answers the oracle expects.
type job struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	DataDir  string  `json:"dataDir"`
	Sizing   sizing  `json:"sizing"`
	Clients  int     `json:"clients"`
	WarmupS  float64 `json:"warmupS"`
	WindowS  float64 `json:"windowS"`
	Trace    bool    `json:"trace"`
	// TracePath is where the traced replay writes its spans.
	TracePath string `json:"tracePath"`
	// ColdReps is how many times set-up opens a new server and times its
	// first query; TraceOps how many operations the traced replay records.
	ColdReps int `json:"coldReps"`
	TraceOps int `json:"traceOps"`
	// ingest-mixed: the per-shard delta size that triggers a background
	// compaction, the paced writer's rate, and the burst phase's length.
	CompactRows  int     `json:"compactRows"`
	BatchesPerS  float64 `json:"batchesPerS"`
	BurstBatches int     `json:"burstBatches"`
	// Expected maps a query text to the oracle's answer over the base table.
	Expected map[string][]resultRow `json:"expected"`
	// DatagenS, BuildS and CommitS are the parent's timings of the template.
	DatagenS float64 `json:"datagenS"`
	BuildS   float64 `json:"buildS"`
	CommitS  float64 `json:"commitS"`
}

// outcome is what a workload child reports back.
type outcome struct {
	Workload  string   `json:"workload"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   metrics  `json:"metrics"`
	// Samples counts the observations behind the percentile metrics.
	Samples map[string]int `json:"samples"`
	Shares  []shareRow     `json:"shares,omitempty"`
	// AckedBatches and FinalRows let the parent re-check ingest-mixed
	// against the oracle over base + every acknowledged row: the indices of
	// the acknowledged batches, and Q1-Q4 as served after the last
	// compaction.
	AckedBatches []int                  `json:"ackedBatches,omitempty"`
	FinalRows    map[string][]resultRow `json:"finalRows,omitempty"`
}

// op is one request of a workload's sequence.
type op struct {
	text     string
	body     []byte // the /v1/query request
	template string
}

func queryOps(specs []spec) []op {
	ops := make([]op, len(specs))
	for i, s := range specs {
		text := s.text()
		body, err := json.Marshal(map[string]string{"table": tableName, "query": text})
		if err != nil {
			panic(err)
		}
		ops[i] = op{text: text, body: body, template: s.Template}
	}
	return ops
}

// listen serves h on a loopback port and returns its base URL and a stop
// function that shuts the listener down and waits for Serve to return.
func listen(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if hs.Shutdown(ctx) != nil {
			_ = hs.Close()
		}
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// conn is one client: one keep-alive connection to one base URL.
type conn struct {
	hc   *http.Client
	base string
}

func dial(base string) *conn {
	return &conn{base: base, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response.
func (c *conn) do(method, path string, body []byte, header map[string]string) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

const (
	queryPath   = "/v1/query"
	appendPath  = "/v1/tables/" + tableName + "/append"
	compactPath = "/v1/tables/" + tableName + "/compact"
)

// target is one server under test on its loopback listener.
type target struct {
	srv  *server.Server
	base string
	stop func()
}

func startServer(cfg server.Config) (*target, error) {
	srv := server.New(cfg)
	base, stop, err := listen(srv)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &target{srv: srv, base: base, stop: stop}, nil
}

func (t *target) close() {
	t.stop()
	t.srv.Close()
}

// serverStats is the part of GET /v1/stats the benchmark reads, in the
// server's own exported types.
type serverStats struct {
	Cache      server.CacheStats       `json:"cache"`
	PlanCache  plan.CacheStats         `json:"planCache"`
	ChunkCache storage.ChunkCacheStats `json:"chunkCache"`
	Scan       server.ScanKernelStats  `json:"scan"`
	Ingest     server.IngestTotals     `json:"ingest"`
	Tables     []server.TableShards    `json:"tables"`
}

// counters is one reading of the program's public counters: the stats
// endpoint plus the obs registry of this process. Metrics are deltas between
// two readings.
type counters struct {
	stats            serverStats
	valueBytes       uint64
	chunksScanned    uint64
	chunksPruned     uint64
	segmentReads     uint64
	fsyncs           uint64
	fsyncSum         float64
	compactBusy      float64
	appendSum        float64
	appendCount      uint64
	persistBytes     uint64
	compactionsShard []uint64
}

func readCounters(c *conn) (counters, error) {
	status, body, err := c.do("GET", "/v1/stats", nil, nil)
	if err != nil || status != http.StatusOK {
		return counters{}, fmt.Errorf("GET /v1/stats: status %d: %v", status, err)
	}
	k := counters{
		valueBytes:    obs.ValueBytesDecodedTotal.Value(),
		chunksScanned: obs.ChunksScannedTotal.Value(),
		chunksPruned:  obs.ChunksPrunedTotal.Value(),
		segmentReads:  obs.SegmentReadsTotal.Value(),
		fsyncs:        obs.JournalFsyncSeconds.Count(),
		fsyncSum:      obs.JournalFsyncSeconds.Sum(),
		compactBusy:   obs.CompactSeconds.Sum(),
		appendSum:     obs.AppendSeconds.Sum(),
		appendCount:   obs.AppendSeconds.Count(),
		persistBytes:  obs.PersistedBytesTotal.Value(),
	}
	if err := json.Unmarshal(body, &k.stats); err != nil {
		return counters{}, fmt.Errorf("GET /v1/stats: %w", err)
	}
	for _, t := range k.stats.Tables {
		for _, s := range t.PerShard {
			k.compactionsShard = append(k.compactionsShard, s.Compactions)
		}
	}
	return k, nil
}

// sample is one timed query of a measured window.
type sample struct {
	ms         float64
	template   string
	compacting bool // a background compaction was running when it was sent
}

// loadResult is what one phase of load observed.
type loadResult struct {
	queries  []sample
	bytes    int64
	elapsed  time.Duration
	appendMs []float64 // paced appends, from the due instant to the ack
	late     int       // paced appends that left a whole period or more late
	appendB  int64     // user bytes of acknowledged rows
	rssMB    []float64 // this process's resident set, sampled every 100 ms
}

// runner drives one workload against one server.
type runner struct {
	job     job
	t       *target
	readers []*conn
	writer  *conn
	seq     []op
	next    atomic.Int64 // position in seq, shared by the readers
	// bodyHash holds the hash of the first response to each seq entry; on
	// read-only workloads every later response must hash the same.
	bodyHash []atomic.Uint64
	hashSeed maphash.Seed
	readOnly bool
	fixed    []op // Q1-Q4, the gate's and the fixed-text workloads' queries

	nextBatch  int         // the writer's position in the seeded write stream
	compacting atomic.Bool // last append ack said a compaction was running

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	acked     []int
}

// count records one attempted operation.
func (r *runner) count() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// queryResponse is the part of a /v1/query response the harness reads.
type queryResponse struct {
	Rows []resultRow `json:"rows"`
}

// verifyQuery checks the response to seq[i]: status 200, equal to the oracle
// when the text has an expected answer and this is its first response, and
// byte-identical to the first response on read-only workloads.
func (r *runner) verifyQuery(i int, status int, body []byte, err error) {
	o := r.seq[i]
	if err != nil || status != http.StatusOK {
		r.fail("query %q: status %d: %v: %s", o.text, status, err, body)
		return
	}
	if !r.readOnly {
		return
	}
	h := maphash.Bytes(r.hashSeed, body) | 1
	if !r.bodyHash[i].CompareAndSwap(0, h) {
		if r.bodyHash[i].Load() != h {
			r.fail("query %q: response differs from the first response to the same text", o.text)
		}
		return
	}
	if want, ok := r.job.Expected[o.text]; ok {
		r.compare(o.text, body, want)
	}
}

// query sends seq[i] on c and verifies the response; it returns the round
// trip in milliseconds and the response body.
func (r *runner) query(c *conn, i int) (float64, []byte) {
	r.count()
	start := time.Now()
	status, body, err := c.do("POST", queryPath, r.seq[i].body, nil)
	ms := float64(time.Since(start)) / 1e6
	r.verifyQuery(i, status, body, err)
	return ms, body
}

func (r *runner) compare(text string, body []byte, want []resultRow) {
	var got queryResponse
	if err := json.Unmarshal(body, &got); err != nil {
		r.fail("query %q: undecodable response: %v", text, err)
		return
	}
	if diff := sameRows(got.Rows, want); diff != "" {
		r.fail("query %q: wrong result: %s", text, diff)
	}
}

// load runs the workload's traffic for d: every reader in a closed loop over
// the shared sequence, and on ingest-mixed the paced writer beside them.
func (r *runner) load(d time.Duration) loadResult {
	var res loadResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range r.readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			var bytes int64
			for time.Now().Before(deadline) {
				i := int(r.next.Add(1)-1) % len(r.seq)
				compacting := r.compacting.Load()
				ms, body := r.query(c, i)
				mine = append(mine, sample{ms: ms, template: r.seq[i].template, compacting: compacting})
				bytes += int64(len(body))
			}
			mu.Lock()
			res.queries = append(res.queries, mine...)
			res.bytes += bytes
			mu.Unlock()
		}()
	}
	if !r.readOnly {
		wg.Add(1)
		go func() {
			defer wg.Done()
			period := time.Duration(float64(time.Second) / r.job.BatchesPerS)
			for k := 0; ; k++ {
				due := start.Add(time.Duration(k) * period)
				if !due.Before(deadline) {
					return
				}
				body, userBytes := r.batchBody(r.nextBatch)
				time.Sleep(time.Until(due))
				if time.Since(due) >= period {
					res.late++
				}
				if r.sendBatch(body) {
					res.appendMs = append(res.appendMs, float64(time.Since(due))/1e6)
					res.appendB += userBytes
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			res.rssMB = append(res.rssMB, procStatusMB("VmRSS:"))
			time.Sleep(100 * time.Millisecond)
		}
	}()
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// batchBody encodes the idx-th batch of the write stream and returns the
// user bytes it carries (string lengths plus 8 per integer), the base of the
// write-amplification ratio.
func (r *runner) batchBody(idx int) ([]byte, int64) {
	rows := appendBatch(r.job.Seed, r.job.Sizing.Users, idx)
	var userBytes int64
	for _, row := range rows {
		userBytes += int64(len(row.Player)+len(row.Action)+len(row.Country)+len(row.City)+len(row.Role)) + 3*8
	}
	body, err := json.Marshal(map[string][]appendRow{"rows": rows})
	if err != nil {
		panic(err)
	}
	return body, userBytes
}

// sendBatch posts the writer's next batch and reports whether it was
// acknowledged.
func (r *runner) sendBatch(body []byte) bool {
	r.count()
	status, resp, err := r.writer.do("POST", appendPath, body, nil)
	return r.ackBatch(status, resp, err)
}

// ackBatch consumes the response to the write stream's next batch: an
// acknowledged batch index is remembered for the oracle, and the ack's
// compacting flag tags the reader's samples for the stall ratio.
func (r *runner) ackBatch(status int, resp []byte, err error) bool {
	idx := r.nextBatch
	r.nextBatch++
	if err != nil || status != http.StatusOK {
		r.fail("append batch %d: status %d: %v: %s", idx, status, err, resp)
		return false
	}
	var ack struct {
		Compacting bool `json:"compacting"`
	}
	_ = json.Unmarshal(resp, &ack) // a malformed ack only loses the stall tag
	r.compacting.Store(ack.Compacting)
	r.mu.Lock()
	r.acked = append(r.acked, idx)
	r.mu.Unlock()
	return true
}

var discardLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

func (j job) serverConfig(chunkCacheBytes int64) server.Config {
	cfg := server.Config{DataDir: j.DataDir, CacheSize: 256, ChunkCacheBytes: chunkCacheBytes, Logger: discardLogger}
	if j.Workload == "ingest-mixed" {
		cfg.CompactRows = j.CompactRows
	}
	return cfg
}

// noopFloor is the median round trip against an empty handler: what HTTP
// over loopback costs before the server does anything.
func noopFloor() (float64, error) {
	base, stop, err := listen(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	if err != nil {
		return 0, err
	}
	defer stop()
	c := dial(base)
	defer c.close()
	var us []float64
	for i := 0; i < 300; i++ {
		start := time.Now()
		if _, _, err := c.do("POST", "/", []byte("{}"), nil); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start))/1e3)
	}
	return median(us[50:]), nil
}

// coldStart opens a new server on the table and times its first query, Q1:
// manifest open plus the first decode of every chunk. It also reports the
// chunk cache's resident bytes afterwards — with an unbounded cache, the
// table's fully decoded size.
func (r *runner) coldStart(chunkCacheBytes int64) (ms float64, resident int64, err error) {
	q1 := r.fixed[0]
	start := time.Now()
	t, err := startServer(r.job.serverConfig(chunkCacheBytes))
	if err != nil {
		return 0, 0, err
	}
	defer t.close()
	c := dial(t.base)
	defer c.close()
	r.count()
	status, body, err := c.do("POST", queryPath, q1.body, nil)
	ms = float64(time.Since(start)) / 1e6
	if err != nil || status != http.StatusOK {
		r.fail("first query of a new server: status %d: %v: %s", status, err, body)
		return ms, 0, nil
	}
	r.compare(q1.text, body, r.job.Expected[q1.text])
	k, err := readCounters(c)
	return ms, k.stats.ChunkCache.ResidentBytes, err
}

// runWorkload is the child process: set up, warm up, measure, check, and
// (when asked) replay under trace.
func runWorkload(j job) (*outcome, error) {
	m := newMetrics()
	out := &outcome{Workload: j.Workload, Metrics: m, Samples: map[string]int{}}
	r := &runner{job: j, hashSeed: maphash.MakeSeed(), readOnly: j.Workload != "ingest-mixed", fixed: queryOps(fixedQueries())}
	switch j.Workload {
	case "adhoc-scan", "cold-budget":
		r.seq = queryOps(adhocCycle(j.Seed))
	case "dashboard-repeat", "ingest-mixed":
		r.seq = r.fixed
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", j.Workload, strings.Join(workloads, ", "))
	}
	r.bodyHash = make([]atomic.Uint64, len(r.seq))

	floor, err := noopFloor()
	if err != nil {
		return nil, err
	}
	m.set("client.noop_roundtrip_p50_us", floor)

	// Set-up, several times over: a new server, its first query, close. The
	// first one runs unbounded to learn the decoded size cold-budget's cache
	// budget is a quarter of.
	_, decoded, err := r.coldStart(0)
	if err != nil {
		return nil, err
	}
	var budget int64
	if j.Workload == "cold-budget" {
		budget = decoded / 4
	}
	var coldMs []float64
	for i := 0; i < j.ColdReps; i++ {
		ms, _, err := r.coldStart(budget)
		if err != nil {
			return nil, err
		}
		coldMs = append(coldMs, ms)
	}
	m.set("storage.decoded_mb", float64(decoded)/1e6)
	m.set("storage.budget_mb", float64(budget)/1e6)
	m.set("client.cold_first_query_p50_ms", median(coldMs))
	out.Samples["client.cold_first_query_p50_ms"] = len(coldMs)
	m.set("storage.build_s", j.BuildS)
	m.set("storage.commit_s", j.CommitS)
	m.set("client.datagen_s", j.DatagenS)
	m.set("setup_s", j.BuildS+j.CommitS+median(coldMs)/1e3)

	r.t, err = startServer(j.serverConfig(budget))
	if err != nil {
		return nil, err
	}
	defer func() {
		if r.t != nil {
			r.t.close()
		}
	}()
	readers := j.Clients
	if !r.readOnly {
		readers = max(j.Clients-1, 1) // one client is the writer
		r.writer = dial(r.t.base)
		defer r.writer.close()
	}
	for i := 0; i < readers; i++ {
		c := dial(r.t.base)
		defer c.close()
		r.readers = append(r.readers, c)
	}

	// Correctness gate: Q1-Q4 as served must equal the oracle before
	// anything is timed.
	for _, o := range r.fixed {
		r.count()
		status, body, err := r.readers[0].do("POST", queryPath, o.body, nil)
		if err != nil || status != http.StatusOK {
			r.fail("gate query %q: status %d: %v: %s", o.text, status, err, body)
			continue
		}
		r.compare(o.text, body, j.Expected[o.text])
	}

	r.load(time.Duration(j.WarmupS * float64(time.Second)))
	before, err := readCounters(r.readers[0])
	if err != nil {
		return nil, err
	}
	win := r.load(time.Duration(j.WindowS * float64(time.Second)))
	after, err := readCounters(r.readers[0])
	if err != nil {
		return nil, err
	}
	r.windowMetrics(m, out.Samples, win, before, after)

	if !r.readOnly {
		if err := r.burstAndSettle(m, out); err != nil {
			return nil, err
		}
	}
	if j.Trace {
		if err := r.tracedReplay(m, out, budget); err != nil {
			return nil, err
		}
	}
	// Every first touch of a chunk in this process, set-up's cold starts
	// included, so the sample is never empty.
	m.set("storage.pin_decode_ms_per_chunk", 1e3*ratio(obs.ChunkColdLoadSeconds.Sum(), float64(obs.ChunkColdLoadSeconds.Count())))
	r.t.close()
	r.t = nil
	disk, err := dirBytes(j.DataDir)
	if err != nil {
		return nil, err
	}
	rows := j.Sizing.Rows + len(r.acked)*batchRows
	m.set("storage.disk_bytes", float64(disk))
	m.set("disk_bytes_per_row", float64(disk)/float64(rows))
	out.Attempted, out.Failed, out.Failures = r.attempted, r.failed, r.failures
	return out, nil
}

// windowMetrics turns the measured window's samples and counter deltas into
// metrics.
func (r *runner) windowMetrics(m metrics, samples map[string]int, win loadResult, before, after counters) {
	secs := win.elapsed.Seconds()
	var all, inside, outside []float64
	byTemplate := map[string][]float64{}
	for _, s := range win.queries {
		all = append(all, s.ms)
		byTemplate[s.template] = append(byTemplate[s.template], s.ms)
		if s.compacting {
			inside = append(inside, s.ms)
		} else {
			outside = append(outside, s.ms)
		}
	}
	n := float64(len(all))
	m.set("queries_per_s", n/secs)
	m.set("query_p50_ms", median(all))
	m.set("client.query_p95_ms", quantile(all, 0.95))
	samples["query_p50_ms"], samples["client.query_p95_ms"] = len(all), len(all)
	for _, t := range []string{"count_full", "count_born", "avg_full", "avg_born"} {
		m.set("client."+t+"_p50_ms", median(byTemplate[t]))
	}
	m.set("server.response_bytes_per_op", ratio(float64(win.bytes), n))
	// The median of the window's samples, not the high-water mark: the peak
	// depends on where the collector's cycles happen to fall and moves by
	// tens of percent between runs of one binary; it is reported beside it.
	m.set("rss_p50_mb", median(win.rssMB))
	m.set("client.peak_rss_mb", procStatusMB("VmHWM:"))

	d := func(a, b uint64) float64 { return float64(b - a) }
	bs, as := before.stats, after.stats
	hits, misses := d(bs.Cache.Hits, as.Cache.Hits), d(bs.Cache.Misses, as.Cache.Misses)
	m.set("server.result_cache_hit_ratio", ratio(hits, hits+misses))
	hits, misses = d(bs.PlanCache.Hits, as.PlanCache.Hits), d(bs.PlanCache.Misses, as.PlanCache.Misses)
	m.set("plan.cache_hit_ratio", ratio(hits, hits+misses))
	m.set("plan.rebinds", d(bs.PlanCache.Rebinds, as.PlanCache.Rebinds))
	pruned, scanned := d(before.chunksPruned, after.chunksPruned), d(before.chunksScanned, after.chunksScanned)
	m.set("plan.chunks_pruned_ratio", ratio(pruned, pruned+scanned))

	m.set("cohort.rows_scanned_per_op", ratio(d(bs.Scan.RowsScanned, as.Scan.RowsScanned), n))
	m.set("cohort.value_bytes_decoded_per_op", ratio(d(before.valueBytes, after.valueBytes), n))
	m.set("cohort.encoded_checks_per_op", ratio(d(bs.Scan.EncodedChecks, as.Scan.EncodedChecks), n))
	runs := d(bs.Scan.RunsEvaluated, as.Scan.RunsEvaluated)
	m.set("cohort.runs_evaluated_per_op", ratio(runs, n))
	m.set("cohort.rows_per_run", ratio(d(bs.Scan.RowsBatched, as.Scan.RowsBatched), runs))

	hits, misses = d(bs.ChunkCache.Hits, as.ChunkCache.Hits), d(bs.ChunkCache.Misses, as.ChunkCache.Misses)
	m.set("storage.chunk_cache_hit_ratio", ratio(hits, hits+misses))
	m.set("storage.chunk_cache_evictions", d(bs.ChunkCache.Evictions, as.ChunkCache.Evictions))
	m.set("storage.segment_reads", d(before.segmentReads, after.segmentReads))
	m.set("storage.resident_mb", float64(as.ChunkCache.ResidentBytes)/1e6)

	if r.readOnly {
		return
	}
	m.set("client.append_ack_p50_ms", median(win.appendMs))
	m.set("client.append_ack_p99_ms", quantile(win.appendMs, 0.99))
	samples["client.append_ack_p50_ms"] = len(win.appendMs)
	sent := float64(len(win.appendMs))
	m.set("client.late_ratio", ratio(float64(win.late), sent))
	m.set("ingest.append_ms_per_batch", 1e3*ratio(after.appendSum-before.appendSum, d(before.appendCount, after.appendCount)))
	m.set("ingest.journal_fsyncs", d(before.fsyncs, after.fsyncs))
	m.set("ingest.journal_fsync_ms", 1e3*ratio(after.fsyncSum-before.fsyncSum, d(before.fsyncs, after.fsyncs)))
	compactions := d(bs.Ingest.Compactions, as.Ingest.Compactions)
	m.set("ingest.compactions", compactions)
	minShard := compactions
	for i := range after.compactionsShard {
		if i < len(before.compactionsShard) {
			minShard = min(minShard, d(before.compactionsShard[i], after.compactionsShard[i]))
		}
	}
	m.set("ingest.compactions_min_per_shard", minShard)
	busy := after.compactBusy - before.compactBusy
	m.set("ingest.compact_busy_s", busy)
	m.set("ingest.compact_busy_ratio", busy/(secs*float64(shards)))
	m.set("ingest.chunks_rebuilt", d(bs.Ingest.ChunksRebuilt, as.Ingest.ChunksRebuilt))
	m.set("ingest.chunks_reused", d(bs.Ingest.ChunksReused, as.Ingest.ChunksReused))
	m.set("ingest.persist_bytes_per_appended_byte", ratio(d(before.persistBytes, after.persistBytes), float64(win.appendB)))
	m.set("ingest.compaction_stall_ratio", ratio(median(inside), median(outside)))
}

// burstAndSettle is ingest-mixed's tail: the writer alone in a closed loop
// for the write throughput, then a compaction, then Q1-Q4 once more for the
// parent to check against the oracle over base + every acknowledged row.
func (r *runner) burstAndSettle(m metrics, out *outcome) error {
	bodies := make([][]byte, r.job.BurstBatches)
	for i := range bodies {
		bodies[i], _ = r.batchBody(r.nextBatch + i)
	}
	start := time.Now()
	ackedRows := 0
	for _, body := range bodies {
		if r.sendBatch(body) {
			ackedRows += batchRows
		}
	}
	m.set("client.append_rows_per_s", float64(ackedRows)/time.Since(start).Seconds())
	after, err := readCounters(r.readers[0])
	if err != nil {
		return err
	}
	// What compactions truncate away is not observable from outside, so
	// this reads the journals' size right after the burst against the rows
	// still in the delta.
	m.set("ingest.journal_bytes_per_row", ratio(float64(after.stats.Ingest.JournalBytes), float64(after.stats.Ingest.DeltaRows)))

	r.count()
	status, body, err := r.writer.do("POST", compactPath, nil, nil)
	if err != nil || status != http.StatusOK {
		r.fail("final compaction: status %d: %v: %s", status, err, body)
	}
	out.AckedBatches = slices.Clone(r.acked)
	out.FinalRows = map[string][]resultRow{}
	for _, o := range r.fixed {
		r.count()
		status, body, err := r.readers[0].do("POST", queryPath, o.body, nil)
		var got queryResponse
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &got)
		}
		if err != nil || status != http.StatusOK {
			r.fail("final query %q: status %d: %v", o.text, status, err)
			continue
		}
		out.FinalRows[o.text] = got.Rows
	}
	return nil
}

// procStatusMB reads one kB-valued field of /proc/self/status — VmRSS, the
// resident set, or VmHWM, its high-water mark — in MB.
func procStatusMB(field string) float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}
