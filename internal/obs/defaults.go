package obs

// Every engine metric, registered once on the Default registry. Names are
// stable snake_case with conventional unit suffixes: counters end _total,
// latency histograms _seconds, size histograms _bytes or _rows (enforced by
// TestMetricNameConventions and the CI vet step). Instrumented packages
// (plan, cohort, ingest, server, the catalog) import obs and touch these
// vars directly.

// Latency bucket bounds in seconds: 50µs to 10s, roughly geometric. The
// engine's warm queries land around 100µs-10ms; fsyncs and compactions reach
// into the tail.
var latencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Row-count bucket bounds for batch sizes.
var rowsBuckets = []float64{1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 50000, 100000}

// Read path.
var (
	QuerySeconds = Default.Histogram("cohana_query_seconds",
		"Cohort query execution latency in seconds (engine-side, per executed query; result-cache hits never reach the engine).",
		latencyBuckets)
	QueriesTotal = Default.Counter("cohana_queries_total",
		"Cohort queries executed by the engine (cache misses and uncached queries).")
	RowsScannedTotal = Default.Counter("cohana_rows_scanned_total",
		"Rows in the chunk kernel's decode windows (birth row to age bound of each qualified user), summed over all queries.")
	ValueBytesDecodedTotal = Default.Counter("cohana_value_bytes_decoded_total",
		"Value bytes decoded from chunk columns; the pushdown keeps this below the generic path.")
	EncodedChecksTotal = Default.Counter("cohana_encoded_checks_total",
		"Predicate evaluations that stayed in the encoded domain (decoder-level pushdown).")
	RunsEvaluatedTotal = Default.Counter("cohana_runs_evaluated_total",
		"Same-age spans of selected rows the chunk kernel evaluated; one span evaluation covers every selected row of one age.")
	RowsBatchedTotal = Default.Counter("cohana_rows_batched_total",
		"Rows processed run-at-a-time by the chunk kernel; equals cohana_rows_scanned_total.")
	ChunksScannedTotal = Default.Counter("cohana_chunks_scanned_total",
		"Chunks scanned by queries (post-pruning).")
	ChunksPrunedTotal = Default.Counter("cohana_chunks_pruned_total",
		"Chunks skipped by birth-range pruning.")
	ChunkRidesTotal = Default.Counter("cohana_chunk_rides_total",
		"Chunk scans served by another query's pin of a transient chunk (cooperative scans): one segment read shared instead of repeated.")
	DeltaRowsScannedTotal = Default.Counter("cohana_delta_rows_scanned_total",
		"Union-table rows (delta rows plus the sealed rows of their users) the chunk kernel scans in union execution.")
)

// Caches.
var (
	PlanCacheHitsTotal = Default.Counter("cohana_plan_cache_hits_total",
		"Prepared-plan cache hits (normalized query text already compiled).")
	PlanCacheMissesTotal = Default.Counter("cohana_plan_cache_misses_total",
		"Prepared-plan cache misses (full parse, validate, optimize, compile).")
	PlanCacheRebindsTotal = Default.Counter("cohana_plan_cache_rebinds_total",
		"Per-shard plan rebinds forced by a sealed-tier generation change.")
	ResultCacheHitsTotal = Default.Counter("cohana_result_cache_hits_total",
		"Server result-cache hits (response served without executing the query).")
	ResultCacheMissesTotal = Default.Counter("cohana_result_cache_misses_total",
		"Server result-cache misses.")
)

// Server surface.
var (
	QueryErrorsTotal = Default.Counter("cohana_query_errors_total",
		"Query requests answered with a server-side (5xx) error.")
	HTTPRequestsTotal = Default.Counter("cohana_http_requests_total",
		"HTTP requests served, across all routes and statuses.")
)

// Write path.
var (
	AppendSeconds = Default.Histogram("cohana_append_seconds",
		"Append batch latency in seconds (validate, journal with fsync, admit to the delta).",
		latencyBuckets)
	AppendBatchRows = Default.Histogram("cohana_append_batch_rows",
		"Rows per accepted append batch.",
		rowsBuckets)
	AppendRowsTotal = Default.Counter("cohana_append_rows_total",
		"Rows accepted into the uncompressed delta tier.")
	AppendBatchesTotal = Default.Counter("cohana_append_batches_total",
		"Append batches accepted.")
	JournalFsyncSeconds = Default.Histogram("cohana_journal_fsync_seconds",
		"Journal fsync latency in seconds (one per journaled batch).",
		latencyBuckets)
	CompactSeconds = Default.Histogram("cohana_compact_seconds",
		"Shard compaction latency in seconds (delta merge, persist, swap, journal rewrite).",
		latencyBuckets)
	CompactionsTotal = Default.Counter("cohana_compactions_total",
		"Shard compactions completed.")
	ChunksRebuiltTotal = Default.Counter("cohana_chunks_rebuilt_total",
		"Chunks rebuilt by compaction (touched by delta users).")
	ChunksReusedTotal = Default.Counter("cohana_chunks_reused_total",
		"Sealed chunks reused verbatim by compaction (untouched by delta users).")
	PersistedBytesTotal = Default.Counter("cohana_persisted_bytes_total",
		"Bytes written to segment files by incremental persistence.")
	SegmentsWrittenTotal = Default.Counter("cohana_segments_written_total",
		"Content-addressed segment files written by persistence.")
	SegmentsReusedTotal = Default.Counter("cohana_segments_reused_total",
		"Content-addressed segment files reused verbatim by persistence.")
)

// Lazy chunk loading and the process-wide chunk cache.
var (
	SegmentReadsTotal = Default.Counter("cohana_segment_reads_total",
		"Chunk segment files read from disk (lazy cold loads plus eager table opens).")
	ChunkCacheHitsTotal = Default.Counter("cohana_chunk_cache_hits_total",
		"Chunk pins satisfied by a resident decoded segment (no disk read).")
	ChunkCacheMissesTotal = Default.Counter("cohana_chunk_cache_misses_total",
		"Chunk pins that had to load and decode a segment from disk.")
	ChunkCacheEvictionsTotal = Default.Counter("cohana_chunk_cache_evictions_total",
		"Decoded segments evicted from the chunk cache under the memory budget.")
	ChunkCacheResidentBytes = Default.Gauge("cohana_chunk_cache_resident_bytes",
		"Decoded segment bytes currently resident in the chunk cache.")
	ChunkColdLoadSeconds = Default.Histogram("cohana_chunk_cold_load_seconds",
		"Latency of loading and decoding one chunk segment on first touch.",
		latencyBuckets)
)

// Per-table state, refreshed from the catalog at scrape time.
var (
	TableShards = Default.GaugeVec("cohana_table_shards",
		"Shards per table.", "table")
	TableGeneration = Default.GaugeVec("cohana_table_generation",
		"Table generation (+1 per acknowledged append batch and per compaction swap; a reload continues it).", "table")
	TableDeltaRows = Default.GaugeVec("cohana_table_delta_rows",
		"Uncompressed delta rows per table awaiting compaction.", "table")
	TableSealedRows = Default.GaugeVec("cohana_table_sealed_rows",
		"Sealed (compressed) rows per table.", "table")
)
