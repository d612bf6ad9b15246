package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported number. BENCHMARK.json lists the same names,
// units, directions and bounds; main_test.go keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; 0 for
	// per-layer metrics, which are reported and not gated.
	Bound float64
}

// endToEnd are the numbers a user of the served system sees. Every workload
// reports every one of them.
var endToEnd = []metricDef{
	{"queries_per_s", "1/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"rss_p50_mb", "MB", "lower", 0.25},
	{"disk_bytes_per_row", "B/row", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the numbers of single layers, named after the repository's
// modules (client is the harness itself). README.md says which end-to-end
// metric each should move, on which workload.
var perLayer = []metricDef{
	{Name: "client.noop_roundtrip_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.late_ratio", Unit: "ratio", Better: "lower"},
	{Name: "client.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "client.count_full_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.count_born_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.avg_full_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.avg_born_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.query_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.cold_first_query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "client.append_ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.append_ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.append_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.datagen_s", Unit: "s", Better: "lower"},

	{Name: "server.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "server.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "server.self_ms", Unit: "ms", Better: "lower"},
	{Name: "server.result_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.response_bytes_per_op", Unit: "B", Better: "lower"},

	{Name: "parser.parse_us", Unit: "us", Better: "lower"},
	{Name: "plan.prepare_miss_us", Unit: "us", Better: "lower"},
	{Name: "plan.prepare_hit_us", Unit: "us", Better: "lower"},
	{Name: "plan.fingerprint_us", Unit: "us", Better: "lower"},
	{Name: "plan.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "plan.rebinds", Unit: "count", Better: "lower"},
	{Name: "plan.chunks_pruned_ratio", Unit: "ratio", Better: "higher"},

	{Name: "cohort.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "cohort.scan_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cohort.rows_scanned_per_op", Unit: "count", Better: "lower"},
	{Name: "cohort.value_bytes_decoded_per_op", Unit: "B", Better: "lower"},
	{Name: "cohort.encoded_checks_per_op", Unit: "count", Better: "lower"},
	{Name: "cohort.runs_evaluated_per_op", Unit: "count", Better: "lower"},
	{Name: "cohort.rows_per_run", Unit: "count", Better: "higher"},
	{Name: "cohort.execute_delta_ms", Unit: "ms", Better: "lower"},
	{Name: "cohort.delta_rows_at_query", Unit: "count", Better: "lower"},

	{Name: "storage.build_s", Unit: "s", Better: "lower"},
	{Name: "storage.commit_s", Unit: "s", Better: "lower"},
	{Name: "storage.open_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.pin_decode_ms_per_chunk", Unit: "ms", Better: "lower"},
	{Name: "storage.pin_hit_us", Unit: "us", Better: "lower"},
	{Name: "storage.chunk_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "storage.chunk_cache_evictions", Unit: "count", Better: "lower"},
	{Name: "storage.segment_reads", Unit: "count", Better: "lower"},
	{Name: "storage.resident_mb", Unit: "MB", Better: "lower"},
	{Name: "storage.decoded_mb", Unit: "MB", Better: "lower"},
	{Name: "storage.budget_mb", Unit: "MB", Better: "lower"},
	{Name: "storage.merge_delta_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.commit_delta_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.disk_bytes", Unit: "B", Better: "lower"},

	{Name: "ingest.append_ms_per_batch", Unit: "ms", Better: "lower"},
	{Name: "ingest.journal_fsyncs", Unit: "count", Better: "lower"},
	{Name: "ingest.journal_fsync_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.journal_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "ingest.compactions", Unit: "count", Better: "higher"},
	{Name: "ingest.compactions_min_per_shard", Unit: "count", Better: "higher"},
	{Name: "ingest.compact_busy_s", Unit: "s", Better: "lower"},
	{Name: "ingest.compact_busy_ratio", Unit: "ratio", Better: "lower"},
	{Name: "ingest.chunks_rebuilt", Unit: "count", Better: "lower"},
	{Name: "ingest.chunks_reused", Unit: "count", Better: "higher"},
	{Name: "ingest.persist_bytes_per_appended_byte", Unit: "ratio", Better: "lower"},
	{Name: "ingest.compaction_stall_ratio", Unit: "ratio", Better: "lower"},

	{Name: "obs.metrics_overhead_pct", Unit: "%", Better: "lower"},

	{Name: "trace.unaccounted_pct", Unit: "%", Better: "lower"},
}

// metrics maps every defined metric name to its value. A metric that does
// not apply to a workload (append latency on a read-only one) stays 0.
type metrics map[string]float64

func newMetrics() metrics {
	m := metrics{}
	for _, d := range endToEnd {
		m[d.Name] = 0
	}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

// set records a value; an undefined name is a bug in the harness.
func (m metrics) set(name string, v float64) {
	if _, ok := m[name]; !ok {
		panic("metric " + name + " is not defined in metrics.go")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = v
}

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule; 0
// for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func formatMetric(d metricDef, v float64) string {
	return fmt.Sprintf("%-42s %14.4f %s", d.Name, v, d.Unit)
}
