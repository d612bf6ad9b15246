package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// The JSON perf report is the machine-readable counterpart of the printed
// figures: one record per (query, scale) with ns/op and rows/s, written by
// `cohana-bench -json out.json` so the performance trajectory can be diffed
// across PRs instead of eyeballed from tables.

// Report is the top-level JSON document.
type Report struct {
	// GeneratedAt is the RFC3339 UTC timestamp of the run.
	GeneratedAt string `json:"generatedAt"`
	// Users and Seed identify the synthetic workload; ChunkSize and Repeats
	// the measurement configuration. MaxProcs is the core budget of the
	// run, which bounds every parallel speedup below.
	Users     int   `json:"users"`
	Seed      int64 `json:"seed"`
	ChunkSize int   `json:"chunkSize"`
	Repeats   int   `json:"repeats"`
	MaxProcs  int   `json:"maxProcs"`
	// Queries holds one record per (query, scale), in CoreQueryNames order.
	Queries []QueryReport `json:"queries"`
	// ShardScaling holds the build/compaction shard-count sweep at the
	// largest configured scale.
	ShardScaling []ShardScaleReport `json:"shardScaling"`
	// CompactionPersist holds the uniform-vs-zipf compaction bytes-written
	// sweep at the largest configured scale: the write-amplification metric
	// of chunk-granular incremental persistence.
	CompactionPersist []CompactPersistReport `json:"compactionPersist"`
	// PlanCacheRepeat holds the cold-vs-warm repeat-query measurement at
	// the largest configured scale: what a cached compiled plan saves.
	PlanCacheRepeat []PlanCacheRepeatReport `json:"planCacheRepeat"`
	// PushdownSweep holds the decoded-bytes-by-selectivity sweep at the
	// largest configured scale: what the encoded-domain predicate pushdown
	// still decodes.
	PushdownSweep []PushdownSweepReport `json:"pushdownSweep"`
	// MetricsOverhead holds the instrumented-vs-noop warm-query measurement
	// at the largest configured scale: what the always-on metrics layer
	// costs on the hot path.
	MetricsOverhead []MetricsOverheadReport `json:"metricsOverhead"`
	// ColdStart holds the reopen sweep at the largest configured scale: open
	// latency, open-time segment reads, first-query latency and resident
	// decoded bytes at chunk-cache budgets {10%, 100%}.
	ColdStart *ColdStartReport `json:"coldStart"`
}

// QueryReport is one measured query execution.
type QueryReport struct {
	Query string `json:"query"`
	Scale int    `json:"scale"`
	// Rows is the activity table size the query scanned over.
	Rows int `json:"rows"`
	// NsPerOp is the median execution time in nanoseconds.
	NsPerOp int64 `json:"nsPerOp"`
	// RowsPerSec is the scan throughput implied by NsPerOp.
	RowsPerSec float64 `json:"rowsPerSec"`
	// ResultRows sanity-checks that the measured run produced output.
	ResultRows int `json:"resultRows"`
}

// JSONReport measures Q1-Q4 at every configured scale and returns the
// report. The chunk size is the first of opts.ChunkSizes (the sweep's
// smallest by default), matching the figures' build configuration.
func JSONReport(ctx context.Context, wl *Workload, opts FigureOptions) (*Report, error) {
	opts = opts.withDefaults()
	chunkSize := opts.ChunkSizes[0]
	rep := &Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Users:       wl.BaseUsers,
		Seed:        wl.Seed,
		ChunkSize:   chunkSize,
		Repeats:     opts.Repeats,
		MaxProcs:    MaxProcs(),
	}
	queries := CoreQueries()
	for _, qn := range CoreQueryNames {
		q := queries[qn]
		for _, scale := range opts.Scales {
			wl.Store(scale, chunkSize) // build outside the timer
			var resultRows int
			d := timeIt(opts.Repeats, func() {
				_, res, err := wl.Run(COHANA, q, scale, chunkSize)
				if err != nil {
					panic(err)
				}
				resultRows = len(res.Rows)
			})
			rows := wl.Source(scale).Len()
			qr := QueryReport{
				Query:      qn,
				Scale:      scale,
				Rows:       rows,
				NsPerOp:    d.Nanoseconds(),
				ResultRows: resultRows,
			}
			if d > 0 {
				qr.RowsPerSec = float64(rows) / d.Seconds()
			}
			rep.Queries = append(rep.Queries, qr)
		}
	}
	// Shard scaling runs at the largest scale, where build and compaction
	// costs are big enough to measure.
	maxScale := opts.Scales[0]
	for _, s := range opts.Scales {
		if s > maxScale {
			maxScale = s
		}
	}
	scaling, err := ShardScaling(ctx, wl, maxScale, chunkSize, opts.Repeats)
	if err != nil {
		return nil, err
	}
	rep.ShardScaling = scaling
	persist, err := CompactionPersist(ctx, wl, maxScale, chunkSize, 4000)
	if err != nil {
		return nil, err
	}
	rep.CompactionPersist = persist
	repeat, err := PlanCacheRepeat(wl, maxScale, chunkSize, opts.Repeats)
	if err != nil {
		return nil, err
	}
	rep.PlanCacheRepeat = repeat
	pushdown, err := PushdownSweep(wl, maxScale, chunkSize, opts.Repeats)
	if err != nil {
		return nil, err
	}
	rep.PushdownSweep = pushdown
	overhead, err := MetricsOverhead(wl, maxScale, chunkSize, opts.Repeats)
	if err != nil {
		return nil, err
	}
	rep.MetricsOverhead = overhead
	cold, err := ColdStart(wl, maxScale, opts.Repeats)
	if err != nil {
		return nil, err
	}
	rep.ColdStart = cold
	return rep, nil
}

// WriteJSONReport measures and writes the report to path, indented for
// human diffing, and returns it for baseline comparison.
func WriteJSONReport(ctx context.Context, path string, wl *Workload, opts FigureOptions) (*Report, error) {
	rep, err := JSONReport(ctx, wl, opts)
	if err != nil {
		return nil, err
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return nil, err
	}
	return rep, nil
}

// ReadReport loads a report written by WriteJSONReport (e.g. the checked-in
// baseline).
func ReadReport(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("bench: parsing report %s: %w", path, err)
	}
	return &rep, nil
}

// compareFloorNs is the noise floor of the regression gate: measurements
// are compared against at least this baseline (1ms), because the jitter of
// a sub-millisecond query on a shared CI runner routinely exceeds any
// sensible slowdown factor. A query that was 70µs and is now 150µs is
// within scheduling noise; one that was 70µs and is now 3ms still trips the
// gate through the floor.
const compareFloorNs = int64(1_000_000)

// compareFloorBytes is the noise floor of the write-amplification gate:
// persisted-bytes baselines are clamped up to this value (4KB) so tiny
// manifests don't flake the ratio. Unlike latency, bytes written are
// deterministic for a fixed workload, so the floor only guards against
// format-overhead jitter on near-empty commits.
const compareFloorBytes = int64(4 << 10)

// CompareReports checks cur against a baseline: every (query, scale) pair
// present in both must not have slowed by more than factor (e.g. 2.0 fails
// on a >2x ns/op regression), with baselines clamped up to compareFloorNs
// so micro-measurements don't flake the gate; and every compaction-persist
// shard count present in both must not write more than factor times the
// baseline's bytes (the write-amplification gate). It returns one
// human-readable line per violation; an empty slice means the gate passes.
// Pairs only in one report are ignored, so adding queries, scales or sweeps
// never breaks an old baseline.
func CompareReports(cur, base *Report, factor float64) []string {
	baseline := make(map[string]QueryReport, len(base.Queries))
	for _, q := range base.Queries {
		baseline[fmt.Sprintf("%s@%d", q.Query, q.Scale)] = q
	}
	var violations []string
	for _, q := range cur.Queries {
		b, ok := baseline[fmt.Sprintf("%s@%d", q.Query, q.Scale)]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		floor := b.NsPerOp
		if floor < compareFloorNs {
			floor = compareFloorNs
		}
		if ratio := float64(q.NsPerOp) / float64(floor); ratio > factor {
			violations = append(violations,
				fmt.Sprintf("%s scale %d: %.2fx over the gate (%d ns/op vs baseline %d ns/op)",
					q.Query, q.Scale, ratio, q.NsPerOp, b.NsPerOp))
		}
	}
	basePersist := make(map[int]CompactPersistReport, len(base.CompactionPersist))
	for _, p := range base.CompactionPersist {
		basePersist[p.Shards] = p
	}
	checkBytes := func(shards int, kind string, cur, base int64) {
		if base <= 0 {
			return
		}
		floor := base
		if floor < compareFloorBytes {
			floor = compareFloorBytes
		}
		if ratio := float64(cur) / float64(floor); ratio > factor {
			violations = append(violations,
				fmt.Sprintf("compaction persist (%s) at %d shards: %.2fx write amplification over the gate (%d bytes vs baseline %d bytes)",
					kind, shards, ratio, cur, base))
		}
	}
	for _, p := range cur.CompactionPersist {
		// The chunk-granularity property itself, independent of any
		// baseline: whenever the hot-user (zipf) delta touched fewer chunks
		// than the uniform one — i.e. the workload is big enough for the
		// shapes to differ at all — it must also persist strictly fewer
		// bytes. If it doesn't, compaction has stopped being surgical — a
		// regression a proportional baseline refresh would otherwise hide.
		// (Tiny workloads where both deltas touch every chunk carry no
		// signal and are skipped.)
		if p.Zipf.ChunksRebuilt < p.Uniform.ChunksRebuilt && p.Zipf.BytesWritten >= p.Uniform.BytesWritten {
			violations = append(violations,
				fmt.Sprintf("compaction persist at %d shards: zipf delta rebuilt fewer chunks (%d vs %d) yet wrote %d bytes, not fewer than uniform's %d — chunk-granular compaction is no longer surgical",
					p.Shards, p.Zipf.ChunksRebuilt, p.Uniform.ChunksRebuilt, p.Zipf.BytesWritten, p.Uniform.BytesWritten))
		}
		b, ok := basePersist[p.Shards]
		if !ok {
			continue
		}
		checkBytes(p.Shards, "uniform", p.Uniform.BytesWritten, b.Uniform.BytesWritten)
		checkBytes(p.Shards, "zipf", p.Zipf.BytesWritten, b.Zipf.BytesWritten)
	}
	// The plan-cache repeat gate. The counters are deterministic (each query
	// misses once on the shared cache and hits on every repeat), so they are
	// checked structurally, independent of any baseline; the warm latency is
	// compared against the baseline through the usual noise floor.
	basePC := make(map[string]PlanCacheRepeatReport, len(base.PlanCacheRepeat))
	for _, p := range base.PlanCacheRepeat {
		basePC[fmt.Sprintf("%s@%d", p.Query, p.Scale)] = p
	}
	for _, p := range cur.PlanCacheRepeat {
		if p.Misses == 0 || p.Hits < p.Misses {
			violations = append(violations,
				fmt.Sprintf("plan-cache repeat %s scale %d: %d hits / %d misses — repeated query texts are not being served from the compiled-plan cache",
					p.Query, p.Scale, p.Hits, p.Misses))
		}
		b, ok := basePC[fmt.Sprintf("%s@%d", p.Query, p.Scale)]
		if !ok || b.WarmNsPerOp <= 0 {
			continue
		}
		floor := b.WarmNsPerOp
		if floor < compareFloorNs {
			floor = compareFloorNs
		}
		if ratio := float64(p.WarmNsPerOp) / float64(floor); ratio > factor {
			violations = append(violations,
				fmt.Sprintf("plan-cache repeat %s scale %d: warm path %.2fx over the gate (%d ns/op vs baseline %d ns/op)",
					p.Query, p.Scale, ratio, p.WarmNsPerOp, b.WarmNsPerOp))
		}
	}
	// The pushdown gate. Decoded-byte counters are deterministic for a fixed
	// workload: structurally, every sweep tier must evaluate predicates in
	// the encoded domain; against the baseline, the pushdown path must not
	// decode more than factor times the recorded bytes (which would mean
	// predicates silently fell off the encoded path).
	basePD := make(map[string]PushdownSweepReport, len(base.PushdownSweep))
	for _, p := range base.PushdownSweep {
		basePD[fmt.Sprintf("%s@%d", p.Name, p.Scale)] = p
	}
	for _, p := range cur.PushdownSweep {
		if p.EncodedChecks <= 0 {
			violations = append(violations,
				fmt.Sprintf("pushdown sweep %s scale %d: no encoded-domain predicate checks — the pushdown compiled nothing",
					p.Name, p.Scale))
		}
		b, ok := basePD[fmt.Sprintf("%s@%d", p.Name, p.Scale)]
		if !ok || b.BytesDecoded <= 0 {
			continue
		}
		floor := b.BytesDecoded
		if floor < compareFloorBytes {
			floor = compareFloorBytes
		}
		if ratio := float64(p.BytesDecoded) / float64(floor); ratio > factor {
			violations = append(violations,
				fmt.Sprintf("pushdown sweep %s scale %d: decoded %.2fx the gated bytes (%d vs baseline %d)",
					p.Name, p.Scale, ratio, p.BytesDecoded, b.BytesDecoded))
		}
	}
	// The metrics-overhead gate: the instrumented warm path must stay within
	// metricsOverheadFactor of the no-op path measured in the same run, through
	// the usual noise floor. This is a structural check on cur alone — both
	// sides come from the same process seconds apart, so run-to-run machine
	// variance cancels and the 5% bound can be far tighter than the overall
	// baseline factor.
	for _, p := range cur.MetricsOverhead {
		if p.NoopNsPerOp <= 0 {
			continue
		}
		floor := p.NoopNsPerOp
		if floor < compareFloorNs {
			floor = compareFloorNs
		}
		if ratio := float64(p.InstrumentedNsPerOp) / float64(floor); ratio > metricsOverheadFactor {
			violations = append(violations,
				fmt.Sprintf("metrics overhead %s scale %d: instrumented warm path %.2fx over the no-op gate (%d ns/op vs %d ns/op no-op, +%.1f%%)",
					p.Query, p.Scale, ratio, p.InstrumentedNsPerOp, p.NoopNsPerOp, p.OverheadPct))
		}
	}
	// The cold-start gate. Deterministic checks on cur alone — the O(manifest)
	// open contract holds regardless of machine speed: opens read zero segments,
	// and the budgeted cache ends the first query within its budget. Open
	// and first-query times are reported, not gated.
	if cs := cur.ColdStart; cs != nil {
		for _, c := range cs.Cases {
			if c.OpenSegmentReads != 0 {
				violations = append(violations,
					fmt.Sprintf("cold start %s scale %d: open performed %d segment reads, want 0 — open is no longer O(manifest)",
						c.Mode, cs.Scale, c.OpenSegmentReads))
			}
			if c.BudgetBytes > 0 && c.ResidentBytes > c.BudgetBytes {
				violations = append(violations,
					fmt.Sprintf("cold start %s scale %d: %d resident decoded bytes exceed the %d-byte cache budget",
						c.Mode, cs.Scale, c.ResidentBytes, c.BudgetBytes))
			}
		}
	}
	return violations
}

// metricsOverheadFactor bounds the instrumented warm path at 5% over the
// same-run no-op measurement (clamped up to compareFloorNs): the metrics
// layer must stay cheap enough to leave on in production.
const metricsOverheadFactor = 1.05
