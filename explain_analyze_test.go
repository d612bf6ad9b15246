package cohana

import (
	"context"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cohort"
	"repro/internal/plan"
)

// TestExplainAnalyzePinned pins the EXPLAIN ANALYZE output shape: the static
// plan followed by a measured execution tree whose per-shard and per-chunk
// lines carry rows/bytes/ns, with the delta union and plan-cache outcome
// visible — and whose counters agree exactly with cohort.ExecStats collected
// from an identical execution (the counters are deterministic for a fixed
// table state).
func TestExplainAnalyzePinned(t *testing.T) {
	eng, err := NewEngine(PaperTable1(), Options{ChunkSize: 3}) // one player per chunk
	if err != nil {
		t.Fatal(err)
	}
	// Two delta rows so the measured tree includes the union row scan.
	for _, row := range [][]any{
		{"newbie", int64(1368928800), "shop", "dwarf", "Narnia", int64(5)},
		{"newbie", int64(1369015200), "shop", "dwarf", "Narnia", int64(50)},
	} {
		if err := eng.Append(row...); err != nil {
			t.Fatal(err)
		}
	}
	const q = `SELECT country, COHORTSIZE, AGE, Avg(gold)
		FROM D
		AGE ACTIVITIES IN action = "shop"
		BIRTH FROM action = "shop" AND role = "dwarf"
		COHORT BY country`

	out := explain(t, eng, "EXPLAIN ANALYZE "+q)
	for _, want := range []string{
		"Optimized plan", // static half still present
		"Execution (EXPLAIN ANALYZE, measured):",
		"query:",
		"prepare:",
		"plan_cache=miss", // first time this engine sees the text
		"shard 0:",
		"chunks_total=3",
		"chunk 0:",
		"rows_scanned=",
		"value_bytes_decoded=",
		"encoded_checks=",
		"users_skipped_by_birth=",
		"delta union:",
		"result_rows=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}
	// Every measured line carries a duration (µs/ms/s suffix).
	measured := out[strings.Index(out, "Execution (EXPLAIN ANALYZE"):]
	durRE := regexp.MustCompile(`: [0-9.]+(µs|ms|s)`)
	for _, line := range strings.Split(measured, "\n")[1:] {
		if strings.TrimSpace(line) == "" {
			continue
		}
		if !durRE.MatchString(line) {
			t.Errorf("measured line without duration: %q", line)
		}
	}

	// The same text under a plain EXPLAIN keeps the unmeasured form.
	if static := explain(t, eng, "EXPLAIN "+q); strings.Contains(static, "measured") {
		t.Errorf("plain EXPLAIN executed the query:\n%s", static)
	}

	// Consistency with ExecStats: a traced run's aggregated counters equal a
	// stats-collected run of the same plan over the same snapshot.
	stmt, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	traced, err := stmt.Run(context.Background(), snap, RunOpts{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	root := traced.Trace
	var stats cohort.ExecStats
	if _, err := plan.ExecuteCached(eng.planCache, stmt.p, snap.shardInputs(), plan.ExecOptions{Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	sh := root.Find("shard 0")
	if sh == nil {
		t.Fatalf("trace has no shard span:\n%s", root.Render())
	}
	if got, want := sh.Int("rows_scanned"), stats.RowsScanned.Load(); got != want {
		t.Errorf("trace rows_scanned = %d, ExecStats = %d", got, want)
	}
	if got, want := sh.Int("value_bytes_decoded"), stats.ValueBytesDecoded.Load(); got != want {
		t.Errorf("trace value_bytes_decoded = %d, ExecStats = %d", got, want)
	}
	if got, want := sh.Int("encoded_checks"), stats.EncodedChecks.Load(); got != want {
		t.Errorf("trace encoded_checks = %d, ExecStats = %d", got, want)
	}
	if got, want := sh.Int("users_skipped_by_birth"), stats.UsersSkippedByBirth.Load(); got != want {
		t.Errorf("trace users_skipped_by_birth = %d, ExecStats = %d", got, want)
	}
	if got, want := sh.Int("chunks_scanned"), stats.ChunksScanned.Load(); got != want {
		t.Errorf("trace chunks_scanned = %d, ExecStats = %d", got, want)
	}
	if got, want := sh.Int("chunks_pruned"), stats.ChunksPruned.Load(); got != want {
		t.Errorf("trace chunks_pruned = %d, ExecStats = %d", got, want)
	}
	// Per-chunk spans sum to the shard aggregates.
	var chunkRows, chunkBytes, chunkSkipped int64
	for _, c := range sh.Children {
		if strings.HasPrefix(c.Name, "chunk ") {
			chunkRows += c.Int("rows_scanned")
			chunkBytes += c.Int("value_bytes_decoded")
			chunkSkipped += c.Int("users_skipped_by_birth")
		}
	}
	if chunkRows != sh.Int("rows_scanned") || chunkBytes != sh.Int("value_bytes_decoded") ||
		chunkSkipped != sh.Int("users_skipped_by_birth") {
		t.Errorf("chunk spans (rows=%d bytes=%d skipped=%d) do not sum to shard aggregates (rows=%d bytes=%d skipped=%d)",
			chunkRows, chunkBytes, chunkSkipped, sh.Int("rows_scanned"), sh.Int("value_bytes_decoded"), sh.Int("users_skipped_by_birth"))
	}
	// And the measured text agrees with the span numbers it renders.
	rowsRE := regexp.MustCompile(`shard 0:.*[ ,]rows_scanned=(\d+)`)
	m := rowsRE.FindStringSubmatch(measured)
	if m == nil {
		t.Fatalf("no shard rows_scanned in measured output:\n%s", measured)
	}
	if n, _ := strconv.ParseInt(m[1], 10, 64); n != stats.RowsScanned.Load() {
		t.Errorf("rendered rows_scanned = %d, ExecStats = %d", n, stats.RowsScanned.Load())
	}
}

// TestExplainAnalyzeSharded covers a sharded table, which runs as one chunk
// schedule over both shards: the plan says so, every shard gets its own
// measured span, and the one merge is reported.
func TestExplainAnalyzeSharded(t *testing.T) {
	full := Generate(GenConfig{Users: 60, Days: 10, MeanActions: 6, Seed: 11})
	eng, err := NewEngine(full, Options{ChunkSize: 300, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	const q = `SELECT country, COHORTSIZE, AGE, Sum(gold)
		FROM G BIRTH FROM action = "launch" COHORT BY country`
	const shardsLine = "\nShards: 2 (one chunk schedule, partitioned by user hash)\n"
	if out := explain(t, eng, "EXPLAIN "+q); !strings.Contains(out, shardsLine) {
		t.Errorf("sharded EXPLAIN missing %q:\n%s", shardsLine, out)
	}
	out := explain(t, eng, "EXPLAIN ANALYZE "+q)
	for _, want := range []string{shardsLine, "shard 0:", "shard 1:", "merge:"} {
		if !strings.Contains(out, want) {
			t.Errorf("sharded EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}
}

// TestExplainAnalyzeMixed runs the WITH-wrapped form: the inner cohort query
// is traced and the outer SQL evaluation gets its own span.
func TestExplainAnalyzeMixed(t *testing.T) {
	eng := paperEngine(t)
	out := explain(t, eng, `EXPLAIN ANALYZE
		WITH c AS (
			SELECT country, Count() FROM D BIRTH FROM action = "launch" COHORT BY country
		)
		SELECT country FROM c ORDER BY country LIMIT 3`)
	for _, want := range []string{"Mixed query", "outer sql:", "query:"} {
		if !strings.Contains(out, want) {
			t.Errorf("mixed EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}
}

// TestParseExplain pins which prefixes Prepare reads as EXPLAIN and EXPLAIN
// ANALYZE: the keywords are case-insensitive, separated by any whitespace,
// and must be whole words.
func TestParseExplain(t *testing.T) {
	eng := paperEngine(t)
	const q = `SELECT country, Count() FROM D BIRTH FROM action = "launch" COHORT BY country`
	for _, tc := range []struct {
		src              string
		explain, analyze bool
		ok               bool
	}{
		{"EXPLAIN " + q, true, false, true},
		{"  explain analyze " + q, true, true, true},
		{"Explain\n\tAnalyze\n" + q, true, true, true},
		{q, false, false, true},
		{"EXPLAINANALYZE " + q, false, false, false},
		{"EXPLAIN", false, false, false},
		{"explainer " + q, false, false, false},
	} {
		stmt, err := eng.Prepare(tc.src)
		if (err == nil) != tc.ok {
			t.Errorf("Prepare(%q) error = %v, want ok %v", tc.src, err, tc.ok)
			continue
		}
		if err == nil && (stmt.p.Stmt.Explain != tc.explain || stmt.p.Stmt.Analyze != tc.analyze) {
			t.Errorf("Prepare(%q) = explain %v analyze %v, want %v %v",
				tc.src, stmt.p.Stmt.Explain, stmt.p.Stmt.Analyze, tc.explain, tc.analyze)
		}
	}
}
