package bench

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestJSONReportShape(t *testing.T) {
	wl := NewWorkload(60, 9)
	opts := FigureOptions{Scales: []int{1, 2}, Repeats: 1}
	rep, err := JSONReport(context.Background(), wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Queries) != len(CoreQueryNames)*2 {
		t.Fatalf("report has %d records, want %d", len(rep.Queries), len(CoreQueryNames)*2)
	}
	for _, qr := range rep.Queries {
		if qr.NsPerOp <= 0 || qr.Rows <= 0 || qr.RowsPerSec <= 0 {
			t.Fatalf("degenerate record %+v", qr)
		}
	}
	// Scale 2 scans more rows than scale 1 for the same query.
	if rep.Queries[0].Rows >= rep.Queries[1].Rows {
		t.Fatalf("rows did not grow with scale: %+v vs %+v", rep.Queries[0], rep.Queries[1])
	}
	// The shard-scaling sweep covers every configured count with sane
	// measurements, and the hot-delta compaction gets cheaper — not more
	// expensive — as shards are added: only the owning shards rebuild.
	if len(rep.ShardScaling) != len(ShardScales) {
		t.Fatalf("shard scaling has %d entries, want %d", len(rep.ShardScaling), len(ShardScales))
	}
	for _, s := range rep.ShardScaling {
		if s.BuildNsPerOp <= 0 || s.CompactUniformNsPerOp <= 0 || s.CompactHotNsPerOp <= 0 {
			t.Fatalf("degenerate shard-scaling record %+v", s)
		}
	}
	if rep.MaxProcs <= 0 {
		t.Fatalf("report missing MaxProcs: %+v", rep)
	}
	// The plan-cache repeat sweep covers every core query, each missing
	// exactly once on the shared cache and hitting on every repeat.
	if len(rep.PlanCacheRepeat) != len(CoreQueryNames) {
		t.Fatalf("plan-cache repeat has %d entries, want %d", len(rep.PlanCacheRepeat), len(CoreQueryNames))
	}
	for i, p := range rep.PlanCacheRepeat {
		if p.ColdNsPerOp <= 0 || p.WarmNsPerOp <= 0 {
			t.Fatalf("degenerate plan-cache record %+v", p)
		}
		if p.Misses != uint64(i+1) || p.Hits < p.Misses {
			t.Fatalf("plan-cache record %d counters = %d hits / %d misses", i, p.Hits, p.Misses)
		}
	}
	// Every pushdown tier evaluates predicates in the encoded domain.
	if len(rep.PushdownSweep) == 0 {
		t.Fatal("report has no pushdown sweep")
	}
	for _, p := range rep.PushdownSweep {
		if p.EncodedChecks <= 0 || p.RowsScanned <= 0 || p.BytesDecoded <= 0 {
			t.Fatalf("degenerate pushdown record %+v", p)
		}
	}

	// The metrics-overhead sweep covers every core query with sane
	// measurements on both sides of the comparison.
	if len(rep.MetricsOverhead) != len(CoreQueryNames) {
		t.Fatalf("metrics overhead has %d entries, want %d", len(rep.MetricsOverhead), len(CoreQueryNames))
	}
	for _, p := range rep.MetricsOverhead {
		if p.InstrumentedNsPerOp <= 0 || p.NoopNsPerOp <= 0 {
			t.Fatalf("degenerate metrics-overhead record %+v", p)
		}
	}

	// The cold-start sweep records both budgets: opens read zero segments,
	// and the budgeted case stays within its budget once the first query
	// finishes.
	if rep.ColdStart == nil || len(rep.ColdStart.Cases) != 2 {
		t.Fatalf("cold start sweep = %+v, want 2 cases", rep.ColdStart)
	}
	if rep.ColdStart.Chunks <= 0 || rep.ColdStart.SegmentBytes <= 0 {
		t.Fatalf("degenerate cold-start table: %+v", rep.ColdStart)
	}
	for _, c := range rep.ColdStart.Cases {
		if c.OpenNsPerOp <= 0 || c.FirstQueryNsPerOp <= 0 {
			t.Fatalf("degenerate cold-start case %+v", c)
		}
		if c.OpenSegmentReads != 0 {
			t.Fatalf("%s open read %d segments, want 0", c.Mode, c.OpenSegmentReads)
		}
		if c.BudgetBytes > 0 && c.ResidentBytes > c.BudgetBytes {
			t.Fatalf("%s resident %d bytes over budget %d", c.Mode, c.ResidentBytes, c.BudgetBytes)
		}
	}

	// The written file is valid, parseable JSON and round-trips through
	// ReadReport (the baseline-gate path).
	path := filepath.Join(t.TempDir(), "perf.json")
	if _, err := WriteJSONReport(context.Background(), path, wl, opts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("written report is not valid JSON: %v", err)
	}
	if back.Users != 60 || len(back.Queries) == 0 {
		t.Fatalf("round-tripped report = %+v", back)
	}
	reread, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	// The gate cases below compare copies of one report whose wall-time
	// fields are pinned where a gate reads them within a single report: the
	// instrumented warm path equals the no-op one and every cold-start open
	// takes the same time. Only the field a case mutates can then trip a
	// gate, however slow or noisy the measuring run was.
	pinned := *reread
	pinned.MetricsOverhead = append([]MetricsOverheadReport(nil), reread.MetricsOverhead...)
	for i := range pinned.MetricsOverhead {
		pinned.MetricsOverhead[i].InstrumentedNsPerOp = pinned.MetricsOverhead[i].NoopNsPerOp
		pinned.MetricsOverhead[i].OverheadPct = 0
	}
	pinnedCS := *reread.ColdStart
	pinnedCS.Cases = append([]ColdStartCase(nil), reread.ColdStart.Cases...)
	for i := range pinnedCS.Cases {
		pinnedCS.Cases[i].OpenNsPerOp = pinnedCS.Cases[0].OpenNsPerOp
	}
	pinned.ColdStart = &pinnedCS

	// A report never regresses against itself; a regression far above the
	// noise floor is caught, while one hiding inside the sub-millisecond
	// floor is not.
	if v := CompareReports(&pinned, &pinned, 2.0); len(v) != 0 {
		t.Fatalf("self-comparison found regressions: %v", v)
	}
	slow := pinned
	slow.Queries = append([]QueryReport(nil), pinned.Queries...)
	slow.Queries[0].NsPerOp = slow.Queries[0].NsPerOp*3 + 10*compareFloorNs
	if v := CompareReports(&slow, &pinned, 2.0); len(v) != 1 {
		t.Fatalf("big slowdown produced %d violations, want 1: %v", len(v), v)
	}
	tiny := pinned
	tiny.Queries = append([]QueryReport(nil), pinned.Queries...)
	tiny.Queries[0].NsPerOp = compareFloorNs // micro-op jitter, below factor*floor
	if v := CompareReports(&tiny, &pinned, 2.0); len(v) != 0 {
		t.Fatalf("sub-floor jitter tripped the gate: %v", v)
	}

	// A plan cache that stops serving repeats trips the structural gate even
	// though the baseline carries the same (broken) counters.
	stale := pinned
	stale.PlanCacheRepeat = append([]PlanCacheRepeatReport(nil), pinned.PlanCacheRepeat...)
	stale.PlanCacheRepeat[0].Hits = 0
	if v := CompareReports(&stale, &stale, 2.0); len(v) != 1 {
		t.Fatalf("dead plan cache produced %d violations, want 1: %v", len(v), v)
	}
	// A pushdown that compiles no encoded-domain check trips the structural
	// gate the same way.
	flat := pinned
	flat.PushdownSweep = append([]PushdownSweepReport(nil), pinned.PushdownSweep...)
	flat.PushdownSweep[0].EncodedChecks = 0
	if v := CompareReports(&flat, &flat, 2.0); len(v) != 1 {
		t.Fatalf("flat pushdown produced %d violations, want 1: %v", len(v), v)
	}
	// A pushdown decoding far more bytes than the baseline recorded trips
	// the byte-regression gate (bytes are deterministic, so this means
	// predicates fell off the encoded path).
	bloat := pinned
	bloat.PushdownSweep = append([]PushdownSweepReport(nil), pinned.PushdownSweep...)
	bloat.PushdownSweep[0].BytesDecoded = 3 * max(pinned.PushdownSweep[0].BytesDecoded, compareFloorBytes)
	if v := CompareReports(&bloat, &pinned, 2.0); len(v) != 1 {
		t.Fatalf("byte-bloated pushdown produced %d violations, want 1: %v", len(v), v)
	}
	// An instrumented warm path far above the same-run no-op measurement
	// trips the metrics-overhead gate, even against an identical baseline
	// (the check is structural, within cur); jitter under the 1ms floor
	// does not.
	heavy := pinned
	heavy.MetricsOverhead = append([]MetricsOverheadReport(nil), pinned.MetricsOverhead...)
	heavy.MetricsOverhead[0].NoopNsPerOp = 2 * compareFloorNs
	heavy.MetricsOverhead[0].InstrumentedNsPerOp = 4 * compareFloorNs
	if v := CompareReports(&heavy, &heavy, 2.0); len(v) != 1 {
		t.Fatalf("heavy instrumentation produced %d violations, want 1: %v", len(v), v)
	}
	jitter := pinned
	jitter.MetricsOverhead = append([]MetricsOverheadReport(nil), pinned.MetricsOverhead...)
	jitter.MetricsOverhead[0].NoopNsPerOp = compareFloorNs / 10
	jitter.MetricsOverhead[0].InstrumentedNsPerOp = compareFloorNs / 5 // 2x, but sub-floor
	if v := CompareReports(&jitter, &pinned, 2.0); len(v) != 0 {
		t.Fatalf("sub-floor metrics jitter tripped the gate: %v", v)
	}
	// The cold-start gate is structural within cur: a lazy open that starts
	// reading segments trips it even against an identical baseline, as does
	// a budgeted cache that ends over its budget.
	withColdStart := func(mut func(cs *ColdStartReport)) *Report {
		r := pinned
		cs := *pinned.ColdStart
		cs.Cases = append([]ColdStartCase(nil), pinned.ColdStart.Cases...)
		mut(&cs)
		r.ColdStart = &cs
		return &r
	}
	warm := withColdStart(func(cs *ColdStartReport) { cs.Cases[0].OpenSegmentReads = 5 })
	if v := CompareReports(warm, warm, 2.0); len(v) != 1 {
		t.Fatalf("segment-reading lazy open produced %d violations, want 1: %v", len(v), v)
	}
	overBudget := withColdStart(func(cs *ColdStartReport) {
		cs.Cases[1].ResidentBytes = cs.Cases[1].BudgetBytes + 1
	})
	if v := CompareReports(overBudget, overBudget, 2.0); len(v) != 1 {
		t.Fatalf("over-budget resident bytes produced %d violations, want 1: %v", len(v), v)
	}
}
