package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/relational"
)

// smokeConfig is the benchmark at a size a test can afford: 300 users and
// half-second windows, every workload in this process.
func smokeConfig(t *testing.T) config {
	return config{
		Workloads: workloads, Seed: 1, WarmupS: 0.15, WindowS: 0.5, Trace: true, Clients: 2,
		Users: 300, Scale: 1, Work: t.TempDir(),
		ColdReps: 3, TraceOps: 60, CompactRows: 128, BurstBatches: 30,
		spawn: func(j job) (*outcome, error) { return runWorkload(j) },
	}
}

// TestSmoke runs all four workloads end to end and holds the report to what
// README.md promises about it.
func TestSmoke(t *testing.T) {
	cfg := smokeConfig(t)
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.print(&buf)
	t.Log(buf.String())

	byName := map[string]workloadReport{}
	for _, wl := range rep.Workloads {
		byName[wl.Name] = wl
		if wl.Failed != 0 || wl.FailedRatio != 0 || wl.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", wl.Name, wl.Failed, wl.Attempted, wl.Failures)
		}
		for _, d := range slices.Concat(endToEnd, perLayer) {
			v, ok := wl.Metrics[d.Name]
			if !ok || v.Unit == "" || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: metric %s missing, without unit or not finite: %+v", wl.Name, d.Name, v)
			}
		}
		for _, d := range endToEnd {
			if wl.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, want > 0", wl.Name, d.Name, wl.Metrics[d.Name].Value)
			}
		}
		checkTrace(t, filepath.Join(cfg.Work, "trace-"+wl.Name+".json"), wl)

		for _, traced := range []bool{false, true} {
			line, err := driverLine(wl, traced)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   *bool                  `json:"correct"`
				Attempted *int                   `json:"attempted"`
				Failed    *int                   `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil || got.Correct == nil || got.Attempted == nil || got.Failed == nil {
				t.Fatalf("driver line %s: %v", line, err)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if len(got.Metrics) != want {
				t.Errorf("driver line (trace %v) carries %d metrics, want %d", traced, len(got.Metrics), want)
			}
		}
	}

	value := func(workload, metric string) float64 { return byName[workload].Metrics[metric].Value }
	if hit := value("adhoc-scan", "server.result_cache_hit_ratio"); hit != 0 {
		t.Errorf("adhoc-scan result cache hit ratio %v, want 0: the cycle must outrun the LRU", hit)
	}
	if hit := value("dashboard-repeat", "server.result_cache_hit_ratio"); hit < 0.99 {
		t.Errorf("dashboard-repeat result cache hit ratio %v, want >= 0.99", hit)
	}
	if a, c := value("adhoc-scan", "storage.chunk_cache_hit_ratio"), value("cold-budget", "storage.chunk_cache_hit_ratio"); a <= c {
		t.Errorf("chunk cache hit ratio adhoc-scan %v <= cold-budget %v: the budgeted workload is mis-sized", a, c)
	}
	if r, b := value("cold-budget", "storage.resident_mb"), value("cold-budget", "storage.budget_mb"); r > b {
		t.Errorf("cold-budget ends with %v MB resident, over its %v MB budget", r, b)
	}
	if n := value("ingest-mixed", "ingest.compactions_min_per_shard"); n < 1 {
		t.Errorf("ingest-mixed: a shard completed %v compactions in the window, want at least 1", n)
	}

	body, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(body, []byte(`"claim":null}`)) {
		t.Errorf("summary does not end with \"claim\": null: ...%s", body[len(body)-40:])
	}
}

// checkTrace reads a workload's trace file back: every span closed, children
// inside their parents, one operation id per tree, and the share table's rows
// — unaccounted included — summing to the traced wall time.
func checkTrace(t *testing.T, path string, wl workloadReport) {
	t.Helper()
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(body, &spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	layers := map[string]bool{}
	for _, s := range spans {
		layers[s.Layer] = true
		if s.End < s.Start {
			t.Errorf("%s: span %d %s ends before it starts", wl.Name, s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Op != s.Op || s.Start < p.Start || s.End > p.End {
			t.Errorf("%s: span %d %s [%d,%d] op %d does not nest in parent %+v", wl.Name, s.ID, s.Name, s.Start, s.End, s.Op, p)
		}
	}
	for _, want := range []string{"client", "server", "parser", "plan"} {
		if !layers[want] {
			t.Errorf("%s: trace has no span of layer %s", wl.Name, want)
		}
	}
	rows, wall := shares(spans)
	var sum float64
	unaccounted := false
	for _, r := range rows {
		sum += r.Ms
		unaccounted = unaccounted || r.Layer == "unaccounted"
	}
	if !unaccounted || wall <= 0 || math.Abs(sum-wall) > 1e-6*wall {
		t.Errorf("%s: share rows sum to %v ms, traced wall time is %v ms (unaccounted row present: %v)", wl.Name, sum, wall, unaccounted)
	}
	if len(wl.Shares) != len(rows) {
		t.Errorf("%s: report has %d share rows, trace file yields %d", wl.Name, len(wl.Shares), len(rows))
	}
}

// TestOracleMatchesBaseline pins the benchmark's fast oracle to
// internal/baseline, float bits included, on Q1-Q4 and on one query of each
// ad-hoc template.
func TestOracleMatchesBaseline(t *testing.T) {
	tbl := gen.Generate(gen.Config{Users: 1500, Seed: 7})
	data := dataset{base: tbl}
	rel := baseline.FromActivity(tbl)
	specs := fixedQueries()
	seen := map[string]bool{}
	for _, s := range adhocCycle(7) {
		if key := s.Template + strings.Join(s.CohortBy, ","); !seen[key] {
			seen[key] = true
			specs = append(specs, s)
		}
	}
	for _, s := range specs {
		stmt, err := parser.ParseCohort(s.text())
		if err != nil {
			t.Fatalf("%s: %v", s.text(), err)
		}
		res, err := baseline.SQLApproach(relational.ColEngine{}, rel, tbl.Schema(), stmt.Query)
		if err != nil {
			t.Fatalf("%s: %v", s.text(), err)
		}
		want := make([]resultRow, len(res.Rows))
		for i, r := range res.Rows {
			aggs := make([]*float64, len(r.Aggs))
			for k := range r.Aggs {
				aggs[k] = &r.Aggs[k]
			}
			want[i] = resultRow{Cohort: r.Cohort, Age: r.Age, Size: r.Size, Aggs: aggs}
		}
		if len(want) == 0 {
			t.Errorf("%s: baseline returns no rows; the query checks nothing", s.text())
		}
		if diff := sameRows(answer(s, data), want); diff != "" {
			t.Errorf("oracle differs from internal/baseline on\n%s\n%s", s.text(), diff)
		}
	}
}

func TestAdhocCycleDistinct(t *testing.T) {
	a, b := adhocCycle(1), adhocCycle(2)
	texts := map[string]bool{}
	for _, s := range a {
		texts[parser.Normalize(s.text())] = true
	}
	if len(texts) != cycleLen {
		t.Fatalf("%d distinct normalized texts, want %d", len(texts), cycleLen)
	}
	for _, s := range fixedQueries() {
		if texts[parser.Normalize(s.text())] {
			t.Errorf("the ad-hoc cycle repeats a gate query, which would be a result-cache hit:\n%s", s.text())
		}
	}
	same := 0
	for i := range a {
		if !texts[parser.Normalize(b[i].text())] {
			t.Fatalf("seed 2 has a text seed 1 lacks: %s", b[i].text())
		}
		if a[i].text() == b[i].text() {
			same++
		}
	}
	if same > cycleLen/10 {
		t.Errorf("seeds 1 and 2 agree on %d of %d positions; the seed should reorder the cycle", same, cycleLen)
	}
}

func TestCheckPin(t *testing.T) {
	var pins []pin
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		t.Fatal(err)
	}
	seeds := map[int64]bool{}
	for _, p := range pins {
		if p.GenUsers != d2Users || p.GenScale != d2Scale || len(p.SHA256) != 64 {
			t.Errorf("pin %+v is not a D2 pin", p)
		}
		seeds[p.Seed] = true
		if err := checkPin(p); err != nil {
			t.Errorf("pin does not match itself: %v", err)
		}
		p.Rows++
		if err := checkPin(p); err == nil {
			t.Errorf("seed %d: a dataset one row off passed the pin", p.Seed)
		}
	}
	if !seeds[1] || !seeds[2] {
		t.Errorf("pins cover seeds %v, want 1 and 2", seeds)
	}
	if err := checkPin(pin{GenUsers: d2Users, GenScale: d2Scale, Seed: 99}); err != nil {
		t.Errorf("an unpinned seed failed the pin: %v", err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and metrics.go in step: same
// workloads, same metric names, units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, workloads)
	}
	same := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, metrics.go %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, metrics.go %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestCheckRepeat(t *testing.T) {
	wl := workloadReport{Name: "adhoc-scan", Attempted: 10, Metrics: map[string]metricValue{}}
	for _, d := range endToEnd {
		wl.Metrics[d.Name] = metricValue{Value: 100, Unit: d.Unit}
	}
	dir := t.TempDir()
	write := func(name string, wl workloadReport) string {
		body, err := json.Marshal(report{Workloads: []workloadReport{wl}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", wl)
	near := wl
	near.Metrics = map[string]metricValue{}
	far := near
	far.Metrics = map[string]metricValue{}
	for k, v := range wl.Metrics {
		near.Metrics[k] = metricValue{Value: v.Value * 1.01, Unit: v.Unit}
		far.Metrics[k] = v
	}
	far.Metrics["query_p50_ms"] = metricValue{Value: 130, Unit: "ms"}
	var buf bytes.Buffer
	if err := checkRepeatFiles(&buf, a, write("near.json", near)); err != nil {
		t.Errorf("a 1%% difference does not repeat: %v\n%s", err, buf.String())
	}
	buf.Reset()
	if err := checkRepeatFiles(&buf, a, write("far.json", far)); err == nil || !strings.Contains(buf.String(), "unresolved") {
		t.Errorf("a 30%% difference on query_p50_ms passed (err %v):\n%s", err, buf.String())
	}
}
