// Command cohana-bench regenerates the paper's evaluation figures
// (Section 5) as printed tables: COHANA's chunk-size sensitivity (Figures 6
// and 7), the birth/age selection sweeps (Figures 8 and 9), preprocessing
// cost (Figure 10), and the five-scheme comparative study (Figure 11).
//
// Usage:
//
//	cohana-bench -fig all -scales 1,2,4 -users 300
//	cohana-bench -fig 11 -scales 1,2,4,8 -max-baseline-scale 4
//	cohana-bench -json perf.json -scales 1,2,4
//	cohana-bench -json perf.json -baseline BENCH_baseline.json
//
// Numbers are machine-local; the reproduction target is the shape of each
// figure (see the "Benchmarks" section of README.md).
// With -json, the printed figures are replaced by a machine-readable perf
// report — ns/op and rows/s for Q1-Q4 per scale, the shard-scaling sweep
// (build and compaction time at 1/2/4 shards), the compaction persisted-bytes
// sweep, the plan-cache repeat-query measurement (cold vs warm front end),
// the pushdown selectivity sweep (value bytes decoded and encoded-domain
// checks under the predicate pushdown), the metrics-overhead measurement
// (the warm query path instrumented vs with metrics compiled to no-ops) and
// the cold-start sweep (eager vs lazy reopen latency, open-time segment
// reads and resident decoded bytes at chunk-cache budgets 10% and 100%) —
// written to the given path, so the performance trajectory can be tracked
// across PRs. With -baseline, the fresh report is additionally compared
// against a previously recorded one and the run exits non-zero when any
// query regressed by more than -regress-factor, when compaction writes more
// than that factor of the baseline's bytes or stops being chunk-granular,
// when repeated queries stop hitting the plan cache, when the pushdown
// compiles no encoded-domain check or decodes more than that factor of the
// baseline's bytes, when the metrics layer costs more than 5% on the warm
// path, or when a lazy open reads segments or overruns its cache budget
// (CI's performance gate).
//
// -cpuprofile and -memprofile write pprof profiles of the run, so kernel
// hot spots and steady-state allocations can be inspected with
// `go tool pprof` without wiring the library into a test binary.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	os.Exit(run())
}

// run is main's body behind an exit code, so the deferred profile writers
// flush on every deliberate exit path — os.Exit in main would skip them.
func run() int {
	fig := flag.String("fig", "all", "figure to regenerate: 6, 7, 8, 9, 10, 11, verify or all")
	users := flag.Int("users", 300, "users at scale 1 (paper: 57077)")
	seed := flag.Int64("seed", 1, "generator seed")
	scales := flag.String("scales", "1,2,4", "comma-separated scale factors (paper: 1..64)")
	chunks := flag.String("chunks", "", "comma-separated chunk sizes for figures 6-7 (default 1K,4K,16K,64K)")
	repeats := flag.Int("repeats", 3, "runs averaged per measurement (paper: 5)")
	maxBaseline := flag.Int("max-baseline-scale", 0, "skip SQL/MV baselines above this scale (0 = never)")
	jsonOut := flag.String("json", "", "write a machine-readable perf report (ns/op, rows/s per query, shard scaling) to this path instead of printing figures")
	baseline := flag.String("baseline", "", "compare the fresh -json report against this recorded report and fail on regressions")
	regressFactor := flag.Float64("regress-factor", 2.0, "slowdown factor vs -baseline that fails the run (2.0 = fail when >2x slower)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this path (inspect with go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this path (inspect with go tool pprof)")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // flush dead objects so the profile shows live state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	opts := bench.FigureOptions{Repeats: *repeats, MaxBaselineScale: *maxBaseline}
	var err error
	if opts.Scales, err = parseInts(*scales); err != nil {
		fatal(err)
	}
	if *chunks != "" {
		if opts.ChunkSizes, err = parseInts(*chunks); err != nil {
			fatal(err)
		}
	}
	wl := bench.NewWorkload(*users, *seed)
	if *jsonOut != "" {
		rep, err := bench.WriteJSONReport(context.Background(), *jsonOut, wl, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote perf report to %s\n", *jsonOut)
		for _, s := range rep.ShardScaling {
			fmt.Printf("shards=%d: build %.1fms (%.2fx), compact uniform %.1fms (%.2fx), compact hot %.1fms (%.2fx)\n",
				s.Shards,
				float64(s.BuildNsPerOp)/1e6, s.BuildSpeedup,
				float64(s.CompactUniformNsPerOp)/1e6, s.CompactUniformSpeedup,
				float64(s.CompactHotNsPerOp)/1e6, s.CompactHotSpeedup)
		}
		for _, p := range rep.CompactionPersist {
			fmt.Printf("persist shards=%d (%d chunks, %d delta rows): uniform %d B (%d/%d chunks rebuilt), zipf %d B (%d/%d chunks rebuilt)\n",
				p.Shards, p.TotalChunks, p.DeltaRows,
				p.Uniform.BytesWritten, p.Uniform.ChunksRebuilt, p.Uniform.ChunksRebuilt+p.Uniform.ChunksReused,
				p.Zipf.BytesWritten, p.Zipf.ChunksRebuilt, p.Zipf.ChunksRebuilt+p.Zipf.ChunksReused)
		}
		for _, p := range rep.PlanCacheRepeat {
			fmt.Printf("plan cache %s scale=%d: cold %.1fµs, warm %.1fµs (%.2fx), %d hits / %d misses\n",
				p.Query, p.Scale, float64(p.ColdNsPerOp)/1e3, float64(p.WarmNsPerOp)/1e3,
				p.Speedup, p.Hits, p.Misses)
		}
		for _, p := range rep.PushdownSweep {
			fmt.Printf("pushdown %s scale=%d: %d B decoded (%d encoded checks, %d rows scanned)\n",
				p.Name, p.Scale, p.BytesDecoded, p.EncodedChecks, p.RowsScanned)
		}
		for _, p := range rep.MetricsOverhead {
			fmt.Printf("metrics overhead %s scale=%d: instrumented %.1fµs vs no-op %.1fµs (%+.1f%%)\n",
				p.Query, p.Scale, float64(p.InstrumentedNsPerOp)/1e3, float64(p.NoopNsPerOp)/1e3, p.OverheadPct)
		}
		if cs := rep.ColdStart; cs != nil {
			for _, c := range cs.Cases {
				fmt.Printf("cold start %s scale=%d: open %.1fµs (%d segment reads), first query %.1fµs, resident %d B (budget %d)\n",
					c.Mode, cs.Scale, float64(c.OpenNsPerOp)/1e3, c.OpenSegmentReads,
					float64(c.FirstQueryNsPerOp)/1e3, c.ResidentBytes, c.BudgetBytes)
			}
			fmt.Printf("cold start scale=%d: lazy open %.1fx faster than eager (%d chunks, %d segment bytes)\n",
				cs.Scale, cs.OpenSpeedup, cs.Chunks, cs.SegmentBytes)
		}
		if *baseline != "" {
			base, err := bench.ReadReport(*baseline)
			if err != nil {
				fatal(err)
			}
			violations := bench.CompareReports(rep, base, *regressFactor)
			if len(violations) > 0 {
				fmt.Fprintf(os.Stderr, "cohana-bench: %d regressions vs %s (factor %.1f):\n", len(violations), *baseline, *regressFactor)
				for _, v := range violations {
					fmt.Fprintln(os.Stderr, "  "+v)
				}
				return 1
			}
			fmt.Printf("no regressions vs %s (factor %.1f)\n", *baseline, *regressFactor)
		}
		return 0
	}
	w := os.Stdout

	figRun := func(name string, fn func() error) {
		if err := fn(); err != nil {
			fatal(fmt.Errorf("figure %s: %w", name, err))
		}
	}
	sel := strings.ToLower(*fig)
	if sel == "verify" || sel == "all" {
		fmt.Fprintln(w, "Cross-scheme verification (all schemes must agree before timing):")
		figRun("verify", func() error { return bench.VerifySchemes(w, wl) })
		fmt.Fprintln(w)
	}
	want := func(f string) bool { return sel == "all" || sel == f }
	if want("6") {
		figRun("6", func() error { return bench.Figure6(w, wl, opts) })
	}
	if want("7") {
		figRun("7", func() error { return bench.Figure7(w, wl, opts) })
	}
	if want("8") {
		figRun("8", func() error { return bench.Figure8(w, wl, opts) })
	}
	if want("9") {
		figRun("9", func() error { return bench.Figure9(w, wl, opts) })
	}
	if want("10") {
		figRun("10", func() error { return bench.Figure10(w, wl, opts) })
	}
	if want("11") {
		figRun("11", func() error { return bench.Figure11(w, wl, opts) })
	}
	return 0
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		// Accept 16K / 1M suffixes for chunk sizes.
		mult := 1
		switch {
		case strings.HasSuffix(strings.ToUpper(part), "K"):
			mult = 1 << 10
			part = part[:len(part)-1]
		case strings.HasSuffix(strings.ToUpper(part), "M"):
			mult = 1 << 20
			part = part[:len(part)-1]
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, n*mult)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cohana-bench:", err)
	os.Exit(1)
}
