// Command cohana-loadtest is the repository's benchmark: it builds the
// paper-scale dataset D2 from a seed, serves it through internal/server over
// loopback HTTP, and drives four named workloads against it — ad-hoc scans,
// repeated dashboard queries, queries under ingest, and scans under a memory
// budget — checking every result against an oracle of its own. It prints
// every end-to-end and per-layer metric by name with its unit, and a
// per-layer share table from a separate traced run. README.md in this
// directory says what each number means and which should move when.
//
//	go run ./cmd/cohana-loadtest -seed 1 -out report.json   # all four workloads
//	go run ./cmd/cohana-loadtest -check-repeat a.json b.json
//	bash cmd/cohana-loadtest/run.sh --workload adhoc-scan --seed 3 --seconds 12 --trace 0
//
// The last form is the one BENCHMARK.json names: one workload, and as the
// last line of standard output one JSON object with the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// config is one invocation of the benchmark.
type config struct {
	Workloads []string
	Seed      int64
	WarmupS   float64
	WindowS   float64
	Trace     bool
	Clients   int
	// Users and Scale size the generated table; D2 outside tests.
	Users, Scale int
	// ColdReps, TraceOps, CompactRows and BurstBatches are the load-shape
	// constants below; only tests shrink them.
	ColdReps, TraceOps, CompactRows, BurstBatches int
	// Work is the directory the run builds its tables in.
	Work string
	// spawn runs one workload: a fresh child process outside tests, because
	// the chunk cache, the obs registry and the heap are process-wide.
	spawn func(job) (*outcome, error)
}

// Load shape, the same on every commit. Warm-up and window are shorter than
// the 5 s and 30 s a free-standing run would take: 92 runs, each building D2
// from its seed, have to fit the driver's total run-time cap.
const (
	warmupS      = 3
	coldReps     = 20
	traceOps     = 200
	compactRows  = 2048
	batchesPerS  = 20
	burstBatches = 300
	// checkedAdhoc is how many entries of the ad-hoc cycle get an oracle
	// answer; the rest are held to byte-identity across repeats.
	checkedAdhoc = 8
)

// workloadReport is one workload's part of the summary.
type workloadReport struct {
	Name        string                 `json:"name"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailedRatio float64                `json:"failed_ratio"`
	Failures    []string               `json:"failures,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
	Samples     map[string]int         `json:"samples"`
	Shares      []shareRow             `json:"shares,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON summary. It claims nothing: this benchmark defines the
// numbers later changes are measured with.
type report struct {
	Benchmark  string           `json:"benchmark"`
	Seed       int64            `json:"seed"`
	WindowS    float64          `json:"window_s"`
	WarmupS    float64          `json:"warmup_s"`
	Clients    int              `json:"clients"`
	NProc      int              `json:"nproc"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Sizing     sizing           `json:"sizing"`
	Workloads  []workloadReport `json:"workloads"`
	Claim      *string          `json:"claim"`
}

// run builds the template table, answers the checked queries with the
// oracle, and runs each workload on its own copy.
func run(cfg config) (*report, error) {
	work, err := os.MkdirTemp(cfg.Work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	tmpl, err := buildTemplate(work, cfg.Users, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	data := dataset{base: tmpl.base}
	expected := map[string][]resultRow{}
	for _, s := range append(fixedQueries(), adhocCycle(cfg.Seed)[:checkedAdhoc]...) {
		expected[s.text()] = answer(s, data)
	}

	rep := &report{
		Benchmark: "cohana-loadtest", Seed: cfg.Seed, WindowS: cfg.WindowS, WarmupS: cfg.WarmupS,
		Clients: cfg.Clients, NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Sizing: tmpl.sizing,
	}
	for _, name := range cfg.Workloads {
		dir := filepath.Join(work, name)
		if err := copyDir(tmpl.dir, dir); err != nil {
			return nil, err
		}
		out, err := cfg.spawn(job{
			Workload: name, Seed: cfg.Seed, DataDir: dir, Sizing: tmpl.sizing, Clients: cfg.Clients,
			WarmupS: rep.WarmupS, WindowS: cfg.WindowS, Trace: cfg.Trace,
			TracePath: filepath.Join(cfg.Work, "trace-"+name+".json"),
			ColdReps:  cfg.ColdReps, TraceOps: cfg.TraceOps,
			CompactRows: cfg.CompactRows, BatchesPerS: batchesPerS, BurstBatches: cfg.BurstBatches,
			Expected: expected,
			DatagenS: tmpl.datagen.Seconds(), BuildS: tmpl.build.Seconds(), CommitS: tmpl.commit.Seconds(),
		})
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		if out.FinalRows != nil {
			recheckAfterIngest(out, data, cfg.Seed)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		rep.Workloads = append(rep.Workloads, summarize(out))
	}
	return rep, nil
}

// recheckAfterIngest holds ingest-mixed's final answers to the oracle over
// the base table plus every batch the server acknowledged.
func recheckAfterIngest(out *outcome, data dataset, seed int64) {
	data.extra = map[string][]tuple{}
	for _, idx := range out.AckedBatches {
		for _, r := range appendBatch(seed, data.base.NumUsers(), idx) {
			data.extra[r.Player] = append(data.extra[r.Player], r.tuple())
		}
	}
	for _, s := range fixedQueries() {
		out.Attempted++
		got, ok := out.FinalRows[s.text()]
		if !ok {
			continue // the child already counted the failed request
		}
		if diff := sameRows(got, answer(s, data)); diff != "" {
			out.Failed++
			out.Failures = append(out.Failures, fmt.Sprintf("after ingest, query %q: %s", s.text(), diff))
		}
	}
}

func summarize(out *outcome) workloadReport {
	w := workloadReport{
		Name: out.Workload, Attempted: out.Attempted, Failed: out.Failed,
		FailedRatio: ratio(float64(out.Failed), float64(out.Attempted)),
		Failures:    out.Failures, Samples: out.Samples, Shares: out.Shares,
		Metrics: map[string]metricValue{},
	}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		w.Metrics[d.Name] = metricValue{Value: out.Metrics[d.Name], Unit: d.Unit}
	}
	return w
}

// copyDir copies the regular files of src into a new directory dst and
// flushes them, so that no write-back of the copy is left to run during a
// measured window.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			return err
		}
		_, err = f.Write(data)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// spawnChild runs one workload in a fresh copy of this process.
func spawnChild(j job) (*outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	jobPath := j.DataDir + ".job.json"
	body, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(jobPath, body, 0o644); err != nil {
		return nil, err
	}
	defer os.Remove(jobPath)
	defer os.Remove(jobPath + ".out")
	cmd := exec.Command(self, "-child", jobPath)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	body, err = os.ReadFile(jobPath + ".out")
	if err != nil {
		return nil, err
	}
	var out outcome
	return &out, json.Unmarshal(body, &out)
}

// childMain is the re-executed process: read the job, run it, write the
// outcome beside it.
func childMain(jobPath string) error {
	body, err := os.ReadFile(jobPath)
	if err != nil {
		return err
	}
	var j job
	if err := json.Unmarshal(body, &j); err != nil {
		return err
	}
	out, err := runWorkload(j)
	if err != nil {
		return err
	}
	if body, err = json.Marshal(out); err != nil {
		return err
	}
	return os.WriteFile(jobPath+".out", body, 0o644)
}

// print writes every metric of every workload by name with its unit, the
// share table of the traced run, and what failed.
func (rep *report) print(w io.Writer) {
	sz := rep.Sizing
	fmt.Fprintf(w, "cohana-loadtest  seed %d  %d rows  %d users  %d shards  %d chunks  sha256 %s\n",
		rep.Seed, sz.Rows, sz.Users, sz.Shards, sz.Chunks, sz.SHA256)
	fmt.Fprintf(w, "closed loop, %d clients (nproc %d, GOMAXPROCS %d), warm-up %.1f s, window %.1f s\n",
		rep.Clients, rep.NProc, rep.GoMaxProcs, rep.WarmupS, rep.WindowS)
	for _, wl := range rep.Workloads {
		fmt.Fprintf(w, "\n== %s ==  attempted %d  failed %d  failed_ratio %.6f\n", wl.Name, wl.Attempted, wl.Failed, wl.FailedRatio)
		for _, f := range wl.Failures {
			fmt.Fprintf(w, "  FAILED: %s\n", f)
		}
		for _, part := range []struct {
			title string
			defs  []metricDef
		}{{"end to end:", endToEnd}, {"per layer:", perLayer}} {
			fmt.Fprintln(w, part.title)
			for _, d := range part.defs {
				line := formatMetric(d, wl.Metrics[d.Name].Value)
				if n := wl.Samples[d.Name]; n > 0 {
					line += fmt.Sprintf("  (%d samples)", n)
				}
				fmt.Fprintln(w, "  "+line)
			}
		}
		if len(wl.Shares) > 0 {
			fmt.Fprintln(w, "share of traced wall time:")
			for _, row := range wl.Shares {
				fmt.Fprintf(w, "  %-12s %10.3f ms %7.2f %%\n", row.Layer, row.Ms, 100*row.Share)
			}
		}
	}
}

// driverLine is the one JSON object the driver reads from the last line of
// standard output: the end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one.
func driverLine(wl workloadReport, traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	picked := map[string]metricValue{}
	for _, d := range defs {
		picked[d.Name] = wl.Metrics[d.Name]
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{wl.Failed == 0, wl.Attempted, wl.Failed, picked})
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "cohana-loadtest:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	workload := flag.String("workload", "", "run one workload ("+strings.Join(workloads, ", ")+") and print the driver's JSON line; empty runs all four")
	seed := flag.Int64("seed", 1, "seed of the generated table, the query order and the write stream")
	seconds := flag.Float64("seconds", 12, "length of each workload's measured window")
	trace := flag.Int("trace", 1, "1 adds the traced replay and the per-layer times it yields; 0 skips it")
	clients := flag.Int("clients", runtime.NumCPU(), "closed-loop clients, one keep-alive connection each")
	out := flag.String("out", "", "write the JSON summary to this file")
	work := flag.String("work", ".bench_build", "directory to build tables in and write trace-<workload>.json to")
	checkRepeat := flag.Bool("check-repeat", false, "compare two JSON summaries given as arguments instead of running")
	child := flag.String("child", "", "internal: run the workload described by this job file")
	flag.Parse()

	switch {
	case *child != "":
		return childMain(*child)
	case *checkRepeat:
		if flag.NArg() != 2 {
			return errors.New("-check-repeat wants two summary files")
		}
		return checkRepeatFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	cfg := config{
		Workloads: workloads, Seed: *seed, WarmupS: warmupS, WindowS: *seconds, Trace: *trace != 0, Clients: *clients,
		Users: d2Users, Scale: d2Scale, spawn: spawnChild,
		ColdReps: coldReps, TraceOps: traceOps, CompactRows: compactRows, BurstBatches: burstBatches,
	}
	if *workload != "" {
		if !slices.Contains(workloads, *workload) {
			return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloads, ", "))
		}
		cfg.Workloads = []string{*workload}
	}
	var err error
	if cfg.Work, err = filepath.Abs(*work); err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.Work, 0o755); err != nil {
		return err
	}
	rep, err := run(cfg)
	if err != nil {
		return err
	}
	rep.print(os.Stdout)
	if *out != "" {
		body, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(body, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *workload != "" {
		line, err := driverLine(rep.Workloads[0], cfg.Trace)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
		return nil
	}
	for _, wl := range rep.Workloads {
		if wl.Failed > 0 {
			return fmt.Errorf("workload %s: %d of %d operations failed", wl.Name, wl.Failed, wl.Attempted)
		}
	}
	return nil
}
