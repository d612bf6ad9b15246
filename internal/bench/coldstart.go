package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/storage"
)

// The cold-start sweep of the perf report: what lazy segment loading buys at
// open time. A paper-density table (~1200 tuples per user, large chunks, so
// segment decode — not metadata parse — dominates a chunk's first touch) is
// committed to disk (manifest + content-addressed segments) and reopened at
// two chunk-cache budgets: unbounded ("100%") and a tenth of the table's
// segment bytes ("10%", the table-larger-than-RAM stand-in). Each mode
// measures the open latency, the segment reads the open itself performed,
// the first-query latency on the cold table, and the decoded bytes resident
// once that query finishes.

// coldStartMeanActions is the sweep table's tuple density. The paper's
// dataset carries ~500 activity tuples per user; the figure workload's
// default (60) is far thinner, which would understate what a first query
// decodes. coldStartChunkSize sizes chunks so per-chunk metadata stays a
// sliver of per-chunk data.
const (
	coldStartMeanActions = 1200
	coldStartChunkSize   = 8192
)

// ColdStartCase is one (mode, budget) measurement.
type ColdStartCase struct {
	// Mode is "lazy" (unbounded budget) or "lazy-10pct".
	Mode string `json:"mode"`
	// BudgetBytes is the chunk-cache budget (0 = unbounded).
	BudgetBytes int64 `json:"budgetBytes"`
	// OpenNsPerOp is the median open (manifest parse) latency.
	OpenNsPerOp int64 `json:"openNsPerOp"`
	// OpenSegmentReads counts segments read by one open: zero, the
	// O(manifest) cold-start contract.
	OpenSegmentReads uint64 `json:"openSegmentReads"`
	// FirstQueryNsPerOp is Q1 on the freshly opened table (cold chunks pay
	// their loads here).
	FirstQueryNsPerOp int64 `json:"firstQueryNsPerOp"`
	// ResidentBytes is the decoded segment bytes the cache holds after the
	// first query (bounded by the budget once pins drop).
	ResidentBytes int64 `json:"residentBytes"`
}

// ColdStartReport is the sweep at one scale.
type ColdStartReport struct {
	Scale int `json:"scale"`
	// Rows, Chunks and SegmentBytes describe the committed table.
	Rows         int             `json:"rows"`
	Chunks       int             `json:"chunks"`
	SegmentBytes int64           `json:"segmentBytes"`
	Cases        []ColdStartCase `json:"cases"`
}

// ColdStart commits a paper-density table at one scale and measures its
// reopen cost at chunk-cache budgets {10%, 100%}.
func ColdStart(wl *Workload, scale, repeats int) (*ColdStartReport, error) {
	src := gen.Generate(gen.Config{
		Users: wl.BaseUsers, Scale: scale, Seed: wl.Seed,
		MeanActions: coldStartMeanActions,
	})
	sharded, err := storage.BuildSharded(src, 2, storage.Options{ChunkSize: coldStartChunkSize})
	if err != nil {
		return nil, fmt.Errorf("bench: cold start build: %w", err)
	}
	dir, err := os.MkdirTemp("", "cohana-coldstart-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "w.cohana")
	if _, err := storage.CommitSharded(path, sharded); err != nil {
		return nil, fmt.Errorf("bench: cold start commit: %w", err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.cohseg"))
	if err != nil {
		return nil, err
	}
	var segBytes int64
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			return nil, err
		}
		segBytes += fi.Size()
	}
	rep := &ColdStartReport{Scale: scale, Rows: src.Len(), Chunks: sharded.NumChunks(), SegmentBytes: segBytes}

	q := Q1()
	runQuery := func(s *storage.Sharded) error {
		inputs := make([]plan.ShardInput, s.NumShards())
		for i := range inputs {
			inputs[i] = plan.ShardInput{Sealed: s.Shard(i)}
		}
		_, err := plan.ExecuteShards(q, inputs, plan.ExecOptions{})
		return err
	}

	// Every open gets a fresh private cache, so it is genuinely cold.
	measure := func(mode string, budget int64) (ColdStartCase, error) {
		c := ColdStartCase{Mode: mode, BudgetBytes: budget}
		// One counted open for the deterministic segment-read tally...
		cache := storage.NewChunkCache(budget)
		before := obs.SegmentReadsTotal.Value()
		s, err := storage.ReadShardedWith(path, storage.ReadOptions{Cache: cache})
		if err != nil {
			return c, err
		}
		c.OpenSegmentReads = obs.SegmentReadsTotal.Value() - before
		// ...then the cold first query on it...
		t0 := time.Now()
		if err := runQuery(s); err != nil {
			return c, err
		}
		c.FirstQueryNsPerOp = time.Since(t0).Nanoseconds()
		// Each case owns its cache, so this is exactly what this open's
		// scans left behind.
		c.ResidentBytes = cache.Stats().ResidentBytes
		// ...then timed repeat opens, each with a fresh cache.
		c.OpenNsPerOp = timeIt(repeats, func() {
			if _, err := storage.ReadShardedWith(path, storage.ReadOptions{Cache: storage.NewChunkCache(budget)}); err != nil {
				panic(err)
			}
		}).Nanoseconds()
		return c, nil
	}

	lazy, err := measure("lazy", 0)
	if err != nil {
		return nil, fmt.Errorf("bench: cold start lazy: %w", err)
	}
	budget := segBytes / 10
	if budget < 1 {
		budget = 1
	}
	lazyTight, err := measure("lazy-10pct", budget)
	if err != nil {
		return nil, fmt.Errorf("bench: cold start lazy-10pct: %w", err)
	}
	rep.Cases = []ColdStartCase{lazy, lazyTight}
	return rep, nil
}
