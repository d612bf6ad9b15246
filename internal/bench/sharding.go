package bench

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/ingest"
	"repro/internal/storage"
)

// Shard-scaling measurements for the JSON perf report: how table build and
// compaction respond to the shard count. Build scales through per-shard
// parallelism (shards compress concurrently). Compaction is measured two
// ways, because sharding helps it twice over:
//
//   - "uniform": delta rows spread over many users, so every shard is dirty
//     and compactions run concurrently — the parallel win, visible when
//     GOMAXPROCS > 1;
//   - "hot": delta rows from a handful of users, the shape of live traffic
//     against a large historical table. Only the owning shards rebuild, so
//     the win is work avoided — an unsharded table rebuilds everything for
//     two users' rows — and shows regardless of core count.
//
// The report records GOMAXPROCS so the two effects can be told apart.

// ShardScales is the shard-count sweep of the JSON report.
var ShardScales = []int{1, 2, 4}

// ShardScaleReport is one shard count's build and compaction measurements.
type ShardScaleReport struct {
	Shards int `json:"shards"`
	// Rows is the sealed table size being built / compacted into.
	Rows int `json:"rows"`
	// BuildNsPerOp is the median wall time of BuildSharded at this count;
	// BuildSpeedup is shards=1's time divided by this one.
	BuildNsPerOp int64   `json:"buildNsPerOp"`
	BuildSpeedup float64 `json:"buildSpeedup"`
	// CompactUniformNsPerOp seals a delta touching every shard;
	// CompactHotNsPerOp seals a two-user delta (only the owning shards
	// rebuild). The speedups are against shards=1.
	CompactUniformNsPerOp int64   `json:"compactUniformNsPerOp"`
	CompactUniformSpeedup float64 `json:"compactUniformSpeedup"`
	CompactHotNsPerOp     int64   `json:"compactHotNsPerOp"`
	CompactHotSpeedup     float64 `json:"compactHotSpeedup"`
}

// deltaRows fabricates n fresh-user activity rows (users the workload never
// generates, so appends cannot collide with sealed primary keys) spread over
// the given number of distinct users.
func deltaRows(wl *Workload, users, n int) []ingest.Row {
	schema := wl.Schema()
	rows := make([]ingest.Row, 0, n)
	for i := 0; i < n; i++ {
		u := fmt.Sprintf("live-user-%05d", i%users)
		r, err := ingest.RowFromValues(schema,
			u, int64(1369000000+i*7), "launch", "China", "Beijing", "mage", int64(3), int64(i%40))
		if err != nil {
			panic(err)
		}
		rows = append(rows, r)
	}
	return rows
}

// measureCompact times Compact on a fresh live table over sealed with the
// given delta appended, repeated and medianed.
func measureCompact(ctx context.Context, sealed *storage.Sharded, rows []ingest.Row, repeats int) (int64, error) {
	var firstErr error
	d := timeIt(repeats, func() {
		lt, err := ingest.OpenSharded(sealed, ingest.Config{})
		if err == nil {
			err = lt.Append(rows)
		}
		if err == nil {
			err = lt.CompactContext(ctx)
		}
		if err == nil {
			err = lt.Close()
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return d.Nanoseconds(), firstErr
}

// ShardScaling measures build and compaction across ShardScales at the
// given scale and chunk size.
func ShardScaling(ctx context.Context, wl *Workload, scale, chunkSize, repeats int) ([]ShardScaleReport, error) {
	src := wl.Source(scale)
	// A delta shaped like live traffic against the sealed history: uniform
	// touches ~200 users (every shard at any count in the sweep), hot
	// touches 2.
	uniform := deltaRows(wl, 200, 4000)
	hot := deltaRows(wl, 2, 4000)
	out := make([]ShardScaleReport, 0, len(ShardScales))
	var base ShardScaleReport
	for _, shards := range ShardScales {
		rep := ShardScaleReport{Shards: shards, Rows: src.Len()}
		var sealed *storage.Sharded
		buildNs := timeIt(repeats, func() {
			var err error
			sealed, err = storage.BuildSharded(src, shards, storage.Options{ChunkSize: chunkSize})
			if err != nil {
				panic(err)
			}
		})
		rep.BuildNsPerOp = buildNs.Nanoseconds()
		var err error
		if rep.CompactUniformNsPerOp, err = measureCompact(ctx, sealed, uniform, repeats); err != nil {
			return nil, fmt.Errorf("bench: uniform compaction at %d shards: %w", shards, err)
		}
		if rep.CompactHotNsPerOp, err = measureCompact(ctx, sealed, hot, repeats); err != nil {
			return nil, fmt.Errorf("bench: hot compaction at %d shards: %w", shards, err)
		}
		if shards == 1 {
			base = rep
		}
		if base.BuildNsPerOp > 0 {
			rep.BuildSpeedup = round2(float64(base.BuildNsPerOp) / float64(rep.BuildNsPerOp))
		}
		if base.CompactUniformNsPerOp > 0 {
			rep.CompactUniformSpeedup = round2(float64(base.CompactUniformNsPerOp) / float64(rep.CompactUniformNsPerOp))
		}
		if base.CompactHotNsPerOp > 0 {
			rep.CompactHotSpeedup = round2(float64(base.CompactHotNsPerOp) / float64(rep.CompactHotNsPerOp))
		}
		out = append(out, rep)
	}
	return out, nil
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }

// MaxProcs reports the core budget the shard-parallel measurements ran
// under, so a 1x build "speedup" on a single-core runner reads as what it
// is.
func MaxProcs() int { return runtime.GOMAXPROCS(0) }
