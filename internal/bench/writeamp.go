package bench

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/activity"
	"repro/internal/ingest"
	"repro/internal/storage"
)

// Write-amplification measurements for the JSON perf report: how many bytes a
// compaction's incremental persistence actually writes, as a function of the
// delta's user skew. Chunk-granular compaction re-encodes (and the manifest
// commit re-writes) only the chunks owning delta users, so a hot-user delta —
// the zipf shape `datagen -zipf` models — must persist strictly fewer bytes
// than a uniform delta of the same row count, which spreads over many chunks.
// The sweep pins that inequality per shard count and the baseline gate fails
// CI when the persisted bytes regress past the configured factor (the
// write-amplification counterpart of the query-latency gate).

// CompactPersistCase is one delta shape's measured persistence cost.
type CompactPersistCase struct {
	// DistinctUsers is how many users the delta's rows spread over.
	DistinctUsers int `json:"distinctUsers"`
	// BytesWritten is what the manifest commit persisted for the compaction:
	// new chunk segments plus the manifest.
	BytesWritten int64 `json:"bytesWritten"`
	// SegmentsWritten / SegmentsReused count chunk segment files written vs
	// already on disk; ChunksRebuilt / ChunksReused the compactor's split.
	SegmentsWritten int `json:"segmentsWritten"`
	SegmentsReused  int `json:"segmentsReused"`
	ChunksRebuilt   int `json:"chunksRebuilt"`
	ChunksReused    int `json:"chunksReused"`
}

// CompactPersistReport is one shard count's uniform-vs-zipf comparison.
type CompactPersistReport struct {
	Shards int `json:"shards"`
	// Rows is the sealed table size; DeltaRows the appended row count (equal
	// for both delta shapes); TotalChunks the sealed chunk count before the
	// compaction.
	Rows        int `json:"rows"`
	DeltaRows   int `json:"deltaRows"`
	TotalChunks int `json:"totalChunks"`
	// Uniform spreads the delta evenly over the user space; Zipf concentrates
	// it on a few hot users.
	Uniform CompactPersistCase `json:"uniform"`
	Zipf    CompactPersistCase `json:"zipf"`
}

// persistDeltaRows fabricates n delta rows over the given existing users,
// cycling through them. Timestamps sit far above anything the generator
// emits, so the rows never collide with sealed primary keys.
func persistDeltaRows(schema *activity.Schema, users []string, n int) []ingest.Row {
	rows := make([]ingest.Row, 0, n)
	for i := 0; i < n; i++ {
		r, err := ingest.RowFromValues(schema,
			users[i%len(users)], int64(2_000_000_000+i), "shop", "China", "Beijing", "mage", int64(3), int64(i%40))
		if err != nil {
			panic(err)
		}
		rows = append(rows, r)
	}
	return rows
}

// distinctUsers lists the sorted distinct users of a sorted source table.
func distinctUsers(src *activity.Table) []string {
	var out []string
	src.UserBlocks(func(user string, _, _ int) { out = append(out, user) })
	return out
}

// uniformUsers picks ~spread users evenly across the sorted user space, so
// the delta lands in as many chunks as possible.
func uniformUsers(users []string, spread int) []string {
	if spread > len(users) {
		spread = len(users)
	}
	out := make([]string, 0, spread)
	for i := 0; i < spread; i++ {
		out = append(out, users[i*len(users)/spread])
	}
	return out
}

// zipfUsers draws spread users zipf-distributed over the user ranks — most
// draws land on a handful of hot users, the shape of live traffic — and
// returns the distinct hot set.
func zipfUsers(users []string, spread int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.5, 1, uint64(len(users)-1))
	seen := map[string]bool{}
	var out []string
	for i := 0; i < spread; i++ {
		u := users[z.Uint64()]
		if !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	return out
}

// measurePersist builds a fresh on-disk table from sealed, appends the delta,
// compacts, and reports what the compaction's incremental commit wrote.
func measurePersist(ctx context.Context, sealed *storage.Sharded, rows []ingest.Row) (CompactPersistCase, error) {
	var c CompactPersistCase
	dir, err := os.MkdirTemp("", "cohana-writeamp-*")
	if err != nil {
		return c, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "bench.cohana")
	// The initial full commit is table setup, not compaction cost.
	if _, err := storage.CommitSharded(path, sealed); err != nil {
		return c, err
	}
	var commits storage.CommitStats
	lt, err := ingest.OpenSharded(sealed, ingest.Config{
		Persist: func(d storage.LayoutDelta) error {
			st, err := storage.CommitSharded(path, d.Layout)
			if err == nil {
				commits.Add(st)
				c.ChunksRebuilt += d.ChunksRebuilt
				c.ChunksReused += d.ChunksReused
			}
			return err
		},
	})
	if err != nil {
		return c, err
	}
	if err := lt.Append(rows); err != nil {
		return c, err
	}
	if err := lt.CompactContext(ctx); err != nil {
		return c, err
	}
	if err := lt.Close(); err != nil {
		return c, err
	}
	c.BytesWritten = commits.BytesWritten
	c.SegmentsWritten = commits.SegmentsWritten
	c.SegmentsReused = commits.SegmentsReused
	return c, nil
}

// CompactionPersist measures the uniform-vs-zipf persisted-bytes sweep across
// ShardScales at the given scale and chunk size.
func CompactionPersist(ctx context.Context, wl *Workload, scale, chunkSize, deltaRows int) ([]CompactPersistReport, error) {
	src := wl.Source(scale)
	users := distinctUsers(src)
	uniform := uniformUsers(users, 200)
	zipf := zipfUsers(users, 200, wl.Seed)
	out := make([]CompactPersistReport, 0, len(ShardScales))
	for _, shards := range ShardScales {
		sealed, err := storage.BuildSharded(src, shards, storage.Options{ChunkSize: chunkSize})
		if err != nil {
			return nil, err
		}
		rep := CompactPersistReport{
			Shards:      shards,
			Rows:        src.Len(),
			DeltaRows:   deltaRows,
			TotalChunks: sealed.NumChunks(),
		}
		schema := wl.Schema()
		u, err := measurePersist(ctx, sealed, persistDeltaRows(schema, uniform, deltaRows))
		if err != nil {
			return nil, fmt.Errorf("bench: uniform persist at %d shards: %w", shards, err)
		}
		z, err := measurePersist(ctx, sealed, persistDeltaRows(schema, zipf, deltaRows))
		if err != nil {
			return nil, fmt.Errorf("bench: zipf persist at %d shards: %w", shards, err)
		}
		u.DistinctUsers, z.DistinctUsers = len(uniform), len(zipf)
		rep.Uniform, rep.Zipf = u, z
		out = append(out, rep)
	}
	return out, nil
}
