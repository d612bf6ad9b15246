package plan

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/cohort"
	"repro/internal/obs"
)

// TestTracedQueryConcurrentRace hammers a traced query from many goroutines
// over a shared plan cache, shared worker pool and per-query shared ExecStats
// — the satellite audit that per-chunk tasks folding into one stats struct
// and one span tree are race-free under `go test -race`. Each run also
// cross-checks the trace's aggregated counters against its own ExecStats:
// the two are folded from the same per-chunk tallies, so any lost update
// shows up as a mismatch even without the race detector.
func TestTracedQueryConcurrentRace(t *testing.T) {
	lt, late := cacheTestTable(t, 2)
	// Leave the late rows in the delta tier so the union path (chunk scan +
	// concurrent delta row scan) is part of what the race test exercises.
	if err := lt.Append(late); err != nil {
		t.Fatal(err)
	}
	cache := NewCache(8)
	p, err := cache.Prepare(cacheTestQuery, lt.Schema())
	if err != nil {
		t.Fatal(err)
	}
	pool := cohort.NewPool(4)
	defer pool.Close()
	inputs := shardInputsOf(lt.Views())

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 4; it++ {
				root := obs.NewSpan("query")
				var stats cohort.ExecStats
				res, err := ExecuteCached(cache, p, inputs, ExecOptions{
					Parallelism: -1,
					Pool:        pool,
					Stats:       &stats,
					Trace:       root,
				})
				if err != nil {
					t.Error(err)
					return
				}
				root.End()
				if len(res.Rows) == 0 {
					t.Error("traced query returned no rows")
					return
				}
				var rows, bytes, checks, chunks int64
				nShards := 0
				for _, sh := range root.Children {
					if !strings.HasPrefix(sh.Name, "shard ") {
						continue
					}
					nShards++
					rows += sh.Int("rows_scanned")
					bytes += sh.Int("value_bytes_decoded")
					checks += sh.Int("encoded_checks")
					chunks += sh.Int("chunks_scanned")
				}
				if nShards != len(inputs) {
					t.Errorf("trace has %d shard spans, want %d", nShards, len(inputs))
				}
				if rows != stats.RowsScanned.Load() ||
					bytes != stats.ValueBytesDecoded.Load() ||
					checks != stats.EncodedChecks.Load() ||
					chunks != stats.ChunksScanned.Load() {
					t.Errorf("trace aggregates (rows=%d bytes=%d checks=%d chunks=%d) != ExecStats (rows=%d bytes=%d checks=%d chunks=%d)",
						rows, bytes, checks, chunks,
						stats.RowsScanned.Load(), stats.ValueBytesDecoded.Load(),
						stats.EncodedChecks.Load(), stats.ChunksScanned.Load())
				}
			}
		}()
	}
	wg.Wait()
}

// TestShardBusyTime pins the busy_us attribute of a two-shard traced query
// with a live delta: each shard span and its delta union span sum their own
// chunks' scan time, and carry chunks_ridden (0 here: no other query). That is at least the sum of their chunk child spans
// (every chunk is timed, the capped ones too) and at most what the query's
// workers could spend in its wall time, although every shard span covers the
// whole fan-out.
func TestShardBusyTime(t *testing.T) {
	lt, late := cacheTestTable(t, 2)
	if err := lt.Append(late); err != nil {
		t.Fatal(err)
	}
	cache := NewCache(8)
	p, err := cache.Prepare(cacheTestQuery, lt.Schema())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	root := obs.NewSpan("query")
	if _, err := ExecuteCached(cache, p, shardInputsOf(lt.Views()), ExecOptions{Parallelism: workers, Trace: root}); err != nil {
		t.Fatal(err)
	}
	root.End()
	checked := 0
	check := func(sp *obs.Span) {
		var chunkNs int64
		for _, c := range sp.Children {
			if strings.HasPrefix(c.Name, "chunk ") {
				chunkNs += c.DurNs
			}
		}
		busy := sp.Int("busy_us")
		if busy <= 0 || busy < chunkNs/1000 || busy*1000 > workers*root.DurNs {
			t.Errorf("%s: busy_us = %d, want within [%d, %d] (its chunk spans' sum, workers x query wall time)",
				sp.Name, busy, chunkNs/1000, workers*root.DurNs/1000)
		}
		// A query alone on its built tables shares no load with another.
		if ridden, ok := sp.Attrs["chunks_ridden"]; !ok || ridden != 0 {
			t.Errorf("%s: chunks_ridden = %d (set: %v), want 0", sp.Name, ridden, ok)
		}
		checked++
	}
	for _, sh := range root.Children {
		if !strings.HasPrefix(sh.Name, "shard ") {
			continue
		}
		check(sh)
		union := sh.Find("delta union")
		if union == nil {
			t.Fatalf("%s has no delta union span", sh.Name)
		}
		check(union)
	}
	if checked != 4 {
		t.Fatalf("checked %d spans, want two shards and their delta unions", checked)
	}
}
