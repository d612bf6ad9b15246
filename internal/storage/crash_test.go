package storage

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/activity"
	"repro/internal/gen"
)

// Crash injection for the manifest commit protocol: segment files land
// before the manifest rename, so a crash between the two must leave the
// previous manifest serving the pre-compaction state, and the orphaned
// segments must be swept by the next successful commit — no stale-segment
// leaks, no corruption.

// mustRows materializes a sharded table for comparison.
func mustRows(t *testing.T, s *Sharded) *activity.Table {
	t.Helper()
	rows, err := s.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func requireSameRows(t *testing.T, label string, got, want *activity.Table) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	schema := want.Schema()
	for c := 0; c < schema.NumCols(); c++ {
		if schema.IsStringCol(c) {
			for i, v := range want.Strings(c) {
				if got.Strings(c)[i] != v {
					t.Fatalf("%s: row %d col %d: %q != %q", label, i, c, got.Strings(c)[i], v)
				}
			}
		} else {
			for i, v := range want.Ints(c) {
				if got.Ints(c)[i] != v {
					t.Fatalf("%s: row %d col %d: %d != %d", label, i, c, got.Ints(c)[i], v)
				}
			}
		}
	}
}

func TestCrashBetweenSegmentsAndManifestRename(t *testing.T) {
	src := gen.Generate(gen.Config{Users: 50, Days: 10, MeanActions: 9, Seed: 31})
	if err := src.SortByPK(); err != nil {
		t.Fatal(err)
	}
	sealed, err := BuildSharded(src, 2, Options{ChunkSize: 150})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "crash.cohana")
	if _, err := CommitSharded(path, sealed); err != nil {
		t.Fatal(err)
	}
	wantA := mustRows(t, sealed)

	// Build the post-compaction layout B for shard 0 (a small delta of
	// fresh rows), then simulate the crash: write B's new chunk segments to
	// disk but never rename the manifest.
	batch := activity.NewTable(src.Schema())
	for i := 0; i < 40; i++ {
		row := make([]any, 0, 8)
		row = append(row, "crash-user", int64(2_000_000_000+i), "shop", "China", "Beijing", "mage", int64(1), int64(i))
		if err := batch.Append(row...); err != nil {
			t.Fatal(err)
		}
	}
	if err := batch.SortByPK(); err != nil {
		t.Fatal(err)
	}
	si := ShardOf("crash-user", 2)
	newShard, rebuilt, _, err := MergeDelta(sealed.Shard(si), batch, Options{ChunkSize: 150})
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt == 0 {
		t.Fatal("merge rebuilt no chunks")
	}
	layoutB := sealed.WithShard(si, newShard)
	orphans := 0
	for ci := 0; ci < newShard.NumChunks(); ci++ {
		hash, _ := newShard.segmentHash(ci)
		name := segmentName(path, hash)
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			continue // shared with layout A
		}
		if err := atomicWriteFile(filepath.Join(dir, name), newShard.segmentBytes(ci)); err != nil {
			t.Fatal(err)
		}
		orphans++
	}
	if orphans == 0 {
		t.Fatal("crash simulation wrote no orphan segments")
	}

	// Reopen: the old manifest still serves exactly the pre-compaction
	// state; the orphans are invisible.
	back, err := ReadSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, "after crash", mustRows(t, back), wantA)

	// The next successful commit (the compaction retried) adopts the
	// already-written segments — zero segment writes — and the sweep leaves
	// exactly the referenced files behind: no stale-segment leaks.
	stats, err := CommitSharded(path, layoutB)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsWritten != 0 {
		t.Fatalf("retried commit rewrote %d segments, want 0 (orphans adopted)", stats.SegmentsWritten)
	}
	keep := map[string]bool{}
	for si := 0; si < layoutB.NumShards(); si++ {
		sh := layoutB.Shard(si)
		for ci := 0; ci < sh.NumChunks(); ci++ {
			hash, _ := sh.segmentHash(ci)
			keep[segmentName(path, hash)] = true
		}
	}
	for _, f := range listSegments(path) {
		if !keep[filepath.Base(f)] {
			t.Fatalf("stale segment %s survived the sweep", filepath.Base(f))
		}
	}
	if got := len(listSegments(path)); got != len(keep) {
		t.Fatalf("%d segments on disk, want %d", got, len(keep))
	}
	backB, err := ReadSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, "after retried commit", mustRows(t, backB), mustRows(t, layoutB))
}

// TestCrashAfterManifestRenameBeforeSweep covers the other window: the new
// manifest is committed but the process dies before sweeping the segments
// only the old manifest referenced. Reload must serve the new state, and the
// next commit must clean the leftovers.
func TestCrashAfterManifestRenameBeforeSweep(t *testing.T) {
	src := gen.Generate(gen.Config{Users: 40, Days: 8, MeanActions: 8, Seed: 37})
	if err := src.SortByPK(); err != nil {
		t.Fatal(err)
	}
	sealed, err := BuildSharded(src, 1, Options{ChunkSize: 120})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.cohana")
	if _, err := CommitSharded(path, sealed); err != nil {
		t.Fatal(err)
	}
	// Plant a stale segment, as if an earlier layout's file escaped its
	// sweep (crash after rename, before sweep).
	stale := filepath.Join(dir, segmentName(path, "deadbeefdeadbeefdeadbeefdeadbeef"))
	if err := atomicWriteFile(stale, []byte("stale")); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSharded(path)
	if err != nil {
		t.Fatalf("stale segment broke the load: %v", err)
	}
	requireSameRows(t, "with stale segment", mustRows(t, back), mustRows(t, sealed))
	if _, err := CommitSharded(path, sealed); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale segment survived the next commit's sweep")
	}
}
