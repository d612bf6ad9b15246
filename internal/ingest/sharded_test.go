package ingest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/storage"
)

// buildShardedSealed compresses the test workload into n shards.
func buildShardedSealed(t *testing.T, n int) *storage.Sharded {
	t.Helper()
	tbl := gen.Generate(gen.Config{Users: 40, Days: 12, MeanActions: 10, Seed: 21})
	sealed, err := storage.BuildSharded(tbl, n, storage.Options{ChunkSize: 120})
	if err != nil {
		t.Fatal(err)
	}
	return sealed
}

// TestAppendRoutesToOwningShards pins the write path: every appended row
// lands in the shard its user hashes to, and only dirty shards compact.
func TestAppendRoutesToOwningShards(t *testing.T) {
	sealed := buildShardedSealed(t, 4)
	lt, err := OpenSharded(sealed, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	schema := lt.Schema()

	// One batch spanning several users — and therefore several shards.
	users := []string{"route-a", "route-b", "route-c", "route-d", "route-e"}
	var rows []Row
	for i, u := range users {
		rows = append(rows, row(t, schema, u, 1369000000+int64(i), "launch", "China", "Beijing", "mage", 1, 0))
	}
	if err := lt.Append(rows); err != nil {
		t.Fatal(err)
	}
	st := lt.Stats()
	if st.DeltaRows != len(users) {
		t.Fatalf("delta rows = %d, want %d", st.DeltaRows, len(users))
	}
	dirty := map[int]int{}
	for _, u := range users {
		dirty[storage.ShardOf(u, 4)]++
	}
	for _, ss := range st.PerShard {
		if ss.DeltaRows != dirty[ss.Shard] {
			t.Fatalf("shard %d holds %d delta rows, want %d", ss.Shard, ss.DeltaRows, dirty[ss.Shard])
		}
	}
	// Selective compaction: only the dirty shards rebuild.
	if err := lt.CompactContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, ss := range lt.Stats().PerShard {
		wantCompactions := uint64(0)
		if dirty[ss.Shard] > 0 {
			wantCompactions = 1
		}
		if ss.Compactions != wantCompactions {
			t.Fatalf("shard %d ran %d compactions, want %d (delta rows %d)",
				ss.Shard, ss.Compactions, wantCompactions, dirty[ss.Shard])
		}
	}
}

// TestJournalMigratesAcrossShardCounts is the durability half of the
// migration path: rows journaled under one shard layout must survive
// reopening under another — 1 shard -> 4 shards -> back to 1 — with every
// row re-routed to its owning shard's journal and the stale files removed.
func TestJournalMigratesAcrossShardCounts(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "game.journal")
	sealed1 := buildShardedSealed(t, 1)

	lt, err := OpenSharded(sealed1, Config{JournalPath: base})
	if err != nil {
		t.Fatal(err)
	}
	schema := lt.Schema()
	var rows []Row
	for i := 0; i < 10; i++ {
		rows = append(rows, row(t, schema, fmt.Sprintf("mig-user-%d", i), 1369000000+int64(i), "launch", "China", "Beijing", "mage", 1, int64(i)))
	}
	if err := lt.Append(rows); err != nil {
		t.Fatal(err)
	}
	if err := lt.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the same sealed data resharded to 4: the legacy base journal
	// must be split into per-shard journals and removed.
	lt4, err := OpenSharded(sealed1, Config{JournalPath: base, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := lt4.Stats()
	if st.Shards != 4 || st.ReplayedRows != uint64(len(rows)) || st.DeltaRows != len(rows) {
		t.Fatalf("after 1->4 migration: %+v, want %d replayed rows on 4 shards", st, len(rows))
	}
	for _, ss := range st.PerShard {
		want := 0
		for i := range rows {
			if storage.ShardOf(fmt.Sprintf("mig-user-%d", i), 4) == ss.Shard {
				want++
			}
		}
		if ss.DeltaRows != want {
			t.Fatalf("shard %d restored %d rows, want %d", ss.Shard, ss.DeltaRows, want)
		}
	}
	if _, err := os.Stat(base); !os.IsNotExist(err) {
		t.Fatalf("legacy journal survived the migration (err=%v)", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(fmt.Sprintf("%s.s%d", base, i)); err != nil {
			t.Fatalf("shard %d journal missing after migration: %v", i, err)
		}
	}
	if err := lt4.Close(); err != nil {
		t.Fatal(err)
	}

	// And back down to one shard: the per-shard journals merge into the
	// base file and are removed.
	sealed4 := buildShardedSealed(t, 4)
	lt1, err := OpenSharded(sealed4, Config{JournalPath: base, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lt1.Close()
	st = lt1.Stats()
	if st.Shards != 1 || st.ReplayedRows != uint64(len(rows)) || st.DeltaRows != len(rows) {
		t.Fatalf("after 4->1 migration: %+v, want %d replayed rows on 1 shard", st, len(rows))
	}
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(fmt.Sprintf("%s.s%d", base, i)); !os.IsNotExist(err) {
			t.Fatalf("shard %d journal survived the merge back (err=%v)", i, err)
		}
	}
}

// TestDiskLoadedShardsCompact pins the full disk lifecycle: a manifest
// table written and re-read from disk (whose shards deserialize with
// distinct Schema instances) must accept appends and compact cleanly.
func TestDiskLoadedShardsCompact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "game.cohana")
	if err := storage.WriteShardedFile(path, buildShardedSealed(t, 3)); err != nil {
		t.Fatal(err)
	}
	sealed, err := storage.ReadSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := OpenSharded(sealed, Config{
		Persist: func(d storage.LayoutDelta) error { return storage.WriteShardedFile(path, d.Layout) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	schema := lt.Schema()
	var rows []Row
	for i := 0; i < 6; i++ {
		rows = append(rows, row(t, schema, fmt.Sprintf("disk-user-%d", i), 1369000000+int64(i), "launch", "China", "Beijing", "mage", 1, 0))
	}
	if err := lt.Append(rows); err != nil {
		t.Fatal(err)
	}
	if err := lt.CompactContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := lt.Stats()
	if st.SealedRows != sealed.NumRows()+len(rows) || st.DeltaRows != 0 {
		t.Fatalf("after disk-loaded compaction: %+v", st)
	}
	// The persisted layout reloads with every row.
	back, err := storage.ReadSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != st.SealedRows {
		t.Fatalf("persisted layout has %d rows, want %d", back.NumRows(), st.SealedRows)
	}
}

// TestReshardAtOpenPreservesRowsAndPersists pins load-time resharding: the
// sealed rows survive the 1 -> N rebuild bit-for-bit and the new layout is
// persisted before the table serves.
func TestReshardAtOpenPreservesRowsAndPersists(t *testing.T) {
	sealed := buildShardedSealed(t, 1)
	var persisted *storage.Sharded
	lt, err := OpenSharded(sealed, Config{
		Shards:  3,
		Persist: func(d storage.LayoutDelta) error { persisted = d.Layout; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	if lt.NumShards() != 3 {
		t.Fatalf("table has %d shards, want 3", lt.NumShards())
	}
	if persisted == nil || persisted.NumShards() != 3 {
		t.Fatal("resharded layout was not persisted before serving")
	}
	if got, want := lt.Stats().SealedRows, sealed.NumRows(); got != want {
		t.Fatalf("reshard lost rows: %d, want %d", got, want)
	}
	// Shards=0 keeps the stored count without a rebuild.
	lt0, err := OpenSharded(buildShardedSealed(t, 4), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt0.Close()
	if lt0.NumShards() != 4 {
		t.Fatalf("Shards=0 changed the stored count to %d", lt0.NumShards())
	}
}
