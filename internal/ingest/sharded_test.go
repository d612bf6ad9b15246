package ingest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
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

// usersInDistinctShards returns one user name per shard of an n-shard table.
func usersInDistinctShards(n int) []string {
	out := make([]string, n)
	found := 0
	for i := 0; found < n; i++ {
		u := fmt.Sprintf("spread-user-%d", i)
		s := storage.ShardOf(u, n)
		if out[s] == "" {
			out[s] = u
			found++
		}
	}
	return out
}

// deltaShards maps the primary key of every delta row to the shard holding
// it.
func deltaShards(lt *Table) map[string]int {
	out := make(map[string]int)
	for i, st := range lt.cur.Load().shards {
		for _, r := range st.log {
			user, ts, action := r.pk(lt.schema)
			out[pkKey(user, ts, action)] = i
		}
	}
	return out
}

// assertOnlyJournal fails unless base is the one file in its directory
// named after it: no legacy shard journal, coordinator log or temp leftover.
func assertOnlyJournal(t *testing.T, base string) {
	t.Helper()
	entries, err := os.ReadDir(filepath.Dir(base))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), filepath.Base(base)) {
			got = append(got, e.Name())
		}
	}
	if len(got) != 1 || got[0] != filepath.Base(base) {
		t.Fatalf("journal files %v, want exactly [%s]", got, filepath.Base(base))
	}
}

// TestJournalMigratesAcrossShardCounts is the durability half of the
// migration path: rows journaled under one shard count must survive
// reopening under another — 1 shard -> 4 shards -> back to 1 — with every
// row routed to its owning shard and the one journal file the only one.
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
	assertOnlyJournal(t, base)

	check := func(lt *Table, n int) {
		t.Helper()
		st := lt.Stats()
		if st.Shards != n || st.ReplayedRows != uint64(len(rows)) || st.DeltaRows != len(rows) {
			t.Fatalf("after migration to %d shards: %+v, want %d replayed rows", n, st, len(rows))
		}
		got := deltaShards(lt)
		for _, r := range rows {
			user, ts, action := r.pk(schema)
			if idx, ok := got[pkKey(user, ts, action)]; !ok || idx != storage.ShardOf(user, n) {
				t.Fatalf("row of %s restored in shard %d (present %v), want shard %d", user, idx, ok, storage.ShardOf(user, n))
			}
		}
		assertOnlyJournal(t, base)
	}
	// Reopen the same sealed data resharded to 4, then back down to one.
	lt4, err := OpenSharded(sealed1, Config{JournalPath: base, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	check(lt4, 4)
	if err := lt4.Close(); err != nil {
		t.Fatal(err)
	}
	lt1, err := OpenSharded(buildShardedSealed(t, 4), Config{JournalPath: base, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lt1.Close()
	check(lt1, 1)
}

// TestMultiShardBatchCostsOneFsync pins the write path's cost: a batch
// spanning every shard is one journal write and one fsync, and appends plus
// compactions never leave any journal file but the one.
func TestMultiShardBatchCostsOneFsync(t *testing.T) {
	sealed := buildShardedSealed(t, 3)
	base := filepath.Join(t.TempDir(), "game.journal")
	lt, err := OpenSharded(sealed, Config{
		JournalPath: base,
		Persist:     func(storage.LayoutDelta) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	schema := lt.Schema()
	users := usersInDistinctShards(3)
	var batch []Row
	for i, u := range users {
		batch = append(batch, row(t, schema, u, 2_000_000_000+int64(i), "launch", "China", "Beijing", "mage", 1, 0))
	}
	before := obs.JournalFsyncSeconds.Count()
	if err := lt.Append(batch); err != nil {
		t.Fatal(err)
	}
	if got := obs.JournalFsyncSeconds.Count() - before; got != 1 {
		t.Fatalf("a 3-shard batch cost %d journal fsyncs, want 1", got)
	}
	if err := compactShard(lt, 1); err != nil {
		t.Fatal(err)
	}
	if err := lt.Append([]Row{row(t, schema, users[1], 2_000_000_100, "shop", "China", "Beijing", "mage", 1, 5)}); err != nil {
		t.Fatal(err)
	}
	if err := lt.CompactContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := lt.Append([]Row{row(t, schema, users[2], 2_000_000_200, "shop", "China", "Beijing", "mage", 1, 5)}); err != nil {
		t.Fatal(err)
	}
	assertOnlyJournal(t, base)
	if st := lt.Stats(); st.DeltaRows != 1 || st.JournalBytes == 0 {
		t.Fatalf("after compactions: %+v, want 1 delta row journaled", st)
	}
}

// TestLegacyShardJournalsMigrate opens hand-written files in the per-shard
// layout older versions wrote: "<base>.s<i>" journals whose batches spanning
// several shards carry `#2,<rows>,<batchID>` markers, committed by
// `C,<batchID>` records in "<base>.txn". Exactly the committed rows must come
// back — an uncommitted prepared batch mid-file is skipped without cutting
// off the self-committed batch behind it, and a torn tail is dropped — and
// only "<base>" may remain.
func TestLegacyShardJournalsMigrate(t *testing.T) {
	sealed := buildShardedSealed(t, 2)
	dir := t.TempDir()
	base := filepath.Join(dir, "game.journal")
	users := usersInDistinctShards(2)
	line := func(user string, ts int64) string {
		return fmt.Sprintf("%s,%d,launch,China,Beijing,mage,1,0\n", user, ts)
	}
	files := map[string]string{
		// Batch 1 spans both shards and is committed; batch 2 is prepared on
		// shard 0 only and was never committed; batch 3 is self-committed;
		// then a row whose marker never reached the disk.
		base + ".s0": line(users[0], 100) + "#2,1,1\n" +
			line(users[0], 200) + "#2,1,2\n" +
			line(users[0], 300) + "#,1\n" +
			line(users[0], 400),
		// Batch 1's other half, then a torn record.
		base + ".s1":  line(users[1], 100) + "#2,1,1\n" + users[1] + ",5",
		base + ".txn": "C,1\n",
	}
	for path, body := range files {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]int{
		pkKey(users[0], 100, "launch"): 0,
		pkKey(users[1], 100, "launch"): 1,
		pkKey(users[0], 300, "launch"): 0,
	}
	for round := 0; round < 2; round++ {
		lt, err := OpenSharded(sealed, Config{JournalPath: base})
		if err != nil {
			t.Fatal(err)
		}
		got := deltaShards(lt)
		if st := lt.Stats(); len(got) != len(want) || st.ReplayedRows != uint64(len(want)) {
			t.Fatalf("open %d restored %v (stats %+v), want %v", round, got, st, want)
		}
		for k, idx := range want {
			if g, ok := got[k]; !ok || g != idx {
				t.Fatalf("open %d: row %q in shard %d (present %v), want shard %d", round, k, g, ok, idx)
			}
		}
		if err := lt.Close(); err != nil {
			t.Fatal(err)
		}
		assertOnlyJournal(t, base)
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

// compactShard synchronously seals one shard's delta.
func compactShard(t *Table, i int) error {
	if i < 0 || i >= len(t.shards) {
		return fmt.Errorf("ingest: shard %d out of range [0, %d)", i, len(t.shards))
	}
	return t.shards[i].compact()
}
