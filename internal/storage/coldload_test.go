package storage

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"repro/internal/activity"
	"repro/internal/gen"
)

// coldLoadFixture commits a table whose first chunk holds 32K rows — the
// chunk size the load test serves — and opens it lazily under a one-byte
// budget, so every PinChunk of chunk 0 after the first is a reload of a
// verified segment: a file read, a header parse and a bind.
func coldLoadFixture(tb testing.TB) *Table {
	tb.Helper()
	// The load test's density: ~19 rows per user.
	path := commitGenerated(tb, gen.Config{Users: 2000, Seed: 3}, 1, 32768)
	sh := readLazy(tb, path, NewChunkCache(1)).Shard(0)
	if rows := sh.ChunkRows(0); rows < 32768 {
		tb.Fatalf("fixture chunk 0 holds %d rows, want >= 32768", rows)
	}
	// First touch: reads, hashes and marks the segment verified.
	coldLoad(tb, sh)
	return sh
}

// coldLoad pins and releases chunk 0; under the one-byte budget the release
// evicts it again.
func coldLoad(tb testing.TB, sh *Table) {
	ch, release, err := sh.PinChunk(0)
	if err != nil {
		tb.Fatal(err)
	}
	if ch.NumRows() != sh.ChunkRows(0) {
		tb.Fatalf("loaded %d rows, manifest says %d", ch.NumRows(), sh.ChunkRows(0))
	}
	release()
}

// BenchmarkColdLoad is the cost of a chunk-cache miss on a verified segment.
func BenchmarkColdLoad(b *testing.B) {
	sh := coldLoadFixture(b)
	b.ReportAllocs()
	b.SetBytes(sh.metas[0].bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldLoad(b, sh)
	}
}

// TestColdLoadAllocs pins what a reload is allowed to allocate. In objects: a
// few dozen whatever the chunk holds — one allocation per user or per packed
// word (about 1,800 before segments were decoded in place) would blow well
// past the bound. In bytes: a small fraction of the segment. Under the
// one-byte budget every reload is a transient load, which reads into the
// pooled arena the previous release parked; allocating the read buffer, the
// index slices or the bound chunk afresh would cost more than the whole
// segment.
func TestColdLoadAllocs(t *testing.T) {
	sh := coldLoadFixture(t)
	if users := sh.ChunkUsers(0); users < 1000 {
		t.Fatalf("fixture chunk 0 holds %d users; the bound below would not notice per-user allocation", users)
	}
	allocs := testing.AllocsPerRun(20, func() { coldLoad(t, sh) })
	if allocs > 40 {
		t.Fatalf("reloading a verified chunk made %v allocations, want <= 40", allocs)
	}
	const reloads = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reloads; i++ {
		coldLoad(t, sh)
	}
	runtime.ReadMemStats(&after)
	seg := sh.metas[0].bytes
	if perLoad := int64(after.TotalAlloc-before.TotalAlloc) / reloads; perLoad >= seg/16 {
		t.Fatalf("reloading a verified chunk allocated %d bytes, want < %d (1/16 of its %d-byte segment)", perLoad, seg/16, seg)
	}
	if st := sh.cache.Stats(); st.ResidentBytes != 0 {
		t.Fatalf("one-byte budget left %d bytes resident", st.ResidentBytes)
	}
}

// TestSegmentNamesGolden pins the segment encoding: segment files are named
// by the SHA-256 of their bytes, so these names — recorded before BitPacked
// became byte-backed, and for the merged table before the build and the
// compaction shared one encoder — change if and only if a serialized byte
// does.
func TestSegmentNamesGolden(t *testing.T) {
	generated := gen.Config{Users: 60, Days: 12, MeanActions: 10, Seed: 9}
	for _, fx := range []struct {
		name      string
		tbl       *activity.Table
		shards    int
		chunkSize int
		merge     bool // merge goldenDelta into every shard before the commit
		want      []string
	}{
		{"generated", gen.Generate(generated), 2, 128, false, []string{
			"w.cohana.g3770fe0667c9e0dfdab56393aec35341.cohseg",
			"w.cohana.g4559b113364f4e5d1e1812f1a8889245.cohseg",
			"w.cohana.g8b0014342f0256575feac78a214dc8fd.cohseg",
			"w.cohana.ga3cff7ed42b0b9376845a179a773b581.cohseg",
		}},
		{"paper-table-1", activity.PaperTable1(), 1, 4, false, []string{
			"w.cohana.g59d4b288b2bd18e55cd3f04fc6f5155f.cohseg",
			"w.cohana.gaf30e1001bd17ba09f01159ce9be2763.cohseg",
		}},
		{"merged", gen.Generate(generated), 2, 128, true, []string{
			"w.cohana.g3770fe0667c9e0dfdab56393aec35341.cohseg",
			"w.cohana.g82063f05068d940a94c3fe80904ebd93.cohseg",
			"w.cohana.g8f7aad3b9d6d8def651c4cb4c4e4e96c.cohseg",
			"w.cohana.ga8686b130aad3cb65306454fb7f4c90e.cohseg",
			"w.cohana.gaa38bb6a564c6f0ccec0191a68583c13.cohseg",
			"w.cohana.gb0ad35a7d143b5166dc233261f00c3c7.cohseg",
		}},
	} {
		t.Run(fx.name, func(t *testing.T) {
			s, err := BuildSharded(fx.tbl, fx.shards, Options{ChunkSize: fx.chunkSize})
			if err != nil {
				t.Fatal(err)
			}
			if fx.merge {
				for si, batch := range goldenDelta(t, fx.tbl.Schema(), fx.shards) {
					merged, rebuilt, _, err := MergeDelta(s.Shard(si), batch, Options{ChunkSize: fx.chunkSize})
					if err != nil {
						t.Fatal(err)
					}
					if rebuilt == 0 {
						t.Fatalf("shard %d: the delta rebuilt no chunk", si)
					}
					s = s.WithShard(si, merged)
				}
			}
			dir := t.TempDir()
			if _, err := CommitSharded(filepath.Join(dir, "w.cohana"), s); err != nil {
				t.Fatal(err)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, e := range ents {
				if filepath.Ext(e.Name()) == SegmentExt {
					got = append(got, e.Name())
				}
			}
			sort.Strings(got)
			if len(got) != len(fx.want) {
				t.Fatalf("committed %d segments %v, want %d", len(got), got, len(fx.want))
			}
			for i := range got {
				if got[i] != fx.want[i] {
					t.Errorf("segment %d is named %s, want %s", i, got[i], fx.want[i])
				}
			}
		})
	}
}

// goldenDelta is a fixed delta over the generated table, split by shard: new
// tuples for three sealed users, one user below and one above every sealed
// one, and a country, city and role no sealed dictionary holds.
func goldenDelta(t *testing.T, schema *activity.Schema, shards int) []*activity.Table {
	t.Helper()
	parts := make([]*activity.Table, shards)
	for i := range parts {
		parts[i] = activity.NewTable(schema)
	}
	for k, user := range []string{"player-0000003", "player-0000017", "player-0000042", "aa-below", "zz-above"} {
		for i := 0; i < 30; i++ {
			action := gen.Actions[(i+k)%len(gen.Actions)]
			err := parts[ShardOf(user, shards)].Append(user, int64(2_000_000_000+60*i), action,
				"Narnia", "Cair Paravel", "faun", int64(k), int64(i*i-100))
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, p := range parts {
		if err := p.SortByPK(); err != nil {
			t.Fatal(err)
		}
	}
	return parts
}
