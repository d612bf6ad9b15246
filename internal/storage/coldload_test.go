package storage

import (
	"os"
	"path/filepath"
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
	b.SetBytes(sh.lazy.metas[0].bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldLoad(b, sh)
	}
}

// TestColdLoadAllocs pins what a reload is allowed to allocate: the read
// buffer, the index slices over it and the bound chunk — a few dozen objects
// whatever the chunk holds. One allocation per user or per packed word (about
// 1,800 before segments were decoded in place) would blow well past the
// bound.
func TestColdLoadAllocs(t *testing.T) {
	sh := coldLoadFixture(t)
	if users := sh.ChunkUsers(0); users < 1000 {
		t.Fatalf("fixture chunk 0 holds %d users; the bound below would not notice per-user allocation", users)
	}
	allocs := testing.AllocsPerRun(20, func() { coldLoad(t, sh) })
	if allocs > 40 {
		t.Fatalf("reloading a verified chunk made %v allocations, want <= 40", allocs)
	}
	if st := sh.lazy.cache.Stats(); st.ResidentBytes != 0 {
		t.Fatalf("one-byte budget left %d bytes resident", st.ResidentBytes)
	}
}

// TestSegmentNamesGolden pins the segment encoding: segment files are named
// by the SHA-256 of their bytes, so these names — recorded before BitPacked
// became byte-backed — change if and only if a serialized byte does.
func TestSegmentNamesGolden(t *testing.T) {
	for _, fx := range []struct {
		name      string
		tbl       *activity.Table
		shards    int
		chunkSize int
		want      []string
	}{
		{"generated", gen.Generate(gen.Config{Users: 60, Days: 12, MeanActions: 10, Seed: 9}), 2, 128, []string{
			"w.cohana.g3770fe0667c9e0dfdab56393aec35341.cohseg",
			"w.cohana.g4559b113364f4e5d1e1812f1a8889245.cohseg",
			"w.cohana.g8b0014342f0256575feac78a214dc8fd.cohseg",
			"w.cohana.ga3cff7ed42b0b9376845a179a773b581.cohseg",
		}},
		{"paper-table-1", activity.PaperTable1(), 1, 4, []string{
			"w.cohana.g59d4b288b2bd18e55cd3f04fc6f5155f.cohseg",
			"w.cohana.gaf30e1001bd17ba09f01159ce9be2763.cohseg",
		}},
	} {
		t.Run(fx.name, func(t *testing.T) {
			s, err := BuildSharded(fx.tbl, fx.shards, Options{ChunkSize: fx.chunkSize})
			if err != nil {
				t.Fatal(err)
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
