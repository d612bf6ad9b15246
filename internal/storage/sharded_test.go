package storage

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
)

func buildWorkload(t *testing.T) *Sharded {
	t.Helper()
	tbl := gen.Generate(gen.Config{Users: 60, Days: 12, MeanActions: 10, Seed: 9})
	s, err := BuildSharded(tbl, 4, Options{ChunkSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardOfIsStable pins the user-hash routing: journals, manifests and
// the build partitioning all assume ShardOf never changes across versions —
// a silent change would split existing users across shards on the next
// journal replay and double-count them in every cohort.
func TestShardOfIsStable(t *testing.T) {
	for user, want := range map[string]int{
		"player-0000001": 0,
		"player-0000002": 4,
		"fresh-user":     3,
		"":               2,
	} {
		if got := ShardOf(user, 7); got != want {
			t.Errorf("ShardOf(%q, 7) = %d, want %d (hash function changed?)", user, got, want)
		}
	}
	if got := ShardOf("anything", 1); got != 0 {
		t.Errorf("ShardOf with one shard = %d, want 0", got)
	}
}

func TestBuildShardedPartitionsWholeUsers(t *testing.T) {
	tbl := gen.Generate(gen.Config{Users: 60, Days: 12, MeanActions: 10, Seed: 9})
	s, err := BuildSharded(tbl, 4, Options{ChunkSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRows() != tbl.Len() || s.NumUsers() != tbl.NumUsers() {
		t.Fatalf("sharded totals %d rows / %d users, want %d / %d",
			s.NumRows(), s.NumUsers(), tbl.Len(), tbl.NumUsers())
	}
	// Every user's block must live in exactly the shard ShardOf names.
	for i := 0; i < s.NumShards(); i++ {
		part := mustMaterialize(t, s.Shard(i))
		part.UserBlocks(func(user string, _, _ int) {
			if ShardOf(user, 4) != i {
				t.Fatalf("user %q found in shard %d, want %d", user, i, ShardOf(user, 4))
			}
			if _, _, ok, err := s.Shard(i).FindUser(user); !ok || err != nil {
				t.Fatalf("user %q not found in its shard: %v", user, err)
			}
		})
	}
}

func TestShardedManifestRoundTrip(t *testing.T) {
	s := buildWorkload(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "game.cohana")
	if err := WriteShardedFile(path, s); err != nil {
		t.Fatal(err)
	}
	// The manifest is distinguishable from a legacy table file.
	head, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(head), shardMagicV3) {
		t.Fatal("multi-shard write did not produce a manifest")
	}
	got, err := ReadShardedWith(path, ReadOptions{Cache: NewChunkCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumShards() != s.NumShards() || got.NumRows() != s.NumRows() || got.NumUsers() != s.NumUsers() {
		t.Fatalf("roundtrip: %d shards / %d rows / %d users, want %d / %d / %d",
			got.NumShards(), got.NumRows(), got.NumUsers(), s.NumShards(), s.NumRows(), s.NumUsers())
	}
	for i := 0; i < s.NumShards(); i++ {
		if got.Shard(i).NumRows() != s.Shard(i).NumRows() {
			t.Fatalf("shard %d: %d rows after roundtrip, want %d", i, got.Shard(i).NumRows(), s.Shard(i).NumRows())
		}
	}

	// Segments are content-addressed: re-committing the identical layout
	// reuses every segment file on disk and writes only the manifest.
	before := listSegments(path)
	if len(before) != s.NumChunks() {
		t.Fatalf("%d segments on disk, want one per chunk (%d)", len(before), s.NumChunks())
	}
	stats, err := CommitSharded(path, got)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsWritten != 0 || stats.SegmentsReused != s.NumChunks() {
		t.Fatalf("identical re-commit wrote %d segments (reused %d), want 0 written / %d reused",
			stats.SegmentsWritten, stats.SegmentsReused, s.NumChunks())
	}
	after := listSegments(path)
	if len(after) != len(before) {
		t.Fatalf("%d segments after identical re-commit, want %d", len(after), len(before))
	}
}

// TestEncodedSizeIsSegmentBytes pins one storage-size answer for a table
// however it was made: a built table reports the bytes of the segment files
// its commit writes, and the reopened table reports the same.
func TestEncodedSizeIsSegmentBytes(t *testing.T) {
	built, path := buildAndCommit(t, gen.Config{Users: 400, Days: 12, MeanActions: 10, Seed: 9}, 2, 128)
	var files int64
	for _, f := range listSegments(path) {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		files += fi.Size()
	}
	back := readBack(t, path)
	if got, reopened := int64(built.EncodedSize()), int64(back.EncodedSize()); got != files || reopened != files {
		t.Fatalf("EncodedSize built %d, reopened %d; the segment files hold %d bytes", got, reopened, files)
	}
	// A built table that has not been committed answers the same.
	fresh, err := BuildSharded(gen.Generate(gen.Config{Users: 400, Days: 12, MeanActions: 10, Seed: 9}), 2, Options{ChunkSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(fresh.EncodedSize()); got != files {
		t.Fatalf("EncodedSize of an uncommitted build %d, want %d", got, files)
	}
}

// TestLegacyFileLoadsAsOneShard pins the migration path: a single-table
// .cohana file written by the pre-sharding format must load as a 1-shard
// table, and its first persist upgrades it to a v2 chunk-granular manifest
// that loads back identically.
func TestLegacyFileLoadsAsOneShard(t *testing.T) {
	tbl := gen.Generate(gen.Config{Users: 30, Days: 10, MeanActions: 8, Seed: 3})
	st, err := Build(tbl, Options{ChunkSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "legacy.cohana")
	if err := st.WriteFile(path); err != nil { // the pre-sharding writer
		t.Fatal(err)
	}
	s, err := ReadShardedWith(path, ReadOptions{Cache: NewChunkCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 1 || s.NumRows() != st.NumRows() {
		t.Fatalf("legacy file loaded as %d shards / %d rows, want 1 / %d", s.NumShards(), s.NumRows(), st.NumRows())
	}
	// Upgrade on first persist: the write replaces the legacy file with a v2
	// manifest plus per-chunk segments, and chunking is preserved.
	if err := WriteShardedFile(path, s); err != nil {
		t.Fatal(err)
	}
	head, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(head), shardMagicV3) {
		t.Fatal("persisting a legacy load did not upgrade it to a manifest")
	}
	back, err := ReadShardedWith(path, ReadOptions{Cache: NewChunkCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumShards() != 1 || back.NumRows() != st.NumRows() || back.NumUsers() != st.NumUsers() ||
		back.NumChunks() != st.NumChunks() {
		t.Fatalf("upgraded manifest reloads as %d shards / %d rows / %d users / %d chunks, want 1 / %d / %d / %d",
			back.NumShards(), back.NumRows(), back.NumUsers(), back.NumChunks(),
			st.NumRows(), st.NumUsers(), st.NumChunks())
	}
	want := mustMaterialize(t, st)
	got := mustMaterialize(t, back.Shard(0))
	if got.Len() != want.Len() {
		t.Fatalf("upgraded manifest materializes %d rows, want %d", got.Len(), want.Len())
	}
	for c := 0; c < want.Schema().NumCols(); c++ {
		if want.Schema().IsStringCol(c) {
			for i, v := range want.Strings(c) {
				if got.Strings(c)[i] != v {
					t.Fatalf("row %d col %d: %q != %q", i, c, got.Strings(c)[i], v)
				}
			}
		} else {
			for i, v := range want.Ints(c) {
				if got.Ints(c)[i] != v {
					t.Fatalf("row %d col %d: %d != %d", i, c, got.Ints(c)[i], v)
				}
			}
		}
	}
}

// TestV1ManifestLoadsAndUpgrades pins the COHANAS1 migration path: a v1
// manifest (one whole-shard legacy segment per shard, the format PR 3
// wrote) must load transparently, and its next persist must upgrade it to a
// v2 chunk-granular manifest and sweep the v1 segments.
func TestV1ManifestLoadsAndUpgrades(t *testing.T) {
	s := buildWorkload(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "v1.cohana")
	// Hand-write the v1 layout: per-shard legacy segments plus the COHANAS1
	// manifest (no writer for it exists anymore).
	segs := make([]string, s.NumShards())
	for i := 0; i < s.NumShards(); i++ {
		segs[i] = fmt.Sprintf("v1.cohana.v1.s%d%s", i, SegmentExt)
		if err := s.Shard(i).WriteFile(filepath.Join(dir, segs[i])); err != nil {
			t.Fatal(err)
		}
	}
	body, err := json.Marshal(manifestJSON{Version: 1, Segments: segs})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append([]byte(shardMagic), body...), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadShardedWith(path, ReadOptions{Cache: NewChunkCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumShards() != s.NumShards() || got.NumRows() != s.NumRows() || got.NumUsers() != s.NumUsers() {
		t.Fatalf("v1 manifest loaded as %d shards / %d rows / %d users, want %d / %d / %d",
			got.NumShards(), got.NumRows(), got.NumUsers(), s.NumShards(), s.NumRows(), s.NumUsers())
	}
	// Upgrade on persist: v2 manifest, per-chunk segments, v1 files swept.
	if err := WriteShardedFile(path, got); err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if _, err := os.Stat(filepath.Join(dir, seg)); !os.IsNotExist(err) {
			t.Fatalf("v1 segment %s survived the upgrade sweep", seg)
		}
	}
	back, err := ReadShardedWith(path, ReadOptions{Cache: NewChunkCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != s.NumRows() || back.NumChunks() != got.NumChunks() {
		t.Fatalf("upgraded manifest: %d rows / %d chunks, want %d / %d",
			back.NumRows(), back.NumChunks(), s.NumRows(), got.NumChunks())
	}
}

// TestShardedDictionaryView pins the per-shard dictionaries: every value of
// the source resolves in the dictionary of some shard, and a value the source
// lacks resolves in none.
func TestShardedDictionaryView(t *testing.T) {
	tbl := gen.Generate(gen.Config{Users: 60, Days: 12, MeanActions: 10, Seed: 9})
	s, err := BuildSharded(tbl, 4, Options{ChunkSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	schema := tbl.Schema()
	col := schema.ColIndex("country")
	seen := map[string]bool{}
	for _, v := range tbl.Strings(col) {
		seen[v] = true
	}
	inSomeShard := func(v string) bool {
		for _, sh := range s.Shards() {
			if _, ok := sh.LookupString(col, v); ok {
				return true
			}
		}
		return false
	}
	for v := range seen {
		if !inSomeShard(v) {
			t.Fatalf("country %q in no shard's dictionary", v)
		}
	}
	if inSomeShard("Atlantis") {
		t.Fatal("a shard dictionary invented a country")
	}
}

// TestSweepKeepsOtherTablesSegments pins the segment sweep to the committed
// table's own files: committing a table whose name is a glob matching
// another table's must leave that table's segments alone.
func TestSweepKeepsOtherTablesSegments(t *testing.T) {
	dir := t.TempDir()
	s := buildWorkload(t)
	ab := filepath.Join(dir, "ab.cohana")
	if _, err := CommitSharded(ab, s); err != nil {
		t.Fatal(err)
	}
	before := countSegments(t, dir, "ab.cohana")
	if before != s.NumChunks() {
		t.Fatalf("%d segments of ab, want %d", before, s.NumChunks())
	}
	if _, err := CommitSharded(filepath.Join(dir, "a*.cohana"), smallWorkload(t)); err != nil {
		t.Fatal(err)
	}
	if got := countSegments(t, dir, "ab.cohana"); got != before {
		t.Fatalf("ab has %d segments after committing a*, want %d", got, before)
	}
	back, err := ReadShardedWith(ab, ReadOptions{Cache: NewChunkCache(0)})
	if err != nil {
		t.Fatalf("reopening ab after committing a*: %v", err)
	}
	if back.NumRows() != s.NumRows() {
		t.Fatalf("ab reopened with %d rows, want %d", back.NumRows(), s.NumRows())
	}
}

// TestSweepGlobSyntaxTableName pins the sweep for a table whose name is not
// a well-formed pattern ("a[b"): its stale segments go like any other's.
func TestSweepGlobSyntaxTableName(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a[b.cohana")
	if _, err := CommitSharded(path, buildWorkload(t)); err != nil {
		t.Fatal(err)
	}
	other := smallWorkload(t)
	if _, err := CommitSharded(path, other); err != nil {
		t.Fatal(err)
	}
	if got := countSegments(t, dir, "a[b.cohana"); got != other.NumChunks() {
		t.Fatalf("a[b keeps %d segments after recommitting, want %d (stale ones swept)", got, other.NumChunks())
	}
	back, err := ReadShardedWith(path, ReadOptions{Cache: NewChunkCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != other.NumRows() {
		t.Fatalf("a[b reopened with %d rows, want %d", back.NumRows(), other.NumRows())
	}
}

// smallWorkload is a table with other content than buildWorkload's, so none
// of its segments share a name with that one's.
func smallWorkload(t *testing.T) *Sharded {
	t.Helper()
	s, err := BuildSharded(gen.Generate(gen.Config{Users: 20, Days: 5, MeanActions: 6, Seed: 4}), 1, Options{ChunkSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// countSegments counts the segment files of table base in dir by name
// alone, independently of listSegments.
func countSegments(t *testing.T, dir, base string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), base+".") && strings.HasSuffix(e.Name(), SegmentExt) {
			n++
		}
	}
	return n
}
