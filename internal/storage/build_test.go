package storage

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/activity"
	"repro/internal/gen"
)

// randomSortedTable draws a small sorted game table built to hit the
// encoder's corners: users of very different sizes (some larger than any chunk
// size tried), strings that repeat, stay constant or are empty, and integers
// from one value to the full 64-bit range, negative included.
func randomSortedTable(tb testing.TB, rng *rand.Rand) *activity.Table {
	tb.Helper()
	t := activity.NewTable(activity.GameSchema())
	users := rng.Intn(12)
	if rng.Intn(6) == 0 {
		users = 1
	}
	words := []string{"", "a", "b", "shop", "launch", "fight", "Beijing", "São Paulo"}
	pick := func(spread int) string { return words[rng.Intn(1+rng.Intn(spread))] }
	wide := []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, -1 << 40, 1 << 40}
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("u%03d", rng.Intn(500))
		rows := 1 + rng.Intn(6)
		if rng.Intn(5) == 0 {
			rows = 20 + rng.Intn(40)
		}
		country, city, role := pick(len(words)), pick(len(words)), pick(3)
		ts := rng.Int63n(1 << 20)
		if rng.Intn(8) == 0 {
			ts = math.MinInt64 + rng.Int63n(1<<20)
		}
		for r := 0; r < rows; r++ {
			session, gold := int64(rng.Intn(5)), int64(rng.Intn(200)-100)
			if rng.Intn(10) == 0 {
				session, gold = wide[rng.Intn(len(wide))], wide[rng.Intn(len(wide))]
			}
			if rng.Intn(10) == 0 {
				city = pick(len(words)) // dimension columns mostly, not always, constant per user
			}
			if err := t.Append(user, ts, pick(len(words)), country, city, role, session, gold); err != nil {
				tb.Fatal(err)
			}
			if ts += int64(rng.Intn(3)); rng.Intn(20) == 0 {
				ts += rng.Int63n(1 << 62)
			}
		}
	}
	if err := t.SortByPK(); err != nil {
		// Two users drew the same name and collided on (time, action).
		return randomSortedTable(tb, rng)
	}
	return t
}

// assertSameTable fails unless got is, byte for byte, the table want: the
// legacy serialization covers the dictionaries, ranges, user runs, chunk
// dictionaries and packed payloads, and the per-chunk segment bytes and
// handles (manifest stats) are what a commit would write.
func assertSameTable(tb testing.TB, what string, got, want *Table) {
	tb.Helper()
	if got.NumRows() != want.NumRows() || got.NumUsers() != want.NumUsers() || got.NumChunks() != want.NumChunks() || got.ChunkSize() != want.ChunkSize() {
		tb.Fatalf("%s: %d rows / %d users / %d chunks of %d, want %d / %d / %d of %d", what,
			got.NumRows(), got.NumUsers(), got.NumChunks(), got.ChunkSize(),
			want.NumRows(), want.NumUsers(), want.NumChunks(), want.ChunkSize())
	}
	schema := want.Schema()
	for c := 0; c < schema.NumCols(); c++ {
		if c == schema.UserCol() {
			continue // users have no dictionary; the segments and the serialization cover them
		}
		if schema.IsStringCol(c) {
			if !reflect.DeepEqual(got.Dict(c).Values(), want.Dict(c).Values()) {
				tb.Fatalf("%s: column %d dictionary %q, want %q", what, c, got.Dict(c).Values(), want.Dict(c).Values())
			}
			continue
		}
		gmn, gmx := globalRange(got, c)
		wmn, wmx := globalRange(want, c)
		if gmn != wmn || gmx != wmx {
			tb.Fatalf("%s: column %d global range [%d, %d], want [%d, %d]", what, c, gmn, gmx, wmn, wmx)
		}
	}
	for ci := 0; ci < want.NumChunks(); ci++ {
		if !bytes.Equal(chunkSegment(tb, got, ci), chunkSegment(tb, want, ci)) {
			tb.Fatalf("%s: chunk %d segment bytes differ", what, ci)
		}
		gm, wm := got.metas[ci], want.metas[ci]
		gm.seg, wm.seg = nil, nil
		if !reflect.DeepEqual(gm, wm) {
			tb.Fatalf("%s: chunk %d handle %+v, want %+v", what, ci, gm, wm)
		}
		gf, gl := got.ChunkUserRange(ci)
		wf, wl := want.ChunkUserRange(ci)
		if gf != wf || gl != wl {
			tb.Fatalf("%s: chunk %d user range [%q, %q], want [%q, %q]", what, ci, gf, gl, wf, wl)
		}
	}
	gb, err := got.Serialize()
	if err != nil {
		tb.Fatal(err)
	}
	wb, err := want.Serialize()
	if err != nil {
		tb.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		tb.Fatalf("%s: serialized tables differ", what)
	}
}

// checkBuildEquivalence is the property behind TestBuildEquivalence and
// FuzzBuildEquivalence: for one random table, the production encoder and the
// reference builder agree on every shard at several shard counts and chunk
// sizes, and a delta merged by MergeDelta leaves every rebuilt chunk equal to
// the reference encoding of that chunk's rows.
func checkBuildEquivalence(tb testing.TB, seed int64) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	t := randomSortedTable(tb, rng)
	for _, shards := range []int{1, 2, 3} {
		for _, chunkSize := range []int{1, 2, 7, 64, 1 << 20} {
			opts := Options{ChunkSize: chunkSize}
			what := fmt.Sprintf("seed %d, %d shards, chunk size %d", seed, shards, chunkSize)
			got, err := BuildSharded(t, shards, opts)
			if err != nil {
				tb.Fatalf("%s: %v", what, err)
			}
			want, err := refBuildSharded(t, shards, opts)
			if err != nil {
				tb.Fatalf("%s: reference: %v", what, err)
			}
			if got.NumShards() != want.NumShards() {
				tb.Fatalf("%s: %d shards, want %d", what, got.NumShards(), want.NumShards())
			}
			for si := 0; si < want.NumShards(); si++ {
				assertSameTable(tb, fmt.Sprintf("%s, shard %d", what, si), got.Shard(si), want.Shard(si))
			}
		}
	}
	delta := randomSortedTable(tb, rng)
	for _, chunkSize := range []int{3, 64} {
		opts := Options{ChunkSize: chunkSize}
		old, err := Build(t, opts)
		if err != nil {
			tb.Fatal(err)
		}
		merged, _, _, err := MergeDelta(old, delta, opts)
		if err != nil {
			continue // the delta collided with a sealed primary key
		}
		assertMergedChunksMatchReference(tb, fmt.Sprintf("seed %d, merge at chunk size %d", seed, chunkSize), merged)
	}
}

// assertMergedChunksMatchReference checks a merged table against the
// reference builder: each chunk's bytes equal the reference encoding of the
// rows it holds (segments are self-contained, so this holds whatever the
// other chunks are), and the dictionaries and ranges are those of the
// reference build of all the rows.
func assertMergedChunksMatchReference(tb testing.TB, what string, merged *Table) {
	tb.Helper()
	rows, err := merged.Materialize()
	if err != nil {
		tb.Fatal(err)
	}
	whole, err := refBuild(rows, Options{ChunkSize: math.MaxInt})
	if err != nil {
		tb.Fatal(err)
	}
	schema := merged.Schema()
	for c := 0; c < schema.NumCols(); c++ {
		if schema.IsStringCol(c) {
			if d := merged.Dict(c); d != nil && !reflect.DeepEqual(d.Values(), whole.Dict(c).Values()) {
				tb.Fatalf("%s: column %d dictionary %q, want %q", what, c, d.Values(), whole.Dict(c).Values())
			}
			continue
		}
		gmn, gmx := globalRange(merged, c)
		wmn, wmx := globalRange(whole, c)
		if gmn != wmn || gmx != wmx {
			tb.Fatalf("%s: column %d global range [%d, %d], want [%d, %d]", what, c, gmn, gmx, wmn, wmx)
		}
	}
	for ci := 0; ci < merged.NumChunks(); ci++ {
		part, err := merged.MaterializeChunk(ci)
		if err != nil {
			tb.Fatal(err)
		}
		ref, err := refBuild(part, Options{ChunkSize: math.MaxInt})
		if err != nil {
			tb.Fatal(err)
		}
		ch, release, err := merged.PinChunk(ci)
		if err != nil {
			tb.Fatal(err)
		}
		got := appendChunkSegment(nil, schema, merged.dicts, ch)
		release()
		if !bytes.Equal(got, chunkSegment(tb, ref, 0)) {
			tb.Fatalf("%s: chunk %d bytes differ from the reference encoding of its rows", what, ci)
		}
	}
}

func TestBuildEquivalence(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		checkBuildEquivalence(t, seed)
	}
}

// FuzzBuildEquivalence lets the fuzzer pick the table.
func FuzzBuildEquivalence(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, -7} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkBuildEquivalence(t, seed) })
}

// TestBuildEquivalenceGenerated runs the same comparison on generated game
// data at a size where shards hold several chunks and the fan-out has work to
// race over, and through a lazy merge.
func TestBuildEquivalenceGenerated(t *testing.T) {
	tbl := gen.Generate(gen.Config{Users: 300, Days: 20, MeanActions: 20, Seed: 4})
	for _, shards := range []int{1, 3} {
		opts := Options{ChunkSize: 128}
		got, err := BuildSharded(tbl, shards, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refBuildSharded(tbl, shards, opts)
		if err != nil {
			t.Fatal(err)
		}
		for si := 0; si < shards; si++ {
			if got.Shard(si).NumChunks() < 3 {
				t.Fatalf("shard %d holds %d chunks; the fan-out is not exercised", si, got.Shard(si).NumChunks())
			}
			assertSameTable(t, fmt.Sprintf("%d shards, shard %d", shards, si), got.Shard(si), want.Shard(si))
		}
	}
	path := commitGenerated(t, gen.Config{Users: 60, Days: 12, MeanActions: 10, Seed: 9}, 2, 128)
	lazy := readLazy(t, path, NewChunkCache(0))
	for si, batch := range goldenDelta(t, lazy.Schema(), 2) {
		merged, rebuilt, _, err := MergeDelta(lazy.Shard(si), batch, Options{ChunkSize: 128})
		if err != nil {
			t.Fatal(err)
		}
		if perm := permChunks(merged); rebuilt == 0 || perm != rebuilt {
			t.Fatalf("shard %d: %d perm chunks after rebuilding %d, want the rebuilt ones perm and the rest cold", si, perm, rebuilt)
		}
		assertMergedChunksMatchReference(t, fmt.Sprintf("lazy merge, shard %d", si), merged)
	}
}

// TestBuildDeterministicAcrossProcs pins that the chunk fan-out leaves no
// trace in the output: the same table built on one and on four processors
// has the same chunks, in the same order, with the same content hashes.
func TestBuildDeterministicAcrossProcs(t *testing.T) {
	tbl := gen.Generate(gen.Config{Users: 300, Days: 20, MeanActions: 20, Seed: 4})
	hashes := func(procs int) [][]string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s, err := BuildSharded(tbl, 2, Options{ChunkSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]string, s.NumShards())
		for si, sh := range s.Shards() {
			for ci := 0; ci < sh.NumChunks(); ci++ {
				hash, _, _ := sh.segment(ci)
				out[si] = append(out[si], hash)
			}
		}
		return out
	}
	one, four := hashes(1), hashes(4)
	if len(one[0]) < 4 {
		t.Fatalf("shard 0 holds %d chunks; the fan-out is not exercised", len(one[0]))
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("segment hashes differ between GOMAXPROCS 1 and 4:\n%v\n%v", one, four)
	}
}

// TestShardOfGolden pins the routing function to values recorded before its
// FNV-1a loop was written out by hand. Journals and committed layouts depend
// on it never changing.
func TestShardOfGolden(t *testing.T) {
	for _, g := range []struct {
		user              string
		two, three, seven int
	}{
		{"player-0000001", 0, 1, 0},
		{"player-0000002", 1, 0, 4},
		{"player-0114153", 0, 0, 6},
		{"fresh-user", 1, 0, 3},
		{"", 1, 2, 2},
		{"a", 0, 1, 5},
		{"用户-7", 1, 2, 0},
		{"crash-user", 0, 0, 3},
	} {
		if two, three, seven := ShardOf(g.user, 2), ShardOf(g.user, 3), ShardOf(g.user, 7); two != g.two || three != g.three || seven != g.seven {
			t.Errorf("ShardOf(%q) over 2, 3, 7 shards = %d, %d, %d, want %d, %d, %d",
				g.user, two, three, seven, g.two, g.three, g.seven)
		}
	}
	user := "player-0114153"
	if allocs := testing.AllocsPerRun(100, func() { shardSink = ShardOf(user, 7) }); allocs != 0 {
		t.Errorf("ShardOf allocates %v times per call, want 0", allocs)
	}
}

var shardSink int

// buildBenchTable is ~200K rows at the load test's density.
func buildBenchTable() *activity.Table {
	return gen.Generate(gen.Config{Users: 10500, Seed: 5})
}

// BenchmarkBuildSharded is the Figure 10 cost: compressing a sorted table,
// at one and two shards with the load test's 32K-row chunks.
func BenchmarkBuildSharded(b *testing.B) {
	tbl := buildBenchTable()
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildSharded(tbl, shards, Options{ChunkSize: 32768}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tbl.Len()), "ns/row")
		})
	}
}

// TestBuildAllocs bounds what a build may allocate per chunk: the chunk's
// column payloads, value lists and handles — a small constant per column —
// plus each worker's scratch, shared by the chunks it encodes. One allocation
// per row, per user or per distinct value would be thousands per chunk.
func TestBuildAllocs(t *testing.T) {
	tbl := buildBenchTable()
	const chunkSize = 8192
	s, err := BuildSharded(tbl, 1, Options{ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	chunks := s.NumChunks()
	if chunks < 20 || s.NumUsers()/chunks < 300 {
		t.Fatalf("fixture holds %d chunks of ~%d users; the bound below would not notice per-user allocation", chunks, s.NumUsers()/max(chunks, 1))
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := BuildSharded(tbl, 1, Options{ChunkSize: chunkSize}); err != nil {
			t.Fatal(err)
		}
	})
	cols := tbl.Schema().NumCols()
	if perChunk := allocs / float64(chunks); perChunk > float64(8*cols) {
		t.Fatalf("building %d chunks made %v allocations, %.0f per chunk, want <= %d (8 per column)", chunks, allocs, perChunk, 8*cols)
	}
}
