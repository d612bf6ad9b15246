package storage

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/activity"
)

func buildPaperTable(t *testing.T, chunkSize int) *Table {
	t.Helper()
	st, err := Build(activity.PaperTable1(), Options{ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// pinned pins chunk i of st for the rest of the test.
func pinned(tb testing.TB, st *Table, i int) *Chunk {
	tb.Helper()
	ch, release, err := st.PinChunk(i)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(release)
	return ch
}

// chunkSegment serializes chunk i of st as a self-contained segment.
func chunkSegment(tb testing.TB, st *Table, i int) []byte {
	tb.Helper()
	return appendChunkSegment(nil, st.schema, st.dicts, pinned(tb, st, i))
}

// readBack opens a committed table on a private unbounded cache.
func readBack(tb testing.TB, path string) *Sharded {
	tb.Helper()
	s, err := ReadShardedWith(path, ReadOptions{Cache: NewChunkCache(0)})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func TestBuildRequiresSortedInput(t *testing.T) {
	tbl := activity.NewTable(activity.PaperSchema())
	if err := tbl.Append("001", int64(1), "launch", "r", "c", int64(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(tbl, Options{}); err == nil {
		t.Error("unsorted table accepted")
	}
}

func TestBuildBasicProperties(t *testing.T) {
	st := buildPaperTable(t, 1024)
	if st.NumRows() != 10 || st.NumUsers() != 3 {
		t.Fatalf("rows=%d users=%d", st.NumRows(), st.NumUsers())
	}
	if st.NumChunks() != 1 {
		t.Fatalf("chunks=%d, want 1", st.NumChunks())
	}
	ch := pinned(t, st, 0)
	if ch.NumRows() != 10 || ch.NumUsers() != 3 {
		t.Fatalf("chunk rows=%d users=%d", ch.NumRows(), ch.NumUsers())
	}
}

func TestUserAlignedChunking(t *testing.T) {
	// Chunk size 3 with users of 5, 3 and 2 tuples: chunks must close at
	// user boundaries, never splitting a user (clustering property).
	st := buildPaperTable(t, 3)
	if st.NumChunks() != 3 {
		t.Fatalf("chunks=%d, want 3", st.NumChunks())
	}
	total := 0
	for i := 0; i < st.NumChunks(); i++ {
		ch := pinned(t, st, i)
		total += ch.NumRows()
		if ch.NumUsers() != 1 {
			t.Errorf("chunk %d has %d users, want 1", i, ch.NumUsers())
		}
	}
	if total != 10 {
		t.Errorf("chunk rows sum to %d", total)
	}
}

// decodeAll reconstructs the logical table from the compressed form.
func decodeAll(st *Table) (users, actions []string, times []int64, golds []int64) {
	schema := st.Schema()
	tc, ac := schema.TimeCol(), schema.ActionCol()
	gc := schema.ColIndex("gold")
	for i := 0; i < st.NumChunks(); i++ {
		ch, release, err := st.PinChunk(i)
		if err != nil {
			panic(err)
		}
		for r := 0; r < ch.NumUsers(); r++ {
			gid, first, n := ch.UserRun(r)
			for row := first; row < first+n; row++ {
				users = append(users, st.UserString(ch, gid))
				actions = append(actions, st.Dict(ac).Value(ch.StringID(ac, row)))
				times = append(times, ch.Int(tc, row))
				golds = append(golds, ch.Int(gc, row))
			}
		}
		release()
	}
	return
}

func TestRoundTripAgainstSource(t *testing.T) {
	src := activity.PaperTable1()
	for _, chunkSize := range []int{2, 3, 5, 1024} {
		st, err := Build(src, Options{ChunkSize: chunkSize})
		if err != nil {
			t.Fatal(err)
		}
		users, actions, times, golds := decodeAll(st)
		for i := 0; i < src.Len(); i++ {
			if users[i] != src.User(i) || actions[i] != src.Action(i) || times[i] != src.Time(i) || golds[i] != src.Ints(5)[i] {
				t.Fatalf("chunkSize=%d row %d mismatch: %s/%s/%d/%d", chunkSize, i, users[i], actions[i], times[i], golds[i])
			}
		}
	}
}

func TestChunkPruningHelpers(t *testing.T) {
	st := buildPaperTable(t, 3) // one user per chunk
	ac := st.Schema().ActionCol()
	launchID, ok := st.LookupString(ac, "launch")
	if !ok {
		t.Fatal("launch missing from global dictionary")
	}
	shopID, _ := st.LookupString(ac, "shop")
	// Player 003 (chunk 2) never shopped.
	if pinned(t, st, 2).HasGlobalID(ac, shopID) || st.ChunkMayHaveGID(2, ac, shopID) {
		t.Error("chunk 2 claims to contain shop")
	}
	for i := 0; i < 3; i++ {
		if !pinned(t, st, i).HasGlobalID(ac, launchID) || !st.ChunkMayHaveGID(i, ac, launchID) {
			t.Errorf("chunk %d missing launch", i)
		}
	}
	if _, ok := st.LookupString(ac, "teleport"); ok {
		t.Error("absent action found")
	}
	// Integer ranges.
	gc := st.Schema().ColIndex("gold")
	mn, mx := pinned(t, st, 1).IntRange(gc) // player 002: gold 0, 30, 40
	if mn != 0 || mx != 40 {
		t.Errorf("chunk 1 gold range = [%d, %d]", mn, mx)
	}
	if mn, mx := st.ChunkIntRange(1, gc); mn != 0 || mx != 40 {
		t.Errorf("chunk 1 gold range from its handle = [%d, %d]", mn, mx)
	}
	gmn, gmx := globalRange(st, gc)
	if gmn != 0 || gmx != 100 {
		t.Errorf("global gold range = [%d, %d]", gmn, gmx)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	for _, chunkSize := range []int{2, 1024} {
		st := buildPaperTable(t, chunkSize)
		buf, err := st.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Deserialize(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != st.NumRows() || got.NumUsers() != st.NumUsers() || got.NumChunks() != st.NumChunks() {
			t.Fatalf("header mismatch after round trip")
		}
		u1, a1, t1, g1 := decodeAll(st)
		u2, a2, t2, g2 := decodeAll(got)
		for i := range u1 {
			if u1[i] != u2[i] || a1[i] != a2[i] || t1[i] != t2[i] || g1[i] != g2[i] {
				t.Fatalf("row %d differs after round trip", i)
			}
		}
	}
}

func TestWriteReadFile(t *testing.T) {
	st := buildPaperTable(t, 1024)
	path := filepath.Join(t.TempDir(), "game.cohana")
	if err := st.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 10 {
		t.Errorf("rows = %d", got.NumRows())
	}
}

func TestDeserializeErrors(t *testing.T) {
	if _, err := Deserialize([]byte("NOTCOHANA")); err == nil {
		t.Error("bad magic accepted")
	}
	st := buildPaperTable(t, 1024)
	buf, _ := st.Serialize()
	if _, err := Deserialize(buf[:len(buf)/2]); err == nil {
		t.Error("truncated table accepted")
	}
	if _, err := Deserialize(append(buf, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestEncodedSizeGrowsWithChunkSize(t *testing.T) {
	// Section 5.3.1: larger chunks -> more distinct values per chunk ->
	// wider bit packing -> more storage. With a table this small the effect
	// is tiny but the ordering must hold between 1-user and all-user chunks.
	small := buildPaperTable(t, 2).EncodedSize()
	large := buildPaperTable(t, 1024).EncodedSize()
	if small <= 0 || large <= 0 {
		t.Fatalf("sizes: small=%d large=%d", small, large)
	}
}

func randomActivityTable(seed int64, nUsers, perUser int) *activity.Table {
	rng := rand.New(rand.NewSource(seed))
	tbl := activity.NewTable(activity.PaperSchema())
	actions := []string{"launch", "shop", "fight", "achievement"}
	countries := []string{"China", "Australia", "United States", "India"}
	roles := []string{"dwarf", "wizard", "bandit", "assassin"}
	for u := 0; u < nUsers; u++ {
		user := fmt.Sprintf("user-%04d", u)
		base := int64(rng.Intn(1000))
		for k := 0; k < perUser; k++ {
			_ = tbl.Append(user, base+int64(k*37), actions[rng.Intn(len(actions))],
				roles[rng.Intn(len(roles))], countries[rng.Intn(len(countries))], int64(rng.Intn(200)))
		}
	}
	if err := tbl.SortByPK(); err != nil {
		panic(err)
	}
	return tbl
}

func TestPropertyCompressedEqualsSource(t *testing.T) {
	f := func(seed int64) bool {
		src := randomActivityTable(seed, 20, 15)
		for _, chunkSize := range []int{7, 64, 4096} {
			st, err := Build(src, Options{ChunkSize: chunkSize})
			if err != nil {
				return false
			}
			buf, err := st.Serialize()
			if err != nil {
				return false
			}
			st2, err := Deserialize(buf)
			if err != nil {
				return false
			}
			users, actions, times, golds := decodeAll(st2)
			if len(users) != src.Len() {
				return false
			}
			for i := 0; i < src.Len(); i++ {
				if users[i] != src.User(i) || actions[i] != src.Action(i) ||
					times[i] != src.Time(i) || golds[i] != src.Ints(5)[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// globalRange returns the global [min, max] of an integer column.
func globalRange(st *Table, col int) (int64, int64) { return st.globalMin[col], st.globalMax[col] }
