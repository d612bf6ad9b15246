package storage

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/activity"
	"repro/internal/gen"
)

// searchBirths is the birth index's reference: each user block scanned row by
// row for its first row holding chunk-id cid (-1 for none), and the number of
// codes that scan compares.
func searchBirths(ch *Chunk, actionCol int, cid uint64) (births []int, compares int64) {
	for u := 0; u < ch.NumUsers(); u++ {
		_, first, n := ch.UserRun(u)
		birth := -1
		for r := first; r < first+n; r++ {
			compares++
			if ch.ChunkID(actionCol, r) == cid {
				birth = r
				break
			}
		}
		births = append(births, birth)
	}
	return births, compares
}

// birthIndexMismatch compares ix with the reference scan of ch.
func birthIndexMismatch(ch *Chunk, schema *activity.Schema, cid uint64, ix *BirthIndex) error {
	want, _ := searchBirths(ch, schema.ActionCol(), cid)
	for u, w := range want {
		row, code, ok := ix.Birth(u)
		if ok != (w >= 0) || ok && (row != w || code != ch.Ints(schema.TimeCol()).Raw(w)) {
			return fmt.Errorf("user run %d: Birth = (%d, %d, %v), want row %d", u, row, code, ok, w)
		}
	}
	return nil
}

func checkBirthIndex(t *testing.T, ch *Chunk, schema *activity.Schema, cid uint64, ix *BirthIndex) {
	t.Helper()
	if err := birthIndexMismatch(ch, schema, cid, ix); err != nil {
		t.Fatal(err)
	}
}

// TestBirthIndexMatchesSearch pins the index to a row-by-row birth search for
// the first-row action, a mid-block one and a rare one: the same birth rows,
// the rows' time codes, and on the building call exactly the compares the
// search makes. A second call returns the same index and searches nothing.
func TestBirthIndexMatchesSearch(t *testing.T) {
	tbl, err := Build(gen.Generate(gen.Config{Users: 80, Days: 12, MeanActions: 10, Seed: 3}), Options{ChunkSize: 90})
	if err != nil {
		t.Fatal(err)
	}
	schema := tbl.Schema()
	actionCol, timeCol := schema.ActionCol(), schema.TimeCol()
	for _, action := range []string{"launch", "shop", "achievement"} {
		gid, ok := tbl.LookupString(actionCol, action)
		if !ok {
			t.Fatalf("fixture has no %q", action)
		}
		for ci := 0; ci < tbl.NumChunks(); ci++ {
			ch := pinned(t, tbl, ci)
			cid, ok := ch.ChunkIDOf(actionCol, gid)
			if !ok {
				continue
			}
			ix, searched := ch.BirthIndex(actionCol, timeCol, cid)
			if _, want := searchBirths(ch, actionCol, cid); searched != want {
				t.Fatalf("%s chunk %d: build compared %d codes, the search compares %d", action, ci, searched, want)
			}
			checkBirthIndex(t, ch, schema, cid, ix)
			if again, searched := ch.BirthIndex(actionCol, timeCol, cid); again != ix || searched != 0 {
				t.Fatalf("%s chunk %d: second call searched %d codes (same index: %v)", action, ci, searched, again == ix)
			}
		}
	}
}

// TestBirthIndexWideTimes covers a chunk whose time codes are too wide to
// share a word with a row number: the index keeps the codes apart, at 16 bytes
// per user instead of 8.
func TestBirthIndexWideTimes(t *testing.T) {
	src := activity.NewTable(activity.PaperSchema())
	for i, row := range []struct {
		user   string
		time   int64
		action string
	}{
		{"a", math.MinInt64 / 2, "launch"},
		{"a", 0, "shop"},
		{"b", math.MaxInt64 / 2, "launch"},
		{"c", 5, "shop"},
		{"c", math.MaxInt64 / 2, "launch"},
	} {
		if err := src.Append(row.user, row.time, row.action, "dwarf", "Narnia", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.SortByPK(); err != nil {
		t.Fatal(err)
	}
	tbl, err := Build(src, Options{ChunkSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	schema := tbl.Schema()
	ch := pinned(t, tbl, 0)
	for _, action := range []string{"launch", "shop"} {
		gid, _ := tbl.LookupString(schema.ActionCol(), action)
		cid, _ := ch.ChunkIDOf(schema.ActionCol(), gid)
		ix, _ := ch.BirthIndex(schema.ActionCol(), schema.TimeCol(), cid)
		if ix.wide == nil || ix.Bytes() != 16*int64(ch.NumUsers()) {
			t.Fatalf("%s: a 63-bit time span was packed beside the row (%d bytes)", action, ix.Bytes())
		}
		checkBirthIndex(t, ch, schema, cid, ix)
	}
}

// TestChunkCacheChargesBirthIndex pins the index's accounting on a lazy
// table: the first build adds exactly the index's bytes to the resident set,
// a second request for the same action adds nothing, and another action is
// charged again.
func TestChunkCacheChargesBirthIndex(t *testing.T) {
	cache := NewChunkCache(0)
	sh := readLazy(t, commitWorkload(t, 1, 96), cache).Shard(0)
	schema := sh.Schema()
	actionCol, timeCol := schema.ActionCol(), schema.TimeCol()
	ch, release, err := sh.PinChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	for _, action := range []string{"launch", "shop"} {
		gid, _ := sh.LookupString(actionCol, action)
		cid, ok := ch.ChunkIDOf(actionCol, gid)
		if !ok {
			t.Fatalf("chunk 0 has no %q", action)
		}
		before := cache.Stats().ResidentBytes
		ix, _ := ch.BirthIndex(actionCol, timeCol, cid)
		if got := cache.Stats().ResidentBytes - before; got != ix.Bytes() || got != 8*int64(ch.NumUsers()) {
			t.Fatalf("%s: first build grew the resident set by %d bytes, want the index's %d (8 per user)", action, got, ix.Bytes())
		}
		before = cache.Stats().ResidentBytes
		ch.BirthIndex(actionCol, timeCol, cid)
		if got := cache.Stats().ResidentBytes - before; got != 0 {
			t.Fatalf("%s: second request grew the resident set by %d bytes, want 0", action, got)
		}
	}
}

// TestBirthIndexConcurrentPinners builds birth indexes from several
// goroutines over a lazy table under a one-byte budget, where every pin is a
// transient load into an arena another pinner has just released: each index
// must still match the row-by-row search, and a building call must count
// exactly its compares.
func TestBirthIndexConcurrentPinners(t *testing.T) {
	sh := readLazy(t, commitWorkload(t, 1, 96), NewChunkCache(1)).Shard(0)
	schema := sh.Schema()
	actionCol, timeCol := schema.ActionCol(), schema.TimeCol()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 3*sh.NumChunks(); it++ {
				ci := (g + it) % sh.NumChunks()
				ch, release, err := sh.PinChunk(ci)
				if err != nil {
					t.Error(err)
					return
				}
				for _, action := range []string{"launch", "shop", "achievement"} {
					gid, _ := sh.LookupString(actionCol, action)
					cid, ok := ch.ChunkIDOf(actionCol, gid)
					if !ok {
						continue
					}
					ix, searched := ch.BirthIndex(actionCol, timeCol, cid)
					if _, want := searchBirths(ch, actionCol, cid); searched != 0 && searched != want {
						t.Errorf("%s chunk %d: build compared %d codes, the search compares %d", action, ci, searched, want)
					}
					if err := birthIndexMismatch(ch, schema, cid, ix); err != nil {
						t.Errorf("%s chunk %d: %v", action, ci, err)
					}
				}
				release()
			}
		}()
	}
	wg.Wait()
}

// BenchmarkBirthIndexBuild is one build of a birth index over coldLoadFixture's
// chunk 0 (32K rows, ~19 per user): what every transient load of a chunk
// pays per birth action it is scanned for. launch is nearly every user's
// first row; shop is found further in, or not at all.
func BenchmarkBirthIndexBuild(b *testing.B) {
	sh := coldLoadFixture(b)
	ch, release, err := sh.PinChunk(0)
	if err != nil {
		b.Fatal(err)
	}
	defer release()
	schema := sh.Schema()
	actionCol, timeCol := schema.ActionCol(), schema.TimeCol()
	for _, action := range []string{"launch", "shop"} {
		gid, _ := sh.LookupString(actionCol, action)
		cid, ok := ch.ChunkIDOf(actionCol, gid)
		if !ok {
			b.Fatalf("chunk 0 has no %q", action)
		}
		ix := new(BirthIndex)
		b.Run(action, func(b *testing.B) {
			for b.Loop() {
				ch.buildBirthIndex(ix, actionCol, timeCol, cid)
			}
		})
	}
}
