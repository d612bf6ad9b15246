package storage

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/activity"
	"repro/internal/gen"
	"repro/internal/obs"
)

// commitWorkload builds a sharded workload table and commits it to a fresh
// temp dir, returning the manifest path.
func commitWorkload(t *testing.T, shards, chunkSize int) string {
	t.Helper()
	return commitGenerated(t, gen.Config{Users: 60, Days: 12, MeanActions: 10, Seed: 9}, shards, chunkSize)
}

// commitGenerated builds a sharded table from a generator config and commits
// it to a fresh temp dir, returning the manifest path.
func commitGenerated(tb testing.TB, cfg gen.Config, shards, chunkSize int) string {
	tb.Helper()
	s, err := BuildSharded(gen.Generate(cfg), shards, Options{ChunkSize: chunkSize})
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "w.cohana")
	if _, err := CommitSharded(path, s); err != nil {
		tb.Fatal(err)
	}
	return path
}

func readLazy(t testing.TB, path string, cache *ChunkCache) *Sharded {
	t.Helper()
	s, err := ReadShardedWith(path, ReadOptions{Lazy: true, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLazyOpenZeroSegmentReads pins the O(manifest) cold-start contract: a
// lazy open plus everything the planner needs — chunk counts, row/user
// counts, user ranges, prune stats — performs zero segment reads.
func TestLazyOpenZeroSegmentReads(t *testing.T) {
	path := commitWorkload(t, 2, 128)
	before := obs.SegmentReadsTotal.Value()
	s := readLazy(t, path, NewChunkCache(0))
	for i := 0; i < s.NumShards(); i++ {
		sh := s.Shard(i)
		if !sh.Lazy() {
			t.Fatalf("shard %d opened eager", i)
		}
		for ci := 0; ci < sh.NumChunks(); ci++ {
			_ = sh.ChunkRows(ci)
			_ = sh.ChunkUsers(ci)
			sh.ChunkUserRange(ci)
			for c := 0; c < sh.Schema().NumCols(); c++ {
				if c == sh.Schema().UserCol() {
					continue
				}
				if sh.Schema().IsStringCol(c) {
					sh.ChunkMayHaveGID(ci, c, 0)
				} else {
					sh.ChunkIntRange(ci, c)
				}
			}
		}
	}
	if got := obs.SegmentReadsTotal.Value() - before; got != 0 {
		t.Fatalf("lazy open + manifest-level stats performed %d segment reads, want 0", got)
	}
}

// TestLazyEagerEquivalence is the lazy ≡ eager property: across shard counts
// and cache budgets (a tiny budget that evicts after every release, and an
// unbounded one), a lazily opened table materializes to exactly the rows the
// eager open produces, answers FindUser identically, and never prunes a
// value the eager chunk dictionaries contain.
func TestLazyEagerEquivalence(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for _, budget := range []int64{1, 0} { // 1 byte ≈ "one pinned chunk at a time"; 0 = unbounded
			t.Run(fmt.Sprintf("shards=%d/budget=%d", shards, budget), func(t *testing.T) {
				path := commitWorkload(t, shards, 96)
				eager, err := ReadSharded(path)
				if err != nil {
					t.Fatal(err)
				}
				lazy := readLazy(t, path, NewChunkCache(budget))

				want := mustRows(t, eager)
				got := mustRows(t, lazy)
				requireSameRows(t, "lazy materialization", got, want)

				for i := 0; i < shards; i++ {
					esh, lsh := eager.Shard(i), lazy.Shard(i)
					if esh.NumChunks() != lsh.NumChunks() || esh.NumRows() != lsh.NumRows() || esh.NumUsers() != lsh.NumUsers() {
						t.Fatalf("shard %d shape: eager %d/%d/%d, lazy %d/%d/%d",
							i, esh.NumChunks(), esh.NumRows(), esh.NumUsers(),
							lsh.NumChunks(), lsh.NumRows(), lsh.NumUsers())
					}
					checkShardEquivalence(t, esh, lsh)
				}

				if _, _, ok, err := lazy.Shard(0).FindUser("no-such-user"); ok || err != nil {
					t.Fatalf("FindUser(missing) = ok=%v err=%v", ok, err)
				}
			})
		}
	}
}

// checkShardEquivalence compares manifest-level pruning answers and FindUser
// between an eager and a lazy open of the same shard.
func checkShardEquivalence(t *testing.T, esh, lsh *Table) {
	t.Helper()
	schema := esh.Schema()
	for ci := 0; ci < esh.NumChunks(); ci++ {
		if esh.ChunkRows(ci) != lsh.ChunkRows(ci) || esh.ChunkUsers(ci) != lsh.ChunkUsers(ci) {
			t.Fatalf("chunk %d meta: eager %d rows/%d users, lazy %d/%d",
				ci, esh.ChunkRows(ci), esh.ChunkUsers(ci), lsh.ChunkRows(ci), lsh.ChunkUsers(ci))
		}
		ef, el := esh.ChunkUserRange(ci)
		lf, ll := lsh.ChunkUserRange(ci)
		if ef != lf || el != ll {
			t.Fatalf("chunk %d user range: eager [%q,%q], lazy [%q,%q]", ci, ef, el, lf, ll)
		}
		for c := 0; c < schema.NumCols(); c++ {
			if c == schema.UserCol() {
				continue
			}
			if schema.IsStringCol(c) {
				// Lazy answers may only be conservative (never prune a
				// present value); with exact stats they must agree.
				for gid := uint64(0); gid < uint64(esh.Dict(c).Len()); gid++ {
					eHas, lHas := esh.ChunkMayHaveGID(ci, c, gid), lsh.ChunkMayHaveGID(ci, c, gid)
					if eHas && !lHas {
						t.Fatalf("chunk %d col %d gid %d: lazy prunes a present value", ci, c, gid)
					}
					if lsh.lazy.metas[ci].strVals[c] != nil && eHas != lHas {
						t.Fatalf("chunk %d col %d gid %d: exact stats disagree (eager %v, lazy %v)", ci, c, gid, eHas, lHas)
					}
				}
			} else {
				emn, emx := esh.ChunkIntRange(ci, c)
				lmn, lmx := lsh.ChunkIntRange(ci, c)
				if emn != lmn || emx != lmx {
					t.Fatalf("chunk %d col %d range: eager [%d,%d], lazy [%d,%d]", ci, c, emn, emx, lmn, lmx)
				}
			}
		}
	}
	// Every user resolves to the same (gid, chunk, run) through both opens.
	userCol := schema.UserCol()
	d := esh.Dict(userCol)
	for gid := uint64(0); gid < uint64(d.Len()); gid++ {
		user := d.Value(gid)
		egid, eloc, eok, err := esh.FindUser(user)
		if err != nil || !eok {
			t.Fatalf("eager FindUser(%q) = ok=%v err=%v", user, eok, err)
		}
		lgid, lloc, lok, err := lsh.FindUser(user)
		if err != nil || !lok {
			t.Fatalf("lazy FindUser(%q) = ok=%v err=%v", user, lok, err)
		}
		if egid != lgid || eloc != lloc {
			t.Fatalf("FindUser(%q): eager (%d, %+v), lazy (%d, %+v)", user, egid, eloc, lgid, lloc)
		}
	}
}

// TestLazyDecodesOnlyTouchedChunks pins the scan-proportional cost contract:
// pinning k of n chunks decodes exactly k segments — pruned chunks stay
// cold — and re-pinning them is pure cache hits.
func TestLazyDecodesOnlyTouchedChunks(t *testing.T) {
	path := commitWorkload(t, 1, 64)
	cache := NewChunkCache(0)
	before := obs.SegmentReadsTotal.Value()
	sh := readLazy(t, path, cache).Shard(0)
	n := sh.NumChunks()
	if n < 4 {
		t.Fatalf("fixture too small: %d chunks", n)
	}
	touched := []int{0, n / 2, n - 1}
	for _, ci := range touched {
		_, release, err := sh.PinChunk(ci)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	if got := obs.SegmentReadsTotal.Value() - before; got != uint64(len(touched)) {
		t.Fatalf("pinning %d chunks performed %d segment reads", len(touched), got)
	}
	st := cache.Stats()
	if st.Misses != uint64(len(touched)) || st.Entries != len(touched) {
		t.Fatalf("cache after %d cold pins: %+v", len(touched), st)
	}
	if st.ResidentBytes <= 0 {
		t.Fatalf("resident bytes not accounted: %+v", st)
	}
	// Warm re-pins: no further reads, hits only.
	for _, ci := range touched {
		_, release, err := sh.PinChunk(ci)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	if got := obs.SegmentReadsTotal.Value() - before; got != uint64(len(touched)) {
		t.Fatalf("warm re-pins performed extra segment reads: total %d", got)
	}
	if st := cache.Stats(); st.Hits < uint64(len(touched)) {
		t.Fatalf("warm re-pins not counted as hits: %+v", st)
	}
}

// TestLazyBudgetEvicts pins the memory budget: with a budget of one byte the
// cache evicts each chunk as soon as its pin drops, so resident bytes stay
// bounded no matter how many chunks a scan walks.
func TestLazyBudgetEvicts(t *testing.T) {
	path := commitWorkload(t, 1, 64)
	cache := NewChunkCache(1)
	sh := readLazy(t, path, cache).Shard(0)
	if _, err := sh.Materialize(); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.ResidentBytes != 0 || st.Entries != 0 {
		t.Fatalf("tiny budget left chunks resident: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("full scan under tiny budget recorded no evictions: %+v", st)
	}
}

// TestLazyTransientUserStringsSurviveReuse pins what may not outlive a
// transient load's release. Under a one-byte budget every load is transient:
// chunk A's users are materialized, then chunks B and C load into the arena
// A's release parked, over A's bytes. Rows taken from A must still equal the
// eager table's — a user string aliasing the arena's buffer would now read
// B's or C's bytes.
func TestLazyTransientUserStringsSurviveReuse(t *testing.T) {
	path := commitWorkload(t, 1, 64)
	eager, err := ReadSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	esh := eager.Shard(0)
	cache := NewChunkCache(1)
	lsh := readLazy(t, path, cache).Shard(0)
	n := lsh.NumChunks()
	if n < 3 {
		t.Fatalf("fixture has %d chunks, want >= 3", n)
	}
	// A is the largest segment, so B's and C's loads fit in its buffer.
	a := 0
	for ci := range lsh.lazy.metas {
		if lsh.lazy.metas[ci].bytes > lsh.lazy.metas[a].bytes {
			a = ci
		}
	}
	got, want := activity.NewTable(lsh.Schema()), activity.NewTable(esh.Schema())
	for run := 0; run < lsh.ChunkUsers(a); run++ {
		loc := UserLoc{Chunk: a, Run: run}
		if err := lsh.AppendUserRows(got, loc); err != nil {
			t.Fatal(err)
		}
		if err := esh.AppendUserRows(want, loc); err != nil {
			t.Fatal(err)
		}
	}
	for _, ci := range []int{(a + 1) % n, (a + 2) % n} {
		if _, err := lsh.MaterializeChunk(ci); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Entries != 0 || st.Misses == 0 {
		t.Fatalf("one-byte budget: want only transient loads, got %+v", st)
	}
	requireSameRows(t, "chunk A's users after B and C reused its arena", got, want)
}

// countingHandler counts slog records at or above Error, for the log-once
// assertion.
type countingHandler struct {
	slog.Handler
	n *atomic.Int64
}

func (h countingHandler) Handle(ctx context.Context, r slog.Record) error {
	if r.Level >= slog.LevelError {
		h.n.Add(1)
	}
	return nil
}

// TestLazyCorruptSegmentStructuredError is the crash-injection satellite: a
// segment swept away (or truncated) between manifest load and first touch
// surfaces as a structured *CorruptSegmentError on the query path — never a
// panic — on every touch, and is logged exactly once per chunk.
func TestLazyCorruptSegmentStructuredError(t *testing.T) {
	path := commitWorkload(t, 1, 64)

	var errCount atomic.Int64
	prev := slog.Default()
	slog.SetDefault(slog.New(countingHandler{Handler: prev.Handler(), n: &errCount}))
	defer slog.SetDefault(prev)

	for _, damage := range []struct {
		name  string
		wreck func(t *testing.T, seg string)
	}{
		{"removed", func(t *testing.T, seg string) {
			if err := os.Remove(seg); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated", func(t *testing.T, seg string) {
			if err := os.Truncate(seg, 5); err != nil {
				t.Fatal(err)
			}
		}},
		// Same length, one bit different: only the content hash can tell.
		{"bit-flipped", func(t *testing.T, seg string) { flipBit(t, seg, -1) }},
	} {
		t.Run(damage.name, func(t *testing.T) {
			dir := t.TempDir()
			p := filepath.Join(dir, "w.cohana")
			copyCommit(t, path, p)
			sh := readLazy(t, p, NewChunkCache(0)).Shard(0)
			// Sweep chunk 1's segment after the manifest loaded but before
			// any scan touched it.
			damage.wreck(t, filepath.Join(dir, sh.lazy.metas[1].file))

			errCount.Store(0)
			for attempt := 0; attempt < 3; attempt++ {
				_, _, err := sh.PinChunk(1)
				var seg *CorruptSegmentError
				if !errors.As(err, &seg) {
					t.Fatalf("attempt %d: err = %v, want *CorruptSegmentError", attempt, err)
				}
				if damage.name == "bit-flipped" {
					// The mismatch names the hash found and the hash expected.
					want := sh.lazy.metas[1].hash
					if msg := seg.Error(); !strings.Contains(msg, "does not match manifest hash "+want) ||
						!strings.Contains(msg, "content hash ") || strings.Contains(msg, "content hash "+want) {
						t.Fatalf("attempt %d: hash mismatch error %q does not name both hashes", attempt, msg)
					}
				}
			}
			if n := errCount.Load(); n != 1 {
				t.Fatalf("corrupt segment logged %d times, want once", n)
			}
			// The rest of the table still serves.
			if _, err := sh.MaterializeChunk(0); err != nil {
				t.Fatalf("undamaged chunk: %v", err)
			}
			// Materialize crosses the damaged chunk: structured error, no panic.
			if _, err := sh.Materialize(); err == nil {
				t.Fatal("Materialize over a damaged segment succeeded")
			}
		})
	}
}

// flipBit inverts the lowest bit of the byte at off in the file at path (a
// negative off counts from the end), leaving its length alone.
func flipBit(t *testing.T, path string, off int) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += len(buf)
	}
	buf[off] ^= 1
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLazyVerifiedSegmentReloadStillChecked covers what verify-once leaves in
// place. A segment that passed its content hash is damaged after it was
// evicted; the reload skips the re-hash, so it must be the decoder's
// structural checks and the manifest cross-checks that turn the damage into
// a *CorruptSegmentError — never a panic — while other chunks keep serving.
func TestLazyVerifiedSegmentReloadStillChecked(t *testing.T) {
	path := commitWorkload(t, 1, 64)
	for _, damage := range []struct {
		name  string
		wreck func(t *testing.T, seg string)
	}{
		{"truncated", func(t *testing.T, seg string) {
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
		}},
		{"bad-magic", func(t *testing.T, seg string) { flipBit(t, seg, 0) }},
		// The byte after the magic is the row count: the runs no longer sum
		// to it, or it no longer matches the manifest.
		{"bad-row-count", func(t *testing.T, seg string) { flipBit(t, seg, len(chunkMagic)) }},
	} {
		t.Run(damage.name, func(t *testing.T) {
			dir := t.TempDir()
			p := filepath.Join(dir, "w.cohana")
			copyCommit(t, path, p)
			cache := NewChunkCache(1) // every release evicts
			sh := readLazy(t, p, cache).Shard(0)

			// First touch verifies chunk 1; the release evicts it.
			if _, err := sh.MaterializeChunk(1); err != nil {
				t.Fatal(err)
			}
			cache.mu.Lock()
			verified := sh.lazy.metas[1].state.verified
			cache.mu.Unlock()
			if !verified || resident(sh, 1) {
				t.Fatalf("after first touch: verified=%v resident=%v, want true and false", verified, resident(sh, 1))
			}

			damage.wreck(t, filepath.Join(dir, sh.lazy.metas[1].file))
			for attempt := 0; attempt < 2; attempt++ {
				_, _, err := sh.PinChunk(1)
				var seg *CorruptSegmentError
				if !errors.As(err, &seg) {
					t.Fatalf("attempt %d: reload of a damaged verified segment: err = %v, want *CorruptSegmentError", attempt, err)
				}
			}
			if _, err := sh.MaterializeChunk(0); err != nil {
				t.Fatalf("undamaged chunk: %v", err)
			}
			if _, err := sh.MaterializeChunk(2); err != nil {
				t.Fatalf("undamaged chunk: %v", err)
			}
			if st := cache.Stats(); st.ResidentBytes != 0 {
				t.Fatalf("failed reloads left %d bytes resident", st.ResidentBytes)
			}
		})
	}
}

// copyCommit clones a committed table (manifest + segments) into dst.
func copyCommit(t *testing.T, src, dst string) {
	t.Helper()
	srcDir, dstDir := filepath.Dir(src), filepath.Dir(dst)
	ents, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		buf, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dstDir, e.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// oneRowDelta builds a sorted single-row delta for user at timestamp ts,
// filling the remaining columns from the table's dictionaries.
func oneRowDelta(t *testing.T, sh *Table, user string, ts int64) *activity.Table {
	t.Helper()
	schema := sh.Schema()
	delta := activity.NewTable(schema)
	strs := make([]string, schema.NumCols())
	ints := make([]int64, schema.NumCols())
	for c := 0; c < schema.NumCols(); c++ {
		switch {
		case c == schema.UserCol():
			strs[c] = user
		case c == schema.TimeCol():
			ints[c] = ts
		case schema.IsStringCol(c):
			strs[c] = sh.Dict(c).Value(0)
		}
	}
	delta.AppendRow(strs, ints)
	if err := delta.SortByPK(); err != nil {
		t.Fatal(err)
	}
	return delta
}

// TestLazyConcurrentTinyBudget hammers concurrent readers against a cache
// whose budget cannot hold even one chunk after release, so loads, rebinds
// and evictions interleave constantly. Run under -race this is the
// eviction-never-races-a-scan proof; in any mode every reader must see
// exactly the eager rows. Workers also build the launch and shop birth
// indexes of the same pinned chunks at once, and the indexes' charged bytes
// leave with their entries: once every pin drops the budget holds.
func TestLazyConcurrentTinyBudget(t *testing.T) {
	path := commitWorkload(t, 2, 96)
	eager, err := ReadSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewChunkCache(1)
	lazy := readLazy(t, path, cache)
	want := make([][]int, lazy.NumShards()) // rows per chunk, as ground truth shape
	for i := range want {
		esh := eager.Shard(i)
		want[i] = make([]int, esh.NumChunks())
		for ci := range want[i] {
			want[i][ci] = esh.ChunkRows(ci)
		}
	}

	const workers, iters = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				si := (w + it) % lazy.NumShards()
				sh := lazy.Shard(si)
				ci := (w * 7) % sh.NumChunks()
				switch it % 4 {
				case 0:
					rows, err := sh.MaterializeChunk(ci)
					if err != nil {
						errs <- err
						return
					}
					if rows.Len() != want[si][ci] {
						errs <- fmt.Errorf("shard %d chunk %d: %d rows, want %d", si, ci, rows.Len(), want[si][ci])
						return
					}
				case 1:
					ch, release, err := sh.PinChunk(ci)
					if err != nil {
						errs <- err
						return
					}
					if ch.NumRows() != want[si][ci] {
						errs <- fmt.Errorf("shard %d chunk %d pinned: %d rows, want %d", si, ci, ch.NumRows(), want[si][ci])
						release()
						return
					}
					release()
				case 2:
					ch, release, err := sh.PinChunk(ci)
					if err != nil {
						errs <- err
						return
					}
					schema := sh.Schema()
					gid, _ := sh.LookupString(schema.ActionCol(), []string{"launch", "shop"}[w%2])
					if cid, ok := ch.ChunkIDOf(schema.ActionCol(), gid); ok {
						ix, _ := ch.BirthIndex(schema.ActionCol(), schema.TimeCol(), cid)
						if err := birthIndexMismatch(ch, schema, cid, ix); err != nil {
							errs <- fmt.Errorf("shard %d chunk %d: %w", si, ci, err)
						}
					}
					release()
				default:
					user, _ := sh.ChunkUserRange(ci)
					if _, _, ok, err := sh.FindUser(user); err != nil || !ok {
						errs <- fmt.Errorf("shard %d FindUser(%q) = ok=%v err=%v", si, user, ok, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := cache.Stats(); st.Evictions == 0 || st.ResidentBytes > st.BudgetBytes {
		t.Errorf("tiny-budget hammer: want evictions and nothing resident past the budget: %+v", st)
	}
}

// TestLazyMergeDeltaKeepsUntouchedChunksCold pins compaction cost on lazy
// tables: MergeDelta decodes only the chunks owning delta users; every other
// chunk keeps its cold handle — across the merge and across the following
// commit (the carried segments keep their content hash, so the manifest
// rewrite touches only rebuilt chunks' files).
func TestLazyMergeDeltaKeepsUntouchedChunksCold(t *testing.T) {
	path := commitWorkload(t, 1, 64)
	sh := readLazy(t, path, NewChunkCache(0)).Shard(0)
	n := sh.NumChunks()

	// A one-row delta for a user owned by chunk 0, at a timestamp past every
	// sealed tuple so the primary key cannot collide.
	user, _ := sh.ChunkUserRange(0)
	delta := oneRowDelta(t, sh, user, 1<<40)

	before := obs.SegmentReadsTotal.Value()
	merged, rebuilt, reused, err := MergeDelta(sh, delta, Options{ChunkSize: sh.ChunkSize()})
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt != 1 || reused != n-1 {
		t.Fatalf("merge rebuilt %d / reused %d chunks, want 1 / %d", rebuilt, reused, n-1)
	}
	reads := obs.SegmentReadsTotal.Value() - before
	if reads != 1 {
		t.Fatalf("merging one chunk's delta performed %d segment reads, want 1", reads)
	}
	if !merged.Lazy() {
		t.Fatal("merged table is not lazy")
	}
	if got := merged.NumRows(); got != sh.NumRows()+1 {
		t.Fatalf("merged rows = %d, want %d", got, sh.NumRows()+1)
	}
	// The untouched chunks answer metadata without loading.
	for ci := 1; ci < merged.NumChunks(); ci++ {
		_ = merged.ChunkRows(ci)
	}
	if got := obs.SegmentReadsTotal.Value() - before; got != reads {
		t.Fatalf("metadata on merged table loaded segments: %d reads total", got)
	}
}
