package storage

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
)

// cacheFixture commits a one-shard table of a few dozen small chunks and
// opens it lazily on cache.
func cacheFixture(t *testing.T, seed int64, cache *ChunkCache) *Table {
	t.Helper()
	path := commitGenerated(t, gen.Config{Users: 400, Days: 12, MeanActions: 10, Seed: seed}, 1, 64)
	sh := readLazy(t, path, cache).Shard(0)
	if n := sh.NumChunks(); n < 32 {
		t.Fatalf("fixture has %d chunks, want >= 32", n)
	}
	return sh
}

func totalBytes(sh *Table) int64 {
	var n int64
	for i := range sh.metas {
		n += sh.metas[i].bytes
	}
	return n
}

// touch pins and releases chunk ci, reports whether it was a cache hit, and
// checks the budget invariant: with nothing pinned the cache is within budget.
func touch(t *testing.T, sh *Table, ci int) (hit bool) {
	t.Helper()
	cache := sh.cache
	before := cache.Stats().Hits
	_, release, err := sh.PinChunk(ci)
	if err != nil {
		t.Fatal(err)
	}
	release()
	st := cache.Stats()
	if st.BudgetBytes > 0 && st.ResidentBytes > st.BudgetBytes {
		t.Fatalf("nothing pinned, yet %d bytes resident over a budget of %d", st.ResidentBytes, st.BudgetBytes)
	}
	return st.Hits > before
}

func resident(sh *Table, ci int) bool {
	c := sh.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	return sh.chunks[ci] != nil
}

// TestChunkCacheCyclicScanKeepsStableSet is the admission policy's reason to
// exist: chunks walked in a cycle through a cache a quarter their size. Plain
// LRU evicts every chunk just before its turn comes round again and never
// hits; frequency-gated admission keeps a fixed quarter resident. Two
// interleaved walkers — the load test's two clients — must not break it:
// their chunks differ by one touch at any instant, which is noise, not heat.
func TestChunkCacheCyclicScanKeepsStableSet(t *testing.T) {
	for _, walkers := range []int{1, 2} {
		cache := NewChunkCache(0)
		sh := cacheFixture(t, 21, cache)
		n := sh.NumChunks()
		cache.SetBudget(totalBytes(sh) / 4)

		rng := rand.New(rand.NewSource(5))
		pos := make([]int, walkers)
		for w := range pos {
			pos[w] = w * n / walkers
		}
		var ratio float64
		for cycle := 1; cycle <= 6; cycle++ {
			hits := 0
			for k := 0; k < walkers*n; k++ {
				w := rng.Intn(walkers)
				if touch(t, sh, pos[w]%n) {
					hits++
				}
				pos[w]++
			}
			ratio = float64(hits) / float64(walkers*n)
			if cycle >= 3 && ratio < 0.15 {
				t.Errorf("%d walker(s), cycle %d: hit ratio %.3f, want >= 0.15", walkers, cycle, ratio)
			}
		}
		t.Logf("%d walker(s): hit ratio %.3f in cycle 6 (budget share 0.25)", walkers, ratio)
	}
}

// hotSet returns chunks from candidates, in order, while they fit in budget.
func hotSet(sh *Table, candidates []int, budget int64) []int {
	var set []int
	for _, ci := range candidates {
		if b := sh.metas[ci].bytes; b <= budget {
			set = append(set, ci)
			budget -= b
		}
	}
	return set
}

func allResident(sh *Table, set []int) bool {
	for _, ci := range set {
		if !resident(sh, ci) {
			return false
		}
	}
	return true
}

// TestChunkCacheHotSetDisplacesOld is the aging half of the policy: a resident
// set that stops being touched must not hold the cache against chunks that
// are. After a long spell on hot set A the access pattern moves to a disjoint
// set B that fits the budget; A's history decays by one bit per aging period
// (two rounds of B), so B is fully resident within three periods however the
// move falls relative to a period boundary.
func TestChunkCacheHotSetDisplacesOld(t *testing.T) {
	for _, spell := range []int{10, 11, 50} { // rounds on A: both boundary alignments, and a long history
		cache := NewChunkCache(0)
		sh := cacheFixture(t, 21, cache)
		n := sh.NumChunks()
		budget := totalBytes(sh) / 4
		cache.SetBudget(budget)

		var front, back []int
		for ci := 0; ci < n; ci++ {
			if ci < n/2 {
				front = append(front, ci)
			} else {
				back = append(back, ci)
			}
		}
		a, b := hotSet(sh, front, budget), hotSet(sh, back, budget)
		for r := 0; r < spell; r++ {
			for _, ci := range a {
				touch(t, sh, ci)
			}
		}
		if !allResident(sh, a) {
			t.Fatalf("hot set A (%d chunks) is not resident after %d rounds", len(a), spell)
		}
		rounds := 0
		for !allResident(sh, b) {
			if rounds++; rounds > 2*3 {
				t.Fatalf("after %d rounds on A, hot set B is not resident within three aging periods (%d rounds)", spell, rounds-1)
			}
			for _, ci := range b {
				touch(t, sh, ci)
			}
		}
		t.Logf("after %d rounds on A, B (%d chunks) was fully resident after %d rounds", spell, len(b), rounds)
	}
}

// TestChunkCacheTablesShareFairly runs two tables on one cache. A scan of the
// larger table — bigger than the whole budget — must not flush the smaller
// table's hot chunks while they are still in use (under LRU it would), and
// once the smaller table goes idle its chunks must not keep the scan out.
func TestChunkCacheTablesShareFairly(t *testing.T) {
	cache := NewChunkCache(0)
	x, y := cacheFixture(t, 21, cache), cacheFixture(t, 22, cache)
	budget := totalBytes(y) / 4
	cache.SetBudget(budget)

	var all []int
	for ci := 0; ci < x.NumChunks(); ci++ {
		all = append(all, ci)
	}
	hot := hotSet(x, all, budget/2) // x's hot chunks: half the budget
	for r := 0; r < 4; r++ {
		for _, ci := range hot {
			touch(t, x, ci)
		}
	}

	// y is scanned in full, cycle after cycle, while x's hot chunks stay in
	// use: one round on them per y cycle.
	ny := y.NumChunks()
	var xHits, yHits int
	for cycle := 1; cycle <= 6; cycle++ {
		xHits, yHits = 0, 0
		for ci := 0; ci < ny; ci++ {
			if touch(t, y, ci) {
				yHits++
			}
			if k := ci * len(hot) / ny; k != (ci+1)*len(hot)/ny && touch(t, x, hot[k]) {
				xHits++
			}
		}
	}
	if xHits < len(hot)*3/4 {
		t.Errorf("x's hot set got %d hits of %d in y's sixth scan cycle: the scan flushed it", xHits, len(hot))
	}
	if yHits == 0 {
		t.Errorf("y's scan got no hits in its sixth cycle: x's hot set took the whole budget")
	}

	// x goes idle; y keeps scanning and takes over the budget.
	for cycle := 1; cycle <= 6; cycle++ {
		for ci := 0; ci < ny; ci++ {
			touch(t, y, ci)
		}
	}
	left := 0
	for _, ci := range hot {
		if resident(x, ci) {
			left++
		}
	}
	if left > 0 {
		t.Errorf("%d of x's %d idle chunks still hold cache space after six scan cycles of y", left, len(hot))
	}
}

// TestChunkCacheDoubleReleaseIsHarmless pins the release contract: a second
// call of a PinChunk release must not drive the pin count negative — which
// would leave the next pinner's chunk on the evictable list, free to be
// evicted under its scan.
func TestChunkCacheDoubleReleaseIsHarmless(t *testing.T) {
	cache := NewChunkCache(0)
	sh := cacheFixture(t, 21, cache)
	_, release, err := sh.PinChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	release()
	release()

	cache.mu.Lock()
	e := cache.entries[sh.metas[0].hash]
	pins, inLRU := e.pins, e.inLRU
	cache.mu.Unlock()
	if pins != 0 || !inLRU {
		t.Fatalf("after a double release: pins=%d inLRU=%v, want 0 and true", pins, inLRU)
	}
	size := cache.Stats().ResidentBytes
	if size != sh.metas[0].bytes {
		t.Fatalf("resident bytes %d, want the one segment's %d", size, sh.metas[0].bytes)
	}

	// A new pin must take the entry off the evictable list: shrinking the
	// budget to nothing while it is held may not evict it.
	ch, release2, err := sh.PinChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	cache.SetBudget(1)
	if !resident(sh, 0) || cache.Stats().ResidentBytes != size {
		t.Fatal("a pinned chunk was evicted after an earlier double release")
	}
	if ch.NumRows() != sh.ChunkRows(0) {
		t.Fatalf("pinned chunk reads %d rows, want %d", ch.NumRows(), sh.ChunkRows(0))
	}
	release2()
	release2()
	if st := cache.Stats(); st.ResidentBytes != 0 || st.Entries != 0 {
		t.Fatalf("one-byte budget left the chunk resident after release: %+v", st)
	}
}

// TestChunkCacheConcurrentWalkers runs the cyclic scan from several
// goroutines at once under a quarter-size budget (run with -race in CI): pins
// overlap, newcomers wait unadmitted while others are decided, and when the
// last pin has dropped the accounting must be exact — nothing unadmitted,
// the budget held, and the walkers between them still hitting.
func TestChunkCacheConcurrentWalkers(t *testing.T) {
	cache := NewChunkCache(0)
	sh := cacheFixture(t, 21, cache)
	n := sh.NumChunks()
	budget := totalBytes(sh) / 4
	cache.SetBudget(budget)

	const walkers, cycles = 6, 8
	var wg sync.WaitGroup
	for w := 0; w < walkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < cycles*n; k++ {
				ci := (w*n/walkers + k) % n
				ch, release, err := sh.PinChunk(ci)
				if err != nil {
					t.Error(err)
					return
				}
				if ch.NumRows() != sh.ChunkRows(ci) {
					t.Errorf("chunk %d pinned with %d rows, want %d", ci, ch.NumRows(), sh.ChunkRows(ci))
				}
				release()
			}
		}(w)
	}
	wg.Wait()

	cache.mu.Lock()
	unadmitted := cache.unadmitted
	cache.mu.Unlock()
	st := cache.Stats()
	if unadmitted != 0 || st.ResidentBytes > budget {
		t.Fatalf("at rest: %d bytes unadmitted, %d resident over a budget of %d", unadmitted, st.ResidentBytes, budget)
	}
	if ratio := float64(st.Hits) / float64(st.Hits+st.Misses); ratio < 0.15 {
		t.Errorf("%d concurrent walkers: hit ratio %.3f, want >= 0.15", walkers, ratio)
	}
}
