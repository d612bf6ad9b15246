package cohort

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/storage"
)

// lazyTable commits genStore's rows, as one shard, to a fresh directory and
// opens it lazily on cache. It returns the table and the directory, which
// holds the manifest and one segment file per chunk.
func lazyTable(t *testing.T, cache *storage.ChunkCache) (*storage.Table, string) {
	t.Helper()
	rows := gen.Generate(gen.Config{Users: 120, Days: 20, MeanActions: 20, Seed: 7})
	s, err := storage.BuildSharded(rows, 1, storage.Options{ChunkSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "w.cohana")
	if _, err := storage.CommitSharded(path, s); err != nil {
		t.Fatal(err)
	}
	lazy, err := storage.ReadShardedWith(path, storage.ReadOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	tbl := lazy.Shard(0)
	if tbl.NumChunks() < 4 {
		t.Fatalf("fixture has %d chunks, want >= 4", tbl.NumChunks())
	}
	return tbl, dir
}

// boardQueries are two different queries over the same table, so a rider
// scans with a binding and an accumulator other than its lead's.
func boardQueries() []*Query {
	return []*Query{genQuery(), kernelTemplates()[0].q}
}

// compileAll binds every query to tbl.
func compileAll(t *testing.T, qs []*Query, tbl *storage.Table) []*Compiled {
	t.Helper()
	cs := make([]*Compiled, len(qs))
	for i, q := range qs {
		c, err := Compile(q, tbl)
		if err != nil {
			t.Fatal(err)
		}
		cs[i] = c
	}
	return cs
}

// runOnBoard runs each schedule's Run on p, a pool whose workers have not
// started, and starts them only once every schedule is registered, in
// order: the overlap is then fixed, not a race. It returns the accumulators
// and errors in schedule order, leaving p open.
func runOnBoard(t *testing.T, p *Pool, scheds []*Schedule) ([]*Accumulator, []error) {
	t.Helper()
	accs := make([]*Accumulator, len(scheds))
	errs := make([]error, len(scheds))
	var wg sync.WaitGroup
	for i, s := range scheds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			accs[i], errs[i] = s.Run()
		}()
		for deadline := time.Now().Add(10 * time.Second); ; {
			p.mu.Lock()
			n := len(p.board)
			p.mu.Unlock()
			if n == i+1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("schedule %d never registered", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	p.start()
	wg.Wait()
	return accs, errs
}

// newBoardSchedule puts c's table on a new one-shard schedule run on p.
func newBoardSchedule(t *testing.T, c *Compiled, opts RunOptions) *Schedule {
	t.Helper()
	s := NewSchedule(opts)
	if err := s.AddShard(c, nil, nil); err != nil {
		t.Fatal(err)
	}
	return s
}

// unpruned counts the chunks c scans.
func unpruned(c *Compiled) (n int) {
	for _, p := range c.PruneMap() {
		if !p {
			n++
		}
	}
	return n
}

// TestScheduleRidersShareTransientLoads pins the cooperative scan: at a
// 1-byte budget every pin is a transient load, and two schedules registered
// on one worker before it starts read each chunk's segment once, not once
// per query. The second schedule rides every chunk the first one leads, and
// each result is bit-identical to its solo run.
func TestScheduleRidersShareTransientLoads(t *testing.T) {
	cache := storage.NewChunkCache(1)
	tbl, _ := lazyTable(t, cache)
	qs := boardQueries()
	cs := compileAll(t, qs, tbl)
	solo := make([]*Result, len(cs))
	for i, c := range cs {
		solo[i] = mustRun(t, c, RunOptions{})
	}
	n := unpruned(cs[1])
	if unpruned(cs[0]) != n || n != tbl.NumChunks() {
		t.Fatalf("fixture: queries scan %d and %d of %d chunks, want all", unpruned(cs[0]), n, tbl.NumChunks())
	}

	pool := newPool(1)
	defer pool.Close()
	root := obs.NewSpan("query")
	scheds := []*Schedule{
		newBoardSchedule(t, cs[0], RunOptions{Parallelism: -1, Pool: pool}),
		newBoardSchedule(t, cs[1], RunOptions{Parallelism: -1, Pool: pool, Trace: root}),
	}
	misses, rides := cache.Stats().Misses, obs.ChunkRidesTotal.Value()
	accs, errs := runOnBoard(t, pool, scheds)
	for i, acc := range accs {
		if errs[i] != nil {
			t.Fatalf("schedule %d: %v", i, errs[i])
		}
		if got := acc.Result(cs[i].KeyColNames(), qs[i].Aggs); !reflect.DeepEqual(got, solo[i]) {
			t.Errorf("schedule %d: ridden result differs from its solo run: %s", i, solo[i].Diff(got))
		}
	}
	if got := cache.Stats().Misses - misses; got != uint64(n) {
		t.Errorf("two overlapping schedules read %d segments, want %d (one per chunk)", got, n)
	}
	if got := obs.ChunkRidesTotal.Value() - rides; got != uint64(n) {
		t.Errorf("cohana_chunk_rides_total rose by %d, want %d", got, n)
	}
	if got := root.Find("shard 0").Int("chunks_ridden"); got != int64(n) {
		t.Errorf("rider's shard span: chunks_ridden=%d, want %d", got, n)
	}
}

// TestResidentChunksNeverRide: a chunk the cache keeps takes no riders,
// since each query's own pin hits it. With an unbounded cache, and on a
// table built in memory (every chunk perm), two overlapping schedules ride 0
// chunks and still return their solo results.
func TestResidentChunksNeverRide(t *testing.T) {
	lazy, _ := lazyTable(t, storage.NewChunkCache(0))
	for name, tbl := range map[string]*storage.Table{"lazy": lazy, "built": genStore(t)} {
		qs := boardQueries()
		cs := compileAll(t, qs, tbl)
		pool := newPool(1)
		defer pool.Close()
		root := obs.NewSpan("query")
		scheds := []*Schedule{
			newBoardSchedule(t, cs[0], RunOptions{Parallelism: -1, Pool: pool}),
			newBoardSchedule(t, cs[1], RunOptions{Parallelism: -1, Pool: pool, Trace: root}),
		}
		rides := obs.ChunkRidesTotal.Value()
		accs, errs := runOnBoard(t, pool, scheds)
		for i, acc := range accs {
			if errs[i] != nil {
				t.Fatalf("%s schedule %d: %v", name, i, errs[i])
			}
			want := mustRun(t, cs[i], RunOptions{})
			if got := acc.Result(cs[i].KeyColNames(), qs[i].Aggs); !reflect.DeepEqual(got, want) {
				t.Errorf("%s schedule %d differs from its solo run: %s", name, i, want.Diff(got))
			}
		}
		if got := obs.ChunkRidesTotal.Value() - rides; got != 0 {
			t.Errorf("%s: %d rides on resident chunks, want 0", name, got)
		}
		if got := root.Find("shard 0").Int("chunks_ridden"); got != 0 {
			t.Errorf("%s: chunks_ridden=%d, want 0", name, got)
		}
	}
}

// cancelAfter is a context whose Err turns to Canceled after n calls: a
// rider that is cancelled part-way through its lead's scan, at a point that
// does not depend on timing.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelledRiderKeepsLead: a rider cancelled part-way through stops
// riding and is drained, and neither its cancellation nor its drain touches
// the lead, which returns its full solo result.
func TestCancelledRiderKeepsLead(t *testing.T) {
	tbl, _ := lazyTable(t, storage.NewChunkCache(1))
	qs := boardQueries()
	cs := compileAll(t, qs, tbl)
	want := mustRun(t, cs[0], RunOptions{})
	ctx := &cancelAfter{Context: context.Background()}
	ctx.n.Store(3)
	pool := newPool(1)
	defer pool.Close()
	root := obs.NewSpan("query")
	scheds := []*Schedule{
		newBoardSchedule(t, cs[0], RunOptions{Parallelism: -1, Pool: pool}),
		newBoardSchedule(t, cs[1], RunOptions{Parallelism: -1, Pool: pool, Ctx: ctx, Trace: root}),
	}
	accs, errs := runOnBoard(t, pool, scheds)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("errors: lead %v, rider %v", errs[0], errs[1])
	}
	if got := accs[0].Result(cs[0].KeyColNames(), qs[0].Aggs); !reflect.DeepEqual(got, want) {
		t.Errorf("lead differs from its solo run after its rider was cancelled: %s", want.Diff(got))
	}
	shard := root.Find("shard 0")
	ridden := shard.Int("chunks_ridden")
	if ridden < 1 || ridden >= int64(tbl.NumChunks()) {
		t.Errorf("cancelled rider rode %d of %d chunks, want some but not all", ridden, tbl.NumChunks())
	}
	// Cancelled before its lead ended, the rider never leads: the board
	// drains its unclaimed entries.
	if scanned := shard.Int("chunks_scanned"); scanned != ridden {
		t.Errorf("cancelled rider scanned %d chunks, want only the %d it rode", scanned, ridden)
	}
}

// TestFailedPinFailsRiders: a pin that fails fails its lead and every
// rider of the same chunk, each with its own entry's shard in the error,
// and the broken segment is read once, not once per query.
func TestFailedPinFailsRiders(t *testing.T) {
	cache := storage.NewChunkCache(1)
	good, _ := lazyTable(t, cache)
	broken, dir := lazyTable(t, cache)
	segs, err := filepath.Glob(filepath.Join(dir, "*.cohseg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files in %s: %v", dir, err)
	}
	for _, seg := range segs {
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}
	q := genQuery()
	cGood, cBroken := compileAll(t, []*Query{q}, good)[0], compileAll(t, []*Query{q}, broken)[0]

	pool := newPool(1)
	defer pool.Close()
	// The lead's shard 1 and the rider's shard 0 are the same broken table.
	lead := NewSchedule(RunOptions{Parallelism: -1, Pool: pool})
	for _, c := range []*Compiled{cGood, cBroken} {
		if err := lead.AddShard(c, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	rider := newBoardSchedule(t, cBroken, RunOptions{Parallelism: -1, Pool: pool})
	misses := cache.Stats().Misses
	_, errs := runOnBoard(t, pool, []*Schedule{lead, rider})
	for i, prefix := range []string{"shard 1: ", "shard 0: "} {
		if errs[i] == nil || !strings.HasPrefix(errs[i].Error(), prefix) {
			t.Errorf("schedule %d: error %v, want one starting %q", i, errs[i], prefix)
		}
	}
	if got, want := cache.Stats().Misses-misses, uint64(unpruned(cGood)+1); got != want {
		t.Errorf("%d segment reads, want %d: the good table's chunks and the broken chunk once", got, want)
	}
}

// reachable reports, through a weak pointer, whether p is still reachable.
func reachable[T any](p *T) func() bool {
	w := weak.Make(p)
	return func() bool { return w.Value() != nil }
}

// TestScheduleRetainsNothing: once Run returns, an idle pool worker holds
// no reference to the schedule, its table, its bindings or its per-worker
// accumulators, riders included, so a server's open pool never keeps a
// finished query's decoded table alive.
func TestScheduleRetainsNothing(t *testing.T) {
	pool := newPool(2)
	defer pool.Close()
	weaks := func() []func() bool {
		tbl, _ := lazyTable(t, storage.NewChunkCache(1))
		cs := compileAll(t, boardQueries(), tbl)
		scheds := []*Schedule{
			newBoardSchedule(t, cs[0], RunOptions{Parallelism: -1, Pool: pool}),
			newBoardSchedule(t, cs[1], RunOptions{Parallelism: -1, Pool: pool}),
		}
		ws := []func() bool{reachable(tbl)}
		if _, errs := runOnBoard(t, pool, scheds); errs[0] != nil || errs[1] != nil {
			t.Fatal(errs)
		}
		for i, s := range scheds {
			ws = append(ws, reachable(s), reachable(cs[i]))
			for _, a := range s.accs {
				if a != nil {
					ws = append(ws, reachable(a))
				}
			}
		}
		return ws
	}()
	for range 4 {
		runtime.GC()
	}
	for i, alive := range weaks {
		if alive() {
			t.Errorf("object %d (table, then per schedule: schedule, binding, accumulators) is still reachable after Run returned", i)
		}
	}
}

// TestScheduleRidersConcurrent runs many queries at once on a two-worker
// pool over a lazy table at a 1-byte budget, so leads and riders interleave
// however the scheduler has them, riders of riders' schedules included:
// every result must still be its solo run's, bit for bit.
func TestScheduleRidersConcurrent(t *testing.T) {
	tbl, _ := lazyTable(t, storage.NewChunkCache(1))
	qs := boardQueries()
	for _, k := range kernelTemplates()[1:] {
		qs = append(qs, k.q)
	}
	var cs []*Compiled
	var want []*Result
	for _, q := range qs {
		c := compileAll(t, []*Query{q}, tbl)[0]
		cs = append(cs, c)
		want = append(want, mustRun(t, c, RunOptions{}))
	}
	pool := NewPool(2)
	defer pool.Close()
	rides := obs.ChunkRidesTotal.Value()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range 6 {
				i := (g + it) % len(cs)
				got, err := Run(cs[i], RunOptions{Parallelism: 1 + it%3, Pool: pool})
				if err != nil {
					errs <- err.Error()
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					errs <- want[i].Diff(got)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for d := range errs {
		t.Errorf("concurrent ridden run differs from its solo run: %s", d)
	}
	t.Logf("%d chunk scans rode another query's pin", obs.ChunkRidesTotal.Value()-rides)
}
