package cohort

import (
	"testing"

	"repro/internal/activity"
	"repro/internal/gen"
	"repro/internal/storage"
)

// allocRows is the tables' content of the allocation tests: 2,000 generated
// users, sorted.
func allocRows(t *testing.T) *activity.Table {
	t.Helper()
	rows := gen.Generate(gen.Config{Users: 2000, Seed: 1})
	if err := rows.SortByPK(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// scheduleShard is one shard's input to runSchedule.
type scheduleShard struct {
	c     *Compiled
	delta *activity.Table
	pre   *UnionDelta
}

// runSchedule runs one schedule over shards and materializes its result.
// It panics on error, so it can run inside testing.AllocsPerRun.
func runSchedule(shards []scheduleShard, opts RunOptions) *Result {
	s := NewSchedule(opts)
	for _, sh := range shards {
		if err := s.AddShard(sh.c, sh.delta, sh.pre); err != nil {
			panic(err)
		}
	}
	acc, err := s.Run()
	if err != nil {
		panic(err)
	}
	return acc.Result(shards[0].c.KeyColNames(), shards[0].c.Query.Aggs)
}

// TestScheduleAccumulatorsPerWorker pins one accumulator per worker per
// query, across shards and a live shard's union table. A two-worker pooled
// run over two shards, each with a delta whose users also have sealed rows,
// returns the one-shard sealed result over the same rows. Outside -race it
// may allocate only a few objects per extra chunk more than that one-shard
// run, and a union table's per-query compile: a further accumulator's cohort
// states, or a second merge round, break the bound.
func TestScheduleAccumulatorsPerWorker(t *testing.T) {
	rows := allocRows(t)
	schema := rows.Schema()
	q := *kernelTemplates()[0].q // count_full
	q.CohortBy = []CohortKey{{Col: "country"}, {Col: "role"}}
	opts := RunOptions{Parallelism: 2}
	compile := func(tbl *storage.Table) *Compiled {
		c, err := Compile(&q, tbl)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	whole, err := storage.Build(rows, storage.Options{ChunkSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	one := []scheduleShard{{c: compile(whole)}}

	// The last tuple of every 16th user arrives late, in its shard's delta.
	sealed := activity.NewTable(schema)
	deltas := []*activity.Table{activity.NewTable(schema), activity.NewTable(schema)}
	n := 0
	rows.UserBlocks(func(user string, start, end int) {
		if n++; n%16 == 0 {
			deltas[storage.ShardOf(user, 2)].AppendRows(rows, end-1, end)
			end--
		}
		sealed.AppendRows(rows, start, end)
	})
	if err := sealed.SortByPK(); err != nil {
		t.Fatal(err)
	}
	sharded, err := storage.BuildSharded(sealed, 2, storage.Options{ChunkSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var live []scheduleShard
	chunks := 0
	for i, tbl := range sharded.Shards() {
		if err := deltas[i].SortByPK(); err != nil {
			t.Fatal(err)
		}
		pre, err := BuildUnionDelta(tbl, deltas[i])
		if err != nil {
			t.Fatal(err)
		}
		if deltas[i].Len() == 0 || len(pre.SkipUsers) == 0 {
			t.Fatalf("shard %d: %d delta rows, %d skipped users; want both > 0", i, deltas[i].Len(), len(pre.SkipUsers))
		}
		live = append(live, scheduleShard{c: compile(tbl), delta: deltas[i], pre: pre})
		chunks += tbl.NumChunks() + pre.Table.NumChunks()
	}

	pool := NewPool(2)
	defer pool.Close()
	opts.Pool = pool
	want, got := runSchedule(one, opts), runSchedule(live, opts)
	if d := want.Diff(got); d != "" {
		t.Fatalf("two live shards differ from one sealed shard: %s", d)
	}
	if raceEnabled {
		return
	}
	oneAllocs := testing.AllocsPerRun(20, func() { runSchedule(one, opts) })
	liveAllocs := testing.AllocsPerRun(20, func() { runSchedule(live, opts) })
	extra := chunks - whole.NumChunks()
	if limit := oneAllocs + 4*float64(extra) + 16*float64(len(live)); liveAllocs > limit {
		t.Errorf("two live shards (%d chunks): %.0f allocs per run, want <= %.0f (one shard, %d chunks: %.0f, + 4 per extra chunk, + 16 per union table)",
			chunks, liveAllocs, limit, whole.NumChunks(), oneAllocs)
	}
	t.Logf("allocs per run: one shard %.0f (%d chunks), two live shards %.0f (%d chunks)", oneAllocs, whole.NumChunks(), liveAllocs, chunks)
}

// TestUnionBindingCachedPerQuery pins the union table's binding to one
// compile per (generation, plan query): a live shard's repeated query reuses
// the binding its UnionDelta cached, so putting the shard on a schedule
// allocates far less than binding the union table afresh, and both
// schedules return the same result.
func TestUnionBindingCachedPerQuery(t *testing.T) {
	rows := allocRows(t)
	schema := rows.Schema()
	sealed, delta := activity.NewTable(schema), activity.NewTable(schema)
	n := 0
	rows.UserBlocks(func(user string, start, end int) {
		if n++; n%16 == 0 {
			delta.AppendRows(rows, end-1, end)
			end--
		}
		sealed.AppendRows(rows, start, end)
	})
	if err := sealed.SortByPK(); err != nil {
		t.Fatal(err)
	}
	tbl, err := storage.Build(sealed, storage.Options{ChunkSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := delta.SortByPK(); err != nil {
		t.Fatal(err)
	}
	pre, err := BuildUnionDelta(tbl, delta)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(kernelTemplates()[0].q, tbl)
	if err != nil {
		t.Fatal(err)
	}
	schedule := func(pre *UnionDelta) *Schedule {
		s := NewSchedule(RunOptions{})
		if err := s.AddShard(c, delta, pre); err != nil {
			panic(err)
		}
		return s
	}
	// fresh is the same union input with no binding cached yet.
	fresh := func() *UnionDelta { return &UnionDelta{Table: pre.Table, SkipUsers: pre.SkipUsers} }
	first := schedule(pre)
	if uc := first.entries[0].c; uc.tbl != pre.Table || schedule(pre).entries[0].c != uc {
		t.Fatal("the union table's entries do not share one cached binding across schedules")
	}
	want := runSchedule([]scheduleShard{{c: c, delta: delta, pre: fresh()}}, RunOptions{})
	if d := want.Diff(runSchedule([]scheduleShard{{c: c, delta: delta, pre: pre}}, RunOptions{})); d != "" {
		t.Fatalf("cached union binding changes the result: %s", d)
	}
	if raceEnabled {
		return
	}
	cached := testing.AllocsPerRun(50, func() { schedule(pre) })
	uncached := testing.AllocsPerRun(50, func() { schedule(fresh()) })
	if cached > uncached-8 {
		t.Errorf("AddShard with a cached union binding: %.0f allocs, want at least 8 fewer than binding afresh (%.0f)", cached, uncached)
	}
	t.Logf("AddShard allocs: cached binding %.0f, fresh binding %.0f", cached, uncached)
}
