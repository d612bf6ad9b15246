package cohort

import (
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/storage"
)

// genStore compresses a synthetic multi-chunk workload.
func genStore(t *testing.T) *storage.Table {
	t.Helper()
	tbl := gen.Generate(gen.Config{Users: 120, Days: 20, MeanActions: 20, Seed: 7})
	st, err := storage.Build(tbl, storage.Options{ChunkSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumChunks() < 4 {
		t.Fatalf("fixture has %d chunks, want >= 4 for a meaningful parallel test", st.NumChunks())
	}
	return st
}

func genQuery() *Query {
	return &Query{
		BirthAction: "launch",
		BirthCond:   expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "role"}, R: expr.Lit{Val: expr.S("dwarf")}},
		AgeCond:     expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "action"}, R: expr.Lit{Val: expr.S("shop")}},
		CohortBy:    []CohortKey{{Col: "country"}},
		Aggs:        []AggSpec{{Func: Sum, Col: "gold", As: "spent"}, {Func: UserCount}},
	}
}

// Run executes c over its table as a one-shard schedule and materializes the
// merged result.
func Run(c *Compiled, opts RunOptions) (*Result, error) {
	s := NewSchedule(opts)
	if err := s.AddShard(c, nil, nil); err != nil {
		return nil, err
	}
	acc, err := s.Run()
	if err != nil {
		return nil, err
	}
	return acc.Result(c.KeyColNames(), c.Query.Aggs), nil
}

// mustRun executes c and fails the test on error. Only call from the test
// goroutine (it uses t.Fatal).
func mustRun(t *testing.T, c *Compiled, opts RunOptions) *Result {
	t.Helper()
	res, err := Run(c, opts)
	if err != nil {
		t.Fatalf("Run(%+v): %v", opts, err)
	}
	return res
}

// TestRunParallelismEquivalence checks that every fan-out configuration of
// the pruned chunk executor produces the unpruned row reference's result,
// including workers far above the chunk count.
func TestRunParallelismEquivalence(t *testing.T) {
	st := genStore(t)
	q := genQuery()
	c, err := Compile(q, st)
	if err != nil {
		t.Fatal(err)
	}
	want := rowReference(t, q, mustMaterialize(t, st))
	if len(want.Rows) == 0 {
		t.Fatal("reference returned no rows; fixture too small")
	}
	for _, opts := range []RunOptions{
		{},
		{Parallelism: 2},
		{Parallelism: 3},
		{Parallelism: -1},
		{Parallelism: 64},
	} {
		got := mustRun(t, c, opts)
		if d := want.Diff(got); d != "" {
			t.Errorf("Run(%+v) differs from the row reference: %s", opts, d)
		}
	}
}

// TestRunOnPool checks pool-routed execution, including a one-worker pool
// (the degenerate case where a query's tasks must drain without deadlock)
// and many concurrent queries sharing a small pool.
func TestRunOnPool(t *testing.T) {
	st := genStore(t)
	c, err := Compile(genQuery(), st)
	if err != nil {
		t.Fatal(err)
	}
	want := mustRun(t, c, RunOptions{})
	for _, workers := range []int{1, 2, 4} {
		pool := NewPool(workers)
		got := mustRun(t, c, RunOptions{Parallelism: -1, Pool: pool})
		if d := want.Diff(got); d != "" {
			t.Errorf("pool(%d) run differs from serial run: %s", workers, d)
		}
		// 16 concurrent queries through the same bounded pool.
		var wg sync.WaitGroup
		errs := make(chan string, 16)
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := Run(c, RunOptions{Parallelism: 4, Pool: pool})
				if err != nil {
					errs <- err.Error()
					return
				}
				if d := want.Diff(res); d != "" {
					errs <- d
				}
			}()
		}
		wg.Wait()
		close(errs)
		for d := range errs {
			t.Errorf("pool(%d) concurrent run differs: %s", workers, d)
		}
		pool.Close()
	}
}

// TestRunRacingPoolClose hammers queries against a pool while it closes:
// no send-on-closed panic, and every query still returns the full result
// (submissions rejected by the closing pool fall back to inline runs).
func TestRunRacingPoolClose(t *testing.T) {
	st := genStore(t)
	c, err := Compile(genQuery(), st)
	if err != nil {
		t.Fatal(err)
	}
	want := mustRun(t, c, RunOptions{})
	for round := 0; round < 20; round++ {
		pool := NewPool(2)
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := Run(c, RunOptions{Parallelism: 4, Pool: pool})
				if err != nil {
					errs <- err.Error()
					return
				}
				if d := want.Diff(res); d != "" {
					errs <- d
				}
			}()
		}
		pool.Close() // races the submissions above
		wg.Wait()
		close(errs)
		for d := range errs {
			t.Fatalf("round %d: result diverged while racing Close: %s", round, d)
		}
	}
}

// TestRunOnClosedPool checks the shutdown fallback: queries routed at a
// closed pool still complete inline and return correct results.
func TestRunOnClosedPool(t *testing.T) {
	st := genStore(t)
	c, err := Compile(genQuery(), st)
	if err != nil {
		t.Fatal(err)
	}
	want := mustRun(t, c, RunOptions{})
	pool := NewPool(2)
	pool.Close()
	pool.Close() // double-close is a no-op
	got := mustRun(t, c, RunOptions{Parallelism: 4, Pool: pool})
	if d := want.Diff(got); d != "" {
		t.Errorf("closed-pool run differs from serial run: %s", d)
	}
}
