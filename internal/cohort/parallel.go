package cohort

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// This file is the shared physical executor for compiled cohort queries: it
// fans a query out over the table's chunks with one accumulator per worker,
// kept for the whole query, and merges those once at the end. A Compiled
// query is immutable, and users never span chunks (the clustering property
// of Section 4.1), so partial accumulators merge without distinct-count
// corrections — the Section 4.5 property that makes chunk-level parallelism
// embarrassingly parallel. The planner (internal/plan), and through it the
// query server, executes every shard through RunUnionAccum.

// Pool is a bounded set of workers shared by concurrent query executions.
// A server creates one Pool sized to the machine and routes every query's
// chunk tasks through it, so total chunk-scan concurrency stays bounded no
// matter how many requests are in flight. The zero value is not usable;
// call NewPool.
type Pool struct {
	tasks   chan func()
	wg      sync.WaitGroup
	workers int

	// mu protects closed and orders submissions against Close: submitters
	// hold the read side across the channel send, so the channel can only
	// be closed when no send is in flight (no send-on-closed panic, even
	// if a query races a server shutdown).
	mu     sync.RWMutex
	closed bool
}

// NewPool starts a pool with the given number of workers; workers <= 0
// selects GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{tasks: make(chan func()), workers: workers}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for f := range p.tasks {
				f()
			}
		}()
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// submit enqueues f, blocking until a worker accepts it. It reports false
// (dropping f) if the pool is closed. The read lock is held across the
// send: concurrent submitters proceed in parallel, while Close's write
// lock waits for every in-flight send before the channel closes.
func (p *Pool) submit(f func()) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	p.tasks <- f
	return true
}

// Close stops the workers after draining queued tasks. Submissions racing
// Close are safe: they either enqueue before the channel closes or report
// false, and the executor falls back to running those tasks inline.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// spawn runs f concurrently: on the shared pool when one is available (and
// still accepting), on a fresh goroutine otherwise. It only suits tasks that
// run to completion without waiting on other pooled tasks — anything else
// risks deadlocking a saturated pool. This helper is the sanctioned spawn
// point for engine code outside this file; the goroutinepool analyzer in
// cohana-lint flags bare go statements elsewhere.
func spawn(p *Pool, f func()) {
	if p != nil && p.submit(f) {
		return
	}
	go f()
}

// RunOptions controls the physical execution of a compiled query.
type RunOptions struct {
	// Parallelism is the number of chunks processed concurrently. 0 or 1
	// selects the paper's single-threaded execution; negative uses
	// GOMAXPROCS workers. When Pool is set, the per-query fan-out is
	// additionally capped by the pool's worker count.
	Parallelism int
	// Pool, when non-nil, executes chunk tasks on the shared pool instead
	// of spawning per-query goroutines, bounding total concurrency across
	// simultaneous queries.
	Pool *Pool
	// skipUsers lists user global-ids whose sealed blocks must be skipped
	// because the union executor scans them in the union table together
	// with their fresh delta tuples (see RunUnionAccum).
	skipUsers map[uint64]bool
	// Ctx, when non-nil, cancels the execution: workers stop picking up
	// chunks once the context is done, so a disconnected client's
	// scatter-gather fan-out releases its pool workers instead of scanning
	// to completion. Callers observe the cancellation via Ctx.Err(); a
	// cancelled run's partial result must be discarded.
	Ctx context.Context
	// Stats, when non-nil, receives decoder-level execution counters
	// (shared across workers; updated atomically).
	Stats *ExecStats
	// Trace, when non-nil, is this shard's trace span: the executor attaches
	// per-chunk child spans (capped at maxTraceChunks) carrying measured
	// rows/bytes/ns and aggregates the same counters on the shard span
	// itself; a union run puts the union table's chunks under a "delta
	// union" child. Nil (the default) costs one pointer test per chunk.
	Trace *obs.Span
}

// cancelled reports whether the run's context is done.
func (o RunOptions) cancelled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

func (o RunOptions) workers() int {
	w := o.Parallelism
	switch {
	case w < 0:
		w = runtime.GOMAXPROCS(0)
	case w == 0:
		w = 1
	}
	if o.Pool != nil && w > o.Pool.workers {
		w = o.Pool.workers
	}
	return w
}

// Run executes a compiled query over all non-pruned chunks and materializes
// the merged result. The error is non-nil only when a lazy chunk load fails
// (e.g. a missing or corrupt segment file).
func Run(c *Compiled, opts RunOptions) (*Result, error) {
	acc, err := runAccum(c, opts)
	if err != nil {
		return nil, err
	}
	return acc.Result(c.KeyColNames(), c.Query.Aggs), nil
}

// firstError collects the first chunk-load failure across workers; later
// errors are dropped (they are almost always the same root cause), and
// remaining chunks are drained without scanning.
type firstError struct {
	mu  sync.Mutex
	err error
}

func (f *firstError) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstError) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// runAccum executes the chunk fan-out and returns the merged accumulator
// without materializing a Result. The scatter-gather executor (internal/plan)
// runs one per shard, through RunUnionAccum, and merges the partials — users
// never span shards, so shard partials merge exactly as worker accumulators
// do.
func runAccum(c *Compiled, opts RunOptions) (*Accumulator, error) {
	total := c.tbl.NumChunks()
	var chunks []int
	for i := 0; i < total; i++ {
		if c.CanSkipChunk(i) {
			continue
		}
		chunks = append(chunks, i)
	}
	pruned := int64(total - len(chunks))
	if opts.Stats != nil {
		opts.Stats.ChunksPruned.Add(pruned)
	}
	obs.ChunksPrunedTotal.Add(pruned)
	opts.Trace.SetInt("chunks_total", int64(total))
	opts.Trace.SetInt("chunks_pruned", pruned)
	acc := NewAccumulator(c.NumAggs())
	if len(chunks) == 0 {
		return acc, nil
	}
	workers := min(opts.workers(), len(chunks))
	// Chunk indices are fully buffered and the channel closed before any
	// task starts, so tasks never block on the producer: with a shared
	// pool, a task that reaches a worker always drains to completion and
	// frees the worker, which keeps concurrent queries deadlock-free even
	// on a one-worker pool.
	next := make(chan int, len(chunks))
	for _, i := range chunks {
		next <- i
	}
	close(next)
	return acc, fanOut(c, acc, next, workers, opts)
}

// maxTraceChunks caps the per-chunk child spans attached to one shard's
// trace, so a traced query over a huge table stays bounded. The shard span
// still aggregates every chunk's counters (recordChunk), so shard-level
// numbers remain exact; only the per-chunk breakdown is truncated.
const maxTraceChunks = 32

// chunkTracer hands out per-chunk trace spans under one shard span, capped
// at maxTraceChunks. Safe for concurrent workers; inert when untraced.
type chunkTracer struct {
	parent *obs.Span
	n      atomic.Int64
}

func (t *chunkTracer) child(chunkIdx int) *obs.Span {
	if t.parent == nil {
		return nil
	}
	if t.n.Add(1) > maxTraceChunks {
		return nil
	}
	return t.parent.Child(fmt.Sprintf("chunk %d", chunkIdx))
}

// recordChunk folds one finished chunk's tallies into the query's shared
// ExecStats (atomic adds — the per-task-with-merge answer to sharing one
// stats struct across pool workers), the process metrics, the chunk's own
// trace span (sp, may be nil past the cap) and the shard span's aggregates.
func recordChunk(opts RunOptions, sp *obs.Span, st ChunkStats) {
	if opts.Stats != nil {
		opts.Stats.RowsScanned.Add(st.RowsScanned)
		opts.Stats.RowsSkippedByAge.Add(st.RowsSkippedByAge)
		opts.Stats.ValueBytesDecoded.Add(st.ValueBytesDecoded)
		opts.Stats.EncodedChecks.Add(st.EncodedChecks)
		opts.Stats.UsersSkippedByBirth.Add(st.UsersSkippedByBirth)
		opts.Stats.RunsEvaluated.Add(st.RunsEvaluated)
		opts.Stats.RowsBatched.Add(st.RowsBatched)
		opts.Stats.ChunksScanned.Add(1)
	}
	obs.RowsScannedTotal.Add(st.RowsScanned)
	obs.ValueBytesDecodedTotal.Add(st.ValueBytesDecoded)
	obs.EncodedChecksTotal.Add(st.EncodedChecks)
	obs.RunsEvaluatedTotal.Add(st.RunsEvaluated)
	obs.RowsBatchedTotal.Add(st.RowsBatched)
	obs.ChunksScannedTotal.Inc()
	if sp != nil {
		sp.SetInt("rows_scanned", st.RowsScanned)
		sp.SetInt("rows_skipped_by_age", st.RowsSkippedByAge)
		sp.SetInt("value_bytes_decoded", st.ValueBytesDecoded)
		sp.SetInt("encoded_checks", st.EncodedChecks)
		sp.SetInt("users_skipped_by_birth", st.UsersSkippedByBirth)
		sp.SetInt("runs_evaluated", st.RunsEvaluated)
		sp.SetInt("rows_batched", st.RowsBatched)
	}
	if t := opts.Trace; t != nil {
		t.AddInt("rows_scanned", st.RowsScanned)
		t.AddInt("rows_skipped_by_age", st.RowsSkippedByAge)
		t.AddInt("value_bytes_decoded", st.ValueBytesDecoded)
		t.AddInt("encoded_checks", st.EncodedChecks)
		t.AddInt("users_skipped_by_birth", st.UsersSkippedByBirth)
		t.AddInt("runs_evaluated", st.RunsEvaluated)
		t.AddInt("rows_batched", st.RowsBatched)
		t.AddInt("chunks_scanned", 1)
	}
}

// fanOut is the chunk fan-out and merge. Each of the `workers` tasks folds
// every chunk it takes from next into one accumulator of its own, kept for
// the whole query, and the caller merges those accumulators once, after the
// last task ends. Worker 0's accumulator is acc itself, so a one-worker run
// merges nothing. After a worker's first chunks its cohort states and
// buckets exist, so a chunk costs array updates (Section 4.4), and a merge
// happens once per worker, not once per chunk; memory is one accumulator per
// worker.
//
// Deadlock-freedom with a shared pool: next is fully buffered and closed
// before any task starts, and a task waits on nothing else, so a task that
// reaches a pool worker always runs to completion and frees the worker, even
// while this goroutine is still blocked submitting the query's remaining
// tasks. Without a pool the caller runs the last task itself instead of
// idling in wg.Wait. Which chunks a worker takes is a race, and merge order
// is worker order; neither is observable: measure sums add exactly (int64
// values in float64), min/max and counts are order-free, and Result sorts
// cohorts — the equivalence test pins pooled and parallel runs bit-for-bit
// against a one-worker run.
func fanOut(c *Compiled, acc *Accumulator, next chan int, workers int, opts RunOptions) error {
	ct := &chunkTracer{parent: opts.Trace}
	accs := make([]*Accumulator, workers)
	var ferr firstError
	var wg sync.WaitGroup
	for w := range accs {
		mine := acc
		if w > 0 {
			mine = NewAccumulator(c.NumAggs())
		}
		accs[w] = mine
		task := func() {
			defer wg.Done()
			for i := range next {
				if opts.cancelled() || ferr.get() != nil {
					// Drain without scanning: the channel is already
					// closed, so this ends promptly and frees the worker.
					continue
				}
				sp := ct.child(i)
				st, err := c.runChunk(i, mine, opts.skipUsers)
				sp.End()
				if err != nil {
					ferr.set(err)
					continue
				}
				recordChunk(opts, sp, st)
			}
		}
		wg.Add(1)
		switch {
		case opts.Pool != nil:
			if !opts.Pool.submit(task) {
				// Pool closed mid-shutdown: fall back to inline
				// execution so the query still completes.
				task()
			}
		case w == workers-1:
			task()
		default:
			go task()
		}
	}
	wg.Wait()
	for _, a := range accs[1:] {
		acc.Merge(a)
	}
	return ferr.get()
}
