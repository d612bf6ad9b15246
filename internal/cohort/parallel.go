package cohort

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// This file is the shared physical executor for compiled cohort queries: one
// chunk schedule over every shard of a query, served by one fan-out with one
// accumulator per worker, kept for the whole query and merged once at the
// end. A Compiled query is immutable, and users never span chunks (the
// clustering property of Section 4.1) or shards, so partial accumulators
// merge without distinct-count corrections — the Section 4.5 property that
// makes chunk-level parallelism embarrassingly parallel. The planner
// (internal/plan), and through it the query server, executes every query
// through a Schedule.

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

// RunOptions controls the physical execution of a query's schedule.
type RunOptions struct {
	// Parallelism is the number of chunks processed concurrently, across
	// every shard of the query. 0 or 1 selects the paper's single-threaded
	// execution; negative uses GOMAXPROCS workers. When Pool is set, the
	// query's fan-out is additionally capped by the pool's worker count.
	Parallelism int
	// Pool, when non-nil, executes chunk tasks on the shared pool instead
	// of spawning per-query goroutines, bounding total concurrency across
	// simultaneous queries.
	Pool *Pool
	// Ctx, when non-nil, cancels the execution: workers stop picking up
	// chunks once the context is done, so a disconnected client's fan-out
	// releases its pool workers instead of scanning to completion. Callers
	// observe the cancellation via Ctx.Err(); a cancelled run's partial
	// result must be discarded.
	Ctx context.Context
	// Stats, when non-nil, receives decoder-level execution counters
	// (shared across workers; updated atomically).
	Stats *ExecStats
	// Trace, when non-nil, is the query's trace span: the schedule opens a
	// "shard i" child per shard, carrying its chunks' aggregated counters,
	// their summed scan time (busy_us) and per-chunk children (capped at
	// maxTraceChunks), with a "delta union" child for a live shard's union
	// table, and a "merge" child timing the one merge. The shard spans
	// themselves cover the whole fan-out, so busy_us is where a shard's own
	// time shows. Nil (the default) costs one pointer test per chunk.
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

// Schedule is one query's work list: an entry per chunk the query scans,
// over every shard's union table and sealed tier, pruned once as each shard
// is added (AddShard). Run serves the whole list with one fan-out and one
// accumulator per worker, merged once, so Parallelism and Pool cap the
// query, not each shard. Users never span chunks, shards, or a live shard's
// sealed and union tables (the union table owns every delta user), so all
// entries' partial aggregates merge without correction.
type Schedule struct {
	opts    RunOptions
	nAggs   int
	shards  int
	entries []entry
	sinks   []*sink
}

// entry is one chunk of the schedule: the binding that scans it, its index
// in that binding's table, the sealed users it skips and where its tallies
// land.
type entry struct {
	c     *Compiled
	chunk int
	skip  map[uint64]bool
	sink  *sink
}

// sink is where one table's entries report: the span their tallies
// aggregate on, with its per-chunk tracer, the shard a load error names,
// and whether ExecStats counts them. ExecStats counts sealed entries only;
// a union table's scan shows in the delta counters.
type sink struct {
	chunks chunkTracer
	shard  int
	sealed bool
}

// NewSchedule starts an empty schedule run with opts.
func NewSchedule(opts RunOptions) *Schedule {
	return &Schedule{opts: opts}
}

// add appends the chunks of c's table that pruning keeps, in index order,
// reporting to a new sink on span, for the shard AddShard is adding.
func (s *Schedule) add(c *Compiled, skip map[uint64]bool, span *obs.Span, sealed bool) {
	sk := &sink{chunks: chunkTracer{parent: span}, shard: s.shards - 1, sealed: sealed}
	s.sinks = append(s.sinks, sk)
	s.nAggs = c.NumAggs()
	prune := c.PruneMap()
	s.entries = slices.Grow(s.entries, len(prune))
	var pruned int64
	for i, p := range prune {
		if p {
			pruned++
			continue
		}
		s.entries = append(s.entries, entry{c: c, chunk: i, skip: skip, sink: sk})
	}
	if sealed && s.opts.Stats != nil {
		s.opts.Stats.ChunksPruned.Add(pruned)
	}
	obs.ChunksPrunedTotal.Add(pruned)
	span.SetInt("chunks_total", int64(len(prune)))
	span.SetInt("chunks_pruned", pruned)
}

// Run serves the schedule and returns the merged accumulator. The error is
// non-nil only when a lazy chunk load fails (e.g. a missing or corrupt
// segment file); it names the chunk's shard. The shard and delta union
// spans end once the workers are done, before the merge.
func (s *Schedule) Run() (*Accumulator, error) {
	accs, err := s.fanOut()
	for _, sk := range s.sinks {
		sk.chunks.parent.SetInt("busy_us", sk.chunks.busyNs.Load()/1000)
		sk.chunks.parent.End()
	}
	if err != nil {
		return nil, err
	}
	m := s.opts.Trace.Child("merge")
	for _, a := range accs[1:] {
		accs[0].Merge(a)
	}
	m.End()
	return accs[0], nil
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

// maxTraceChunks caps the per-chunk child spans attached to one shard or
// delta union span, so a traced query over a huge table stays bounded. The
// span still aggregates every chunk's counters (record), so its numbers
// remain exact; only the per-chunk breakdown is truncated.
const maxTraceChunks = 32

// chunkTracer hands out per-chunk trace spans under one span, capped at
// maxTraceChunks, and sums every chunk's scan time, capped or not. Safe for
// concurrent workers; inert when untraced.
type chunkTracer struct {
	parent *obs.Span
	n      atomic.Int64
	busyNs atomic.Int64
}

// start opens chunk chunkIdx's span (nil past the cap) and returns it with
// the time the scan starts, taken before the span opens so the summed time
// covers the span; both are zero when untraced.
func (t *chunkTracer) start(chunkIdx int) (*obs.Span, time.Time) {
	if t.parent == nil {
		return nil, time.Time{}
	}
	t0 := time.Now()
	if t.n.Add(1) > maxTraceChunks {
		return nil, t0
	}
	return t.parent.Child(fmt.Sprintf("chunk %d", chunkIdx)), t0
}

// end closes a chunk's span and adds its scan time since t0.
func (t *chunkTracer) end(sp *obs.Span, t0 time.Time) {
	if t.parent == nil {
		return
	}
	sp.End()
	t.busyNs.Add(time.Since(t0).Nanoseconds())
}

// record folds one finished chunk's tallies into the query's shared
// ExecStats (atomic adds — the per-task-with-merge answer to sharing one
// stats struct across pool workers) when its sink is sealed, the process
// metrics, the chunk's own trace span (sp, may be nil past the cap) and the
// sink span's aggregates.
func (s *Schedule) record(sk *sink, sp *obs.Span, st ChunkStats) {
	if stats := s.opts.Stats; stats != nil && sk.sealed {
		stats.RowsScanned.Add(st.RowsScanned)
		stats.RowsSkippedByAge.Add(st.RowsSkippedByAge)
		stats.ValueBytesDecoded.Add(st.ValueBytesDecoded)
		stats.EncodedChecks.Add(st.EncodedChecks)
		stats.UsersSkippedByBirth.Add(st.UsersSkippedByBirth)
		stats.RunsEvaluated.Add(st.RunsEvaluated)
		stats.RowsBatched.Add(st.RowsBatched)
		stats.ChunksScanned.Add(1)
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
	if t := sk.chunks.parent; t != nil {
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

// fanOut runs the schedule's entries on min(workers, entries) tasks. Each
// task folds every entry it takes into one accumulator of its own, kept for
// the whole query, whatever shard or table the entry comes from; Run merges
// those accumulators once, after the last task ends. After a worker's first
// chunks its cohort states and buckets exist, so a chunk costs array updates
// (Section 4.4), and memory is one accumulator per worker.
//
// Deadlock-freedom with a shared pool: next is fully buffered and closed
// before any task starts, and a task waits on nothing else, so a task that
// reaches a pool worker always runs to completion and frees the worker, even
// while this goroutine is still blocked submitting the query's remaining
// tasks. Without a pool the caller runs the last task itself instead of
// idling in wg.Wait. Which entries a worker takes is a race, and merge order
// is worker order; neither is observable: measure sums add exactly (int64
// values in float64), min/max and counts are order-free, and Result sorts
// cohorts — the equivalence tests pin pooled, parallel and sharded runs
// bit-for-bit against a one-worker run.
func (s *Schedule) fanOut() ([]*Accumulator, error) {
	workers := min(s.opts.workers(), len(s.entries))
	accs := make([]*Accumulator, max(workers, 1))
	for w := range accs {
		accs[w] = NewAccumulator(s.nAggs)
	}
	if workers == 0 {
		return accs, nil
	}
	next := make(chan int, len(s.entries))
	for i := range s.entries {
		next <- i
	}
	close(next)
	var ferr firstError
	var wg sync.WaitGroup
	for w, mine := range accs {
		task := func() {
			defer wg.Done()
			for i := range next {
				if s.opts.cancelled() || ferr.get() != nil {
					// Drain without scanning: the channel is already
					// closed, so this ends promptly and frees the worker.
					continue
				}
				e := &s.entries[i]
				sp, t0 := e.sink.chunks.start(e.chunk)
				st, err := e.c.runChunk(e.chunk, mine, e.skip)
				e.sink.chunks.end(sp, t0)
				if err != nil {
					ferr.set(fmt.Errorf("shard %d: %w", e.sink.shard, err))
					continue
				}
				s.record(e.sink, sp, st)
			}
		}
		wg.Add(1)
		switch {
		case s.opts.Pool != nil:
			if !s.opts.Pool.submit(task) {
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
	return accs, ferr.get()
}
