package cohort

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// This file is the shared physical executor for compiled cohort queries: one
// chunk schedule over every shard of a query, served on a scan board with one
// accumulator per worker, kept for the whole query and merged once at the
// end. A Compiled query is immutable, and users never span chunks (the
// clustering property of Section 4.1) or shards, so partial accumulators
// merge without distinct-count corrections — the Section 4.5 property that
// makes chunk-level parallelism embarrassingly parallel. The planner
// (internal/plan), and through it the query server, executes every query
// through a Schedule.

// Pool is a scan board shared by concurrent query executions: a bounded set
// of workers serving every registered schedule, so total chunk-scan
// concurrency stays bounded however many queries are in flight.
//
// A worker claims the next entry of the oldest registered schedule that has
// fewer leads in flight than its Parallelism (the worker's lead) and pins its
// chunk once. If the pin is transient — a chunk the cache will not keep — the
// worker also claims the same (table, chunk) in every registered schedule
// (its riders), scans each into that schedule's accumulator for the worker,
// and releases the chunk once: Zukowski et al.'s cooperative scans (VLDB
// 2007). A resident or kept chunk takes no riders: the other query's own pin
// hits, and riding would only queue its scan behind the lead's. Parallelism
// caps a schedule's leads, not the riders it takes.
//
// Deadlock-freedom: a claim waits for nothing but its pin, which waits at
// most for another worker's single-flight load, so every claim completes. A
// worker idles only while no schedule has a claimable entry, and a schedule
// at its cap has a lead in flight whose worker claims again when it ends, so
// every registered entry is claimed. Run waits only for its own entries.
// The zero value is not usable; call NewPool.
type Pool struct {
	wg      sync.WaitGroup
	workers int

	// mu guards the board, every registered schedule's claim state and
	// closed; wake is broadcast when a schedule registers or the pool closes.
	mu     sync.Mutex
	wake   sync.Cond
	board  []*Schedule // registered schedules with unclaimed entries, oldest first
	closed bool
}

// NewPool starts a pool with the given number of workers; workers <= 0
// selects GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := newPool(workers)
	p.start()
	return p
}

// newPool returns a board for workers workers; start launches them.
func newPool(workers int) *Pool {
	p := &Pool{workers: workers}
	p.wake.L = &p.mu
	return p
}

func (p *Pool) start() {
	for w := range p.workers {
		p.wg.Add(1)
		go p.work(w)
	}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Close stops the workers once every registered schedule is claimed. A Run
// racing Close either registers first, and is served before the workers
// exit, or finds the pool closed and serves itself on a private board.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.wake.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// register puts s on the board, reporting false if the pool is closed.
func (p *Pool) register(s *Schedule) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	s.accs = make([]*Accumulator, p.workers)
	s.limit = s.opts.workers()
	s.unclaimed, s.pending = len(s.entries), len(s.entries)
	s.done = make(chan struct{})
	p.board = append(p.board, s)
	p.wake.Broadcast()
	return true
}

// work is worker w's loop: claim a lead, serve it and its riders, complete
// them, until the pool is closed with nothing left to claim. An idle worker
// reaches nothing it served: lead is scoped to one round, riders is cleared.
func (p *Pool) work(w int) {
	defer p.wg.Done()
	var riders []*entry
	p.mu.Lock()
	for {
		lead := p.leadLocked()
		if lead == nil {
			if p.closed {
				break
			}
			p.wake.Wait()
			continue
		}
		p.mu.Unlock()
		riders = append(p.serve(w, lead, riders), lead)
		p.mu.Lock()
		lead.sink.s.leads--
		for _, e := range riders {
			e.sink.s.completeLocked(1)
		}
		clear(riders)
		riders = riders[:0]
	}
	p.mu.Unlock()
}

// leadLocked claims the next entry of the oldest schedule below its cap. A
// failed or cancelled schedule it passes is drained: its unclaimed entries
// complete unscanned.
func (p *Pool) leadLocked() (lead *entry) {
	for _, s := range p.board {
		if s.err != nil || s.opts.cancelled() {
			s.completeLocked(s.unclaimed)
			s.unclaimed = 0
			continue
		}
		if s.leads < s.limit {
			for s.entries[s.next].claimed {
				s.next++
			}
			lead = &s.entries[s.next]
			lead.claimed, s.unclaimed, s.leads = true, s.unclaimed-1, s.leads+1
			break
		}
	}
	p.board = slices.DeleteFunc(p.board, (*Schedule).allClaimed)
	return lead
}

// rideLocked claims the unclaimed entries for chunk i of tbl in every
// registered schedule that has neither failed nor been cancelled, and
// appends them to riders.
func (p *Pool) rideLocked(tbl *storage.Table, i int, riders []*entry) []*entry {
	for _, s := range p.board {
		if s.err != nil || s.opts.cancelled() {
			continue
		}
		for _, sk := range s.sinks {
			if sk.tbl != tbl {
				continue
			}
			run := s.entries[sk.lo:sk.hi]
			j, found := slices.BinarySearchFunc(run, i, func(e entry, i int) int { return cmp.Compare(e.chunk, i) })
			if found && !run[j].claimed {
				run[j].claimed, s.unclaimed = true, s.unclaimed-1
				riders = append(riders, &run[j])
			}
		}
	}
	p.board = slices.DeleteFunc(p.board, (*Schedule).allClaimed)
	return riders
}

// serve scans worker w's lead on one pin and, when the pin is transient or
// fails, claims the chunk's riders into riders. A failed pin fails the
// lead's and every rider's schedule, each error naming its entry's shard.
func (p *Pool) serve(w int, lead *entry, riders []*entry) []*entry {
	sp, t0 := lead.sink.chunks.start(lead.chunk)
	ch, release, err := lead.c.tbl.PinChunk(lead.chunk)
	if err != nil || ch.Transient() {
		p.mu.Lock()
		riders = p.rideLocked(lead.c.tbl, lead.chunk, riders)
		if err != nil {
			lead.failLocked(err)
			for _, r := range riders {
				r.failLocked(err)
			}
		}
		p.mu.Unlock()
	}
	if err != nil {
		lead.sink.chunks.end(sp, t0)
		return riders
	}
	defer release()
	lead.scan(w, ch, sp, t0)
	for _, r := range riders {
		sp, t0 := r.sink.chunks.start(r.chunk)
		r.scan(w, ch, sp, t0)
		r.sink.ridden.Add(1)
		obs.ChunkRidesTotal.Inc()
	}
	return riders
}

// RunOptions controls the physical execution of a query's schedule.
type RunOptions struct {
	// Parallelism is the number of the query's chunks pinned and scanned
	// concurrently as leads, across every shard of the query; it does not
	// cap its riders (see Pool). 0 or 1 selects the paper's single-threaded
	// execution; negative uses GOMAXPROCS workers. When Pool is set, it is
	// additionally capped by the pool's worker count.
	Parallelism int
	// Pool, when non-nil, serves the schedule on the shared scan board, not
	// a private one, bounding total concurrency across simultaneous queries
	// and letting their transient chunk loads serve each other.
	Pool *Pool
	// Ctx, when non-nil, cancels the execution: once the context is done
	// the board drains the schedule's unclaimed entries and skips its
	// riders, so a disconnected client's query releases the pool workers
	// instead of scanning to completion, and never cancels another query's
	// lead. Callers observe the cancellation via Ctx.Err(); a cancelled
	// run's partial result must be discarded.
	Ctx context.Context
	// Stats, when non-nil, receives decoder-level execution counters
	// (shared across workers; updated atomically).
	Stats *ExecStats
	// Trace, when non-nil, is the query's trace span: the schedule opens a
	// "shard i" child per shard, carrying its chunks' aggregated counters,
	// their summed scan time (busy_us) and per-chunk children (capped at
	// maxTraceChunks), with a "delta union" child for a live shard's union
	// table, and a "merge" child timing the one merge. Both also carry
	// chunks_ridden, their chunks scanned as riders. The shard spans
	// themselves cover the whole schedule, so busy_us is where a shard's own
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
// is added (AddShard). Run serves the whole list on one board with one
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

	// The board state, guarded by the serving pool's mu from register on:
	// leads counts the entries being served as this schedule's leads, up to
	// limit; every entry before next is claimed; done closes when pending
	// (the entries not yet complete) reaches 0; err is the first failure.
	limit, leads, next, unclaimed, pending int
	err                                    error
	done                                   chan struct{}

	// accs[w] is pool worker w's accumulator, made on its first scan of an
	// entry of the schedule, lead or rider, and touched by w alone.
	accs []*Accumulator
}

// entry is one chunk of the schedule: the binding that scans it, its index
// in that binding's table, the sealed users it skips, where its tallies
// land, and whether a worker has claimed it (guarded by the pool's mu).
type entry struct {
	c       *Compiled
	chunk   int
	skip    map[uint64]bool
	sink    *sink
	claimed bool
}

// sink is where one table's entries report: their schedule, the span their
// tallies aggregate on, with its per-chunk tracer, the shard a load error
// names, whether ExecStats counts them, and how many were scanned as riders.
// ExecStats counts sealed entries only; a union table's scan shows in the
// delta counters. A rider for a chunk of tbl is looked up in entries[lo:hi],
// which are in chunk order.
type sink struct {
	s      *Schedule
	chunks chunkTracer
	shard  int
	sealed bool
	ridden atomic.Int64
	tbl    *storage.Table
	lo, hi int
}

// NewSchedule starts an empty schedule run with opts.
func NewSchedule(opts RunOptions) *Schedule {
	return &Schedule{opts: opts}
}

// add appends the chunks of c's table that pruning keeps, in index order,
// reporting to a new sink on span, for the shard AddShard is adding.
func (s *Schedule) add(c *Compiled, skip map[uint64]bool, span *obs.Span, sealed bool) {
	sk := &sink{s: s, chunks: chunkTracer{parent: span}, shard: s.shards - 1, sealed: sealed, tbl: c.tbl, lo: len(s.entries)}
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
	sk.hi = len(s.entries)
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
// spans end once every entry is served, before the merge.
//
// Which worker scans an entry, and whether as a lead or a rider, is a race,
// and merge order is worker order; neither is observable: measure sums add
// exactly (int64 values in float64), min/max and counts are order-free, and
// Result sorts cohorts — the equivalence tests pin pooled, parallel,
// sharded and ridden runs bit-for-bit against a one-worker run.
func (s *Schedule) Run() (*Accumulator, error) {
	s.serve()
	for _, sk := range s.sinks {
		sk.chunks.parent.SetInt("busy_us", sk.chunks.busyNs.Load()/1000)
		sk.chunks.parent.SetInt("chunks_ridden", sk.ridden.Load())
		sk.chunks.parent.End()
	}
	if s.err != nil {
		return nil, s.err
	}
	m := s.opts.Trace.Child("merge")
	defer m.End()
	accs := slices.DeleteFunc(s.accs, func(a *Accumulator) bool { return a == nil })
	if len(accs) == 0 {
		return NewAccumulator(s.nAggs), nil
	}
	for _, a := range accs[1:] {
		accs[0].Merge(a)
	}
	return accs[0], nil
}

// serve registers the schedule on its pool, or, without one or when that
// pool is closed, on a private board of min(workers, entries) goroutines,
// and waits until every entry is complete.
func (s *Schedule) serve() {
	if len(s.entries) == 0 {
		return
	}
	p := s.opts.Pool
	if p == nil || !p.register(s) {
		p = newPool(min(s.opts.workers(), len(s.entries)))
		p.register(s)
		p.start()
		defer p.Close()
	}
	<-s.done
}

// allClaimed reports whether s has no unclaimed entry left, so it leaves
// the board.
func (s *Schedule) allClaimed() bool { return s.unclaimed == 0 }

// completeLocked records n of s's entries complete, served or drained, and
// ends Run's wait after the last.
func (s *Schedule) completeLocked(n int) {
	if s.pending -= n; s.pending == 0 {
		close(s.done)
	}
}

// failLocked records the failure of e's pin on its schedule, unless that
// already failed.
func (e *entry) failLocked(err error) {
	if s := e.sink.s; s.err == nil {
		s.err = fmt.Errorf("shard %d: %w", e.sink.shard, err)
	}
}

// scan folds e's chunk, pinned as ch, into worker w's accumulator and
// records the chunk's tallies; sp and t0 are its span and start.
func (e *entry) scan(w int, ch *storage.Chunk, sp *obs.Span, t0 time.Time) {
	s := e.sink.s
	if s.accs[w] == nil {
		s.accs[w] = NewAccumulator(s.nAggs)
	}
	st := e.c.scanPinned(ch, s.accs[w], e.skip)
	e.sink.chunks.end(sp, t0)
	s.record(e.sink, sp, st)
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
