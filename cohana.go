// Package cohana is the public API of this repository: a cohort query
// engine reproducing "Cohort Query Processing" (Jiang, Cai, Chen, Jagadish,
// Ooi, Tan, Tung — VLDB 2016).
//
// The engine stores activity tables (user, time, action + dimensions and
// measures) in a compressed, chunked, columnar format and evaluates cohort
// queries written in the paper's extended SQL:
//
//	eng, _ := cohana.NewEngine(table, cohana.Options{})
//	out, _ := eng.Query(ctx, `
//	    SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent
//	    FROM GameActions
//	    BIRTH FROM action = "launch" AND role = "dwarf"
//	    AGE ACTIVITIES IN action = "shop"
//	    COHORT BY country`)
//	fmt.Print(out.Cohort)
//
// Mixed queries (Section 3.5) wrap a cohort sub-query in a plain SQL outer
// query, and their Output carries Mixed instead of Cohort:
//
//	WITH cohorts AS (SELECT ... COHORT BY country)
//	SELECT country, AGE, spent FROM cohorts
//	WHERE country IN ["Australia", "China"] ORDER BY spent DESC LIMIT 10
//
// Either form prefixed with EXPLAIN reports the optimized plan in
// Output.Explain; EXPLAIN ANALYZE also executes it and appends the measured
// span tree. Engine.Prepare compiles any of these once into a Stmt that
// Stmt.Run executes against a Snapshot; Engine.Query is Prepare plus Run.
//
// Activity tables come from cohana.ReadCSV, the cohana.Generate synthetic
// workload, or row-by-row loading with cohana.NewActivityTable + Append.
package cohana

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/activity"
	"repro/internal/cohort"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Re-exported building blocks. The internal packages carry the
// implementation; these aliases form the supported public surface.
type (
	// Schema describes an activity table's columns.
	Schema = activity.Schema
	// Col is one column definition.
	Col = activity.Col
	// ActivityTable is an uncompressed, row-appendable activity table.
	ActivityTable = activity.Table
	// Result is a cohort query result relation.
	Result = cohort.Result
	// Row is one (cohort, age) bucket of a Result.
	Row = cohort.Row
	// Query is the programmatic (parsed) form of a cohort query.
	Query = cohort.Query
	// CohortKey is one COHORT BY attribute.
	CohortKey = cohort.CohortKey
	// AggSpec is one aggregate of the SELECT list.
	AggSpec = cohort.AggSpec
	// GenConfig parameterizes the synthetic workload generator.
	GenConfig = gen.Config
	// Pool is a bounded worker pool shared by concurrent query executions;
	// see Options.Pool.
	Pool = cohort.Pool
	// PlanCache is an LRU of compiled query plans keyed by normalized query
	// text; see Options.PlanCache.
	PlanCache = plan.Cache
	// PlanCacheStats snapshots plan-cache effectiveness counters.
	PlanCacheStats = plan.CacheStats
)

// NewPool starts a shared execution pool; workers <= 0 selects GOMAXPROCS.
// Close it when no engine routes queries through it anymore.
func NewPool(workers int) *Pool { return cohort.NewPool(workers) }

// NewPlanCache creates a compiled-plan cache holding at most capacity plans;
// 0 selects the default capacity, negative disables caching. Share one cache
// across engines serving the same table (e.g. per-request engines over one
// live table) via Options.PlanCache so repeat queries skip the
// parse → validate → optimize → compile front end.
func NewPlanCache(capacity int) *PlanCache { return plan.NewCache(capacity) }

// Column types.
const (
	TypeString = activity.TypeString
	TypeInt    = activity.TypeInt
	TypeTime   = activity.TypeTime
)

// Column roles.
const (
	KindUser    = activity.KindUser
	KindTime    = activity.KindTime
	KindAction  = activity.KindAction
	KindDim     = activity.KindDim
	KindMeasure = activity.KindMeasure
)

// Aggregate functions for programmatic queries.
const (
	Sum       = cohort.Sum
	Count     = cohort.Count
	Avg       = cohort.Avg
	Min       = cohort.Min
	Max       = cohort.Max
	UserCount = cohort.UserCount
)

// Age and time-bin units.
const (
	Day   = cohort.Day
	Week  = cohort.Week
	Month = cohort.Month
)

// NewSchema validates a column list into a Schema.
func NewSchema(cols []Col) (*Schema, error) { return activity.NewSchema(cols) }

// GameSchema returns the paper's mobile-game schema (player, time, action,
// country, city, role, session, gold).
func GameSchema() *Schema { return activity.GameSchema() }

// PaperSchema returns the schema of the paper's Table 1 example.
func PaperSchema() *Schema { return activity.PaperSchema() }

// PaperTable1 returns the ten example tuples of the paper's Table 1.
func PaperTable1() *ActivityTable { return activity.PaperTable1() }

// NewActivityTable creates an empty activity table for schema. Append rows
// with (*ActivityTable).Append; NewEngine sorts and validates.
func NewActivityTable(schema *Schema) *ActivityTable { return activity.NewTable(schema) }

// ReadCSV loads an activity table whose header matches schema.
func ReadCSV(r io.Reader, schema *Schema) (*ActivityTable, error) {
	return activity.ReadCSV(r, schema)
}

// WriteCSV writes an activity table with a header row.
func WriteCSV(w io.Writer, t *ActivityTable) error { return activity.WriteCSV(w, t) }

// Generate synthesizes a game-activity workload with the shape of the
// paper's dataset (see internal/gen for the behavioral model).
func Generate(cfg GenConfig) *ActivityTable { return gen.Generate(cfg) }

// Options configures an Engine.
type Options struct {
	// ChunkSize is the target activity tuples per storage chunk; 0 selects
	// the paper's 256K default.
	ChunkSize int
	// Shards is the number of user-hash partitions of the table. Each shard
	// owns its own chunks, delta store and compaction lifecycle, and a query
	// runs one chunk schedule over every shard; results are bit-identical to
	// an unsharded table. The table keeps one journal whatever the count (see
	// Journal), so a batch spanning shards is still one fsync. 0 or 1 keeps
	// a single shard; Save writes the same
	// manifest-plus-segments layout at any count, and opening an existing
	// table with a differing count reshards it.
	Shards int
	// Parallelism is the number of chunks processed concurrently: 0 or 1
	// single-threaded (the paper's setting), negative for GOMAXPROCS.
	Parallelism int
	// Pool optionally routes chunk work through a shared bounded worker
	// pool, so several engines (or concurrent queries on one engine) share
	// one set of workers. The query server uses this to bound total
	// chunk-scan concurrency across requests.
	Pool *Pool
	// Journal, when non-empty, makes Append durable: every appended row is
	// synced to this append-only CSV file before acknowledgement, and the
	// file is replayed on NewEngine/Open so a restart loses nothing.
	Journal string
	// AutoCompactRows triggers background compaction of the live delta once
	// it holds at least this many rows; 0 disables automatic compaction
	// (explicit Compact calls still seal the delta).
	AutoCompactRows int
	// PlanCache, when non-nil, is the compiled-plan cache this engine
	// prepares and executes query text through. Nil gives the engine a
	// private cache of default capacity; callers who construct engines per
	// request over one shared table (as the query server does) should pass
	// one shared cache so plans survive across engines. Shard compactions
	// invalidate per shard via binding identity; a table reload requires a
	// fresh cache (or Reset).
	PlanCache *PlanCache
	// ChunkCacheBytes, when positive, sets the process-wide chunk cache
	// budget (see storage.DefaultChunkCache) before the table opens. 0
	// leaves the current budget untouched (unbounded unless someone set
	// one); it is a process-wide knob, shared by every lazily opened table.
	ChunkCacheBytes int64
}

func (o Options) ingestConfig() ingest.Config {
	return ingest.Config{
		JournalPath:     o.Journal,
		AutoCompactRows: o.AutoCompactRows,
		ChunkSize:       o.ChunkSize,
		Shards:          o.Shards,
	}
}

func (o Options) planCacheOrNew() *plan.Cache {
	if o.PlanCache != nil {
		return o.PlanCache
	}
	return plan.NewCache(0)
}

// Engine is a COHANA instance over one live activity table, partitioned by
// user hash into one or more shards. Each shard pairs a sealed, compressed
// tier with an uncompressed delta that Append feeds; a query runs one chunk
// schedule over every shard's two tiers, so appended rows are visible
// immediately. Compact seals the dirty shards' deltas into fresh compressed
// chunks, shard by shard, concurrently.
type Engine struct {
	live *ingest.Table
	opts Options
	// planCache holds compiled plans for query text served by this engine
	// (Options.PlanCache, or a private default-capacity cache).
	planCache *plan.Cache
	// initErr records a journal-open failure from EngineForTable, whose
	// signature cannot return it; write operations fail with it rather than
	// silently losing the durability the caller asked for.
	initErr error
}

// NewEngine compresses t into the COHANA storage format, partitioned into
// Options.Shards user-hash shards (per-shard builds run concurrently). The
// table is sorted by (user, time, action) if needed; a primary-key violation
// is an error.
func NewEngine(t *ActivityTable, opts Options) (*Engine, error) {
	if !t.Sorted() {
		if err := t.SortByPK(); err != nil {
			return nil, err
		}
	}
	st, err := storage.BuildSharded(t, opts.Shards, storage.Options{ChunkSize: opts.ChunkSize})
	if err != nil {
		return nil, err
	}
	cfg := opts.ingestConfig()
	cfg.Shards = 0 // already built at the requested count; no reshard pass
	live, err := ingest.OpenSharded(st, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{live: live, opts: opts, planCache: opts.planCacheOrNew()}, nil
}

// Open loads an engine from a file written by Save — either a legacy
// single-table .cohana file (served as a 1-shard table) or a shard manifest
// with its segments — replaying the journal (if Options.Journal is set) into
// the live deltas. A non-zero Options.Shards differing from the stored
// count reshards the table at open.
//
// Tables open lazily: Open reads only the manifest, and chunk payloads load
// on first touch through the process-wide chunk cache, so cold start is
// O(manifest) and resident memory is bounded by the cache budget rather
// than the table size.
func Open(path string, opts Options) (*Engine, error) {
	if opts.ChunkCacheBytes > 0 {
		storage.DefaultChunkCache().SetBudget(opts.ChunkCacheBytes)
	}
	st, err := storage.ReadShardedWith(path, storage.ReadOptions{Lazy: true})
	if err != nil {
		return nil, err
	}
	live, err := ingest.OpenSharded(st, opts.ingestConfig())
	if err != nil {
		return nil, err
	}
	return &Engine{live: live, opts: opts, planCache: opts.planCacheOrNew()}, nil
}

// EngineForTable wraps an already-compressed storage table in an Engine.
// The table is shared, not copied: compressed tables are immutable, so any
// number of engines (and concurrent queries) may serve from one table. Rows
// appended through this engine live in its private delta.
func EngineForTable(tbl *storage.Table, opts Options) *Engine {
	live, err := ingest.Open(tbl, opts.ingestConfig())
	if err != nil {
		// Only a journal can fail to open. Queries still serve from the
		// sealed tier, but writes must not pretend to be durable: Append,
		// Compact and Save return this error.
		live, _ = ingest.Open(tbl, ingest.Config{})
		return &Engine{live: live, opts: opts, planCache: opts.planCacheOrNew(), initErr: err}
	}
	return &Engine{live: live, opts: opts, planCache: opts.planCacheOrNew()}
}

// EngineForIngest wraps a live ingest-managed table in an Engine. The query
// server's catalog uses this so every request serves from one shared live
// table — appends, compactions and queries all observe the same state.
func EngineForIngest(lt *ingest.Table, opts Options) *Engine {
	return &Engine{live: lt, opts: opts, planCache: opts.planCacheOrNew()}
}

// Save persists the compressed table: the legacy single-file format for
// 1-shard engines, a shard manifest plus per-shard segment files otherwise.
// A non-empty delta is compacted first, so the written files contain every
// appended row; ctx cancels that compaction as it does Compact.
func (e *Engine) Save(ctx context.Context, path string) error {
	if e.initErr != nil {
		return e.initErr
	}
	if e.live.DeltaRows() > 0 {
		if err := e.live.CompactContext(ctx); err != nil {
			return err
		}
	}
	return storage.WriteShardedFile(path, e.live.SealedSharded())
}

// Schema returns the engine's activity schema.
func (e *Engine) Schema() *Schema { return e.live.Schema() }

// Append appends one activity row (values in schema order, with the same
// coercions as ActivityTable.Append) to the live delta. The row is visible
// to queries immediately and durable when Options.Journal is set. A row
// violating the (user, time, action) primary key is rejected.
func (e *Engine) Append(values ...any) error {
	if e.initErr != nil {
		return e.initErr
	}
	row, err := ingest.RowFromValues(e.live.Schema(), values...)
	if err != nil {
		return err
	}
	return e.live.Append([]ingest.Row{row})
}

// Compact seals the live delta into fresh compressed chunks, merging it with
// the sealed tier in (user, time, action) order. Queries before, during and
// after compaction return identical results. When ctx is done, shards not
// yet compacting are skipped and ctx's error is returned; shards already
// sealing finish (each shard seal is an atomic commit).
func (e *Engine) Compact(ctx context.Context) error {
	if e.initErr != nil {
		return e.initErr
	}
	return e.live.CompactContext(ctx)
}

// DeltaRows returns the number of appended rows not yet compacted.
func (e *Engine) DeltaRows() int { return e.live.DeltaRows() }

// Close releases the journal and waits for background compaction. Engines
// without a journal or auto-compaction need not be closed.
func (e *Engine) Close() error { return e.live.Close() }

// Stats describes the stored table.
type Stats struct {
	Rows        int
	Users       int
	Chunks      int
	ChunkSize   int
	EncodedSize int // serialized bytes (the Figure 7 storage metric)
	DeltaRows   int // appended rows awaiting compaction
	Shards      int // user-hash partition count
}

// Stats returns storage statistics for the sealed tier plus the live delta
// row count, aggregated across shards.
func (e *Engine) Stats() Stats {
	sealed := e.live.SealedSharded()
	s := Stats{
		Rows:        sealed.NumRows(),
		Users:       sealed.NumUsers(),
		Chunks:      sealed.NumChunks(),
		ChunkSize:   sealed.ChunkSize(),
		EncodedSize: sealed.EncodedSize(),
		Shards:      sealed.NumShards(),
	}
	s.DeltaRows = e.live.DeltaRows()
	s.Rows += s.DeltaRows
	return s
}

// ShardStats returns the per-shard ingestion breakdown.
func (e *Engine) ShardStats() []ingest.ShardStats { return e.live.Stats().PerShard }

// Snapshot pins one published table version for query execution. Every
// query run through a snapshot sees exactly the state captured at
// Snapshot() time — appends and compactions that land afterwards are
// invisible to it, and a batch is in it on all of its shards or on none —
// which is what lets the query server compute a cache fingerprint and
// execute against the very same state the fingerprint describes.
type Snapshot struct {
	eng   *Engine
	views []ingest.View
	gen   uint64
}

// Snapshot captures the published table version with one atomic load; it
// never waits on an append or a compaction. Snapshots are cheap (immutable
// views are shared, not copied) and need no release.
func (e *Engine) Snapshot() *Snapshot {
	views, gen := e.live.Snapshot()
	return &Snapshot{eng: e, views: views, gen: gen}
}

// shardInputs adapts the pinned views as the input of one chunk schedule
// over every shard.
func (s *Snapshot) shardInputs() []plan.ShardInput {
	shards := make([]plan.ShardInput, len(s.views))
	for i, v := range s.views {
		shards[i] = plan.ShardInput{
			Sealed: v.Sealed,
			Delta:  v.Delta,
			Union:  v.Union,
		}
	}
	return shards
}

// execOptions threads the engine's parallelism and pool, ctx and an
// optional trace root into the executor.
func (s *Snapshot) execOptions(ctx context.Context, trace *TraceSpan) plan.ExecOptions {
	return plan.ExecOptions{
		Parallelism: s.eng.opts.Parallelism,
		Pool:        s.eng.opts.Pool,
		Ctx:         ctx,
		Trace:       trace,
	}
}

// Execute runs a programmatic cohort query against the snapshot as one
// chunk schedule over every shard, each sealed tier unioned with its live
// delta. When ctx is done the fan-out stops early (releasing any shared pool
// workers) and ctx's error is returned.
func (s *Snapshot) Execute(ctx context.Context, q *Query) (*Result, error) {
	return plan.ExecuteShards(q, s.shardInputs(), s.execOptions(ctx, nil))
}

// Fingerprint is the snapshot's table generation in decimal, as a
// cache-key component: two snapshots return equal strings exactly when the
// table saw no append and no compaction between them. The key does not
// depend on src — any state change invalidates every cached result of the
// table — so computing it parses, prepares and prunes nothing. src stays in
// the signature so callers key every query the same way.
func (s *Snapshot) Fingerprint(src string) string {
	return strconv.FormatUint(s.gen, 10)
}

// validateSelectList checks that plain attributes in the SELECT list are
// cohort attributes: the output relation of γc only carries (L, age, size,
// aggregates). It is statement-level validation — Prepare runs it once and
// executions of a prepared statement skip it.
func validateSelectList(stmt *parser.CohortStmt) error {
	q := stmt.Query
	for _, item := range stmt.Select {
		if item.Kind != parser.KindAttr {
			continue
		}
		found := false
		for _, k := range q.CohortBy {
			if strings.EqualFold(k.Col, item.Name) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("cohana: selected attribute %q is not in COHORT BY", item.Name)
		}
	}
	return nil
}

// SelectTuples materializes σg(σb(D)) as global row indices over the sealed
// tier, exposing the tuple-level semantics of the two selection operators
// (Definitions 4-5). For sharded tables the indices are global over the
// shard-order concatenation of the sealed tiers. Rows still in the live
// delta are not covered; Compact first to include them.
func (e *Engine) SelectTuples(birthAction string, birthCond, ageCond expr.Expr) ([]int, error) {
	sealed := e.live.SealedSharded()
	var out []int
	offset := 0
	for i := 0; i < sealed.NumShards(); i++ {
		st := sealed.Shard(i)
		rows, err := cohort.SelectTuples(st, birthAction, birthCond, ageCond, cohort.Day)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			out = append(out, offset+r)
		}
		offset += st.NumRows()
	}
	return out, nil
}
