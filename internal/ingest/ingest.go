// Package ingest is COHANA's live ingestion subsystem: it pairs the sealed,
// immutable, compressed storage tier (internal/storage) with per-shard delta
// stores that accept streaming activity rows, and per-shard compactors that
// periodically seal each delta into fresh compressed chunks.
//
// A live table is partitioned by user hash (storage.ShardOf) into N shards.
// Each shard owns its slice of the sealed tier, its own uncompressed delta
// log and its own compaction lifecycle, so a lagging shard's compaction
// cannot block ingestion or sealing on the others. Crash durability is one
// append-only CSV journal per table: a batch, whichever shards it spans, is
// one write and one fsync.
//
// The table's state is one immutable version — a generation and every
// shard's sealed tier and log — behind one atomic pointer. Writers (appends
// and compaction swaps, serialized on the journal lock) publish the next
// version copy-on-write with one Store; readers Load one and take no lock.
// A batch therefore becomes visible on all of its shards at once, and the
// generation, which advances by one per acknowledged batch and per
// compaction swap, names exactly one state: it is what result caches key on.
//
// Query execution runs one chunk schedule over every shard
// (plan.ExecuteShards): each shard's pruned sealed chunks and the chunks of
// its encoded union input (its delta rows with their users' sealed rows)
// fold into one accumulator per worker, merged once into an always-fresh
// result — users never span shards, so the merge needs no correction.
// Compaction — triggered per shard by a row-count threshold or by an
// explicit call — materializes the shard's sealed tier, linear-merges
// its delta in (Au, At, Ae) order, rebuilds the two-level-encoded chunks,
// atomically swaps the shard in and truncates the journal to the rows still
// in the deltas; shards compact independently and concurrently while appends
// and queries proceed.
package ingest

import (
	"context"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/activity"
	"repro/internal/cohort"
	"repro/internal/obs"
	"repro/internal/storage"
)

// DefaultAutoCompactRows is the per-shard delta row count that triggers
// background compaction when Config.AutoCompactRows is unset in contexts
// that want automatic sealing (the query server).
const DefaultAutoCompactRows = 256 * 1024

// Config parameterizes a live table.
type Config struct {
	// JournalPath, when non-empty, makes appends durable: every batch, at
	// any shard count, is journaled to exactly this path. Replay routes each
	// row to its shard under the current count, so no acknowledged append is
	// lost when the shard count changes. Open also reads, once, the
	// per-shard journals ("<JournalPath>.s<i>") and coordinator log
	// ("<JournalPath>.txn") older versions wrote, folds their committed rows
	// into JournalPath durably and removes them.
	JournalPath string
	// AutoCompactRows triggers background compaction of a shard once its
	// delta holds at least this many rows; 0 disables automatic compaction
	// (explicit Compact calls still work).
	AutoCompactRows int
	// ChunkSize is the target chunk size for compacted shards; 0 keeps the
	// sealed table's current chunk size.
	ChunkSize int
	// Shards is the target shard count. 0 keeps the sealed table's current
	// count; a differing count reshards the sealed tier at Open — the
	// migration path that turns a legacy single-shard file into an N-shard
	// table (and back).
	Shards int
	// InitialGen is the table's starting generation (0 means 1); the
	// catalog passes the previous incarnation's generation + 1 on reload so
	// generations stay monotonic across incarnations and cache keys never
	// collide.
	InitialGen uint64
	// Persist, when non-nil, durably stores a layout change before a freshly
	// compacted shard is swapped in (the server commits it over the table's
	// files); an error aborts the compaction with the old state intact. The
	// hook receives a LayoutDelta — the full new layout plus which shard
	// changed and how many of its chunks were actually rebuilt — so the
	// committer can persist incrementally: only the new chunk segments and
	// the manifest, not the table. Concurrent shard compactions serialize
	// their persist+swap steps, so every persisted layout is complete and
	// current.
	Persist func(storage.LayoutDelta) error
	// OnChange is called (outside the journal lock) after every
	// acknowledged append and compaction; the server invalidates cached
	// results here.
	OnChange func()
}

// ErrDuplicate reports an appended row that violates the activity primary
// key (Au, At, Ae) against the sealed tier, the delta, or its own batch.
type ErrDuplicate struct {
	User   string
	Time   int64
	Action string
}

func (e ErrDuplicate) Error() string {
	return fmt.Sprintf("duplicate activity tuple: user %q already performed %q at %d", e.User, e.Action, e.Time)
}

// ErrClosed reports operations on a closed table.
var ErrClosed = fmt.Errorf("ingest: table is closed")

// ErrBadRow reports an appended row that fails structural validation (wrong
// width, empty or NUL-bearing user/action) — a client error, distinct from
// server-side failures.
type ErrBadRow struct{ Reason string }

func (e ErrBadRow) Error() string { return "ingest: bad row: " + e.Reason }

// Table is one live table: N user-hash shards, each a sealed compressed
// tier plus a delta, published together as one version. All methods are
// safe for concurrent use.
type Table struct {
	cfg    Config
	schema *activity.Schema
	// cur is the published version. Readers Load it; writers Store its
	// successor while holding logMu.
	cur    atomic.Pointer[version]
	shards []*shard
	// persistMu serializes the persist+publish tail of shard compactions so
	// a persisted layout never contains a stale neighbor shard.
	persistMu sync.Mutex
	// logMu owns the journal and the shards' bookkeeping, and serializes
	// every publish. Lock order: persistMu, then logMu. Readers take
	// neither.
	logMu      sync.Mutex
	journal    *journal // nil when durability is disabled
	journalErr string   // the last failed journal rewrite, "" after a success
	// closed is set under logMu, so a holder of logMu sees it stable.
	closed atomic.Bool
	// compactWG counts in-flight compactions, background and explicit;
	// Close waits it out.
	compactWG sync.WaitGroup
}

// View is one shard of a published version, for query execution: the
// shard's sealed tier, its sorted delta (nil when empty) and the union
// input derived from both (nil when empty or when its build failed; the
// executor then builds it per query). All parts are immutable.
type View struct {
	Sealed *storage.Table
	Delta  *activity.Table
	Union  *cohort.UnionDelta
}

// Open wraps a sealed single table in a live table; see OpenSharded.
func Open(sealed *storage.Table, cfg Config) (*Table, error) {
	if sealed == nil {
		return nil, fmt.Errorf("ingest: nil sealed table")
	}
	return OpenSharded(storage.SingleShard(sealed), cfg)
}

// OpenSharded wraps a sealed sharded table in a live table, resharding it
// first when cfg.Shards differs from the stored count, and replaying the
// journal (if configured) into the shard deltas so no acknowledged append
// is lost across a restart or a shard-count change. Close the table to
// release the journal and wait out any background compaction.
func OpenSharded(sealed *storage.Sharded, cfg Config) (*Table, error) {
	if sealed == nil {
		return nil, fmt.Errorf("ingest: nil sealed table")
	}
	if cfg.Shards > 0 && cfg.Shards != sealed.NumShards() {
		resharded, err := reshard(sealed, cfg)
		if err != nil {
			return nil, err
		}
		if cfg.Persist != nil {
			// Make the resharded layout durable before serving from it.
			// Resharding rebuilds everything: a full-layout delta.
			if err := cfg.Persist(storage.FullLayout(resharded)); err != nil {
				return nil, fmt.Errorf("ingest: persisting resharded table: %w", err)
			}
		}
		sealed = resharded
	}
	n := sealed.NumShards()
	t := &Table{cfg: cfg, schema: sealed.Schema(), shards: make([]*shard, n)}
	v := &version{gen: max(cfg.InitialGen, 1), shards: make([]*shardState, n)}
	for i := range t.shards {
		t.shards[i] = &shard{idx: i, parent: t, logKeys: make(map[string]struct{})}
		v.shards[i] = &shardState{sealed: sealed.Shard(i)}
	}
	t.cur.Store(v)
	if cfg.JournalPath != "" {
		if err := t.openJournal(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// reshard redistributes a sealed tier over cfg.Shards user-hash partitions:
// every shard is decoded, the rows re-sorted globally and rebuilt. It runs
// once, at open, before any concurrency exists — mid-life shard counts are
// immutable.
func reshard(sealed *storage.Sharded, cfg Config) (*storage.Sharded, error) {
	rows, err := sealed.Materialize()
	if err != nil {
		return nil, fmt.Errorf("ingest: resharding: %w", err)
	}
	chunkSize := cfg.ChunkSize
	if chunkSize <= 0 {
		chunkSize = sealed.ChunkSize()
	}
	out, err := storage.BuildSharded(rows, cfg.Shards, storage.Options{ChunkSize: chunkSize})
	if err != nil {
		return nil, fmt.Errorf("ingest: resharding: %w", err)
	}
	return out, nil
}

// openJournal replays the journal — and, once, any legacy per-shard
// journals with their coordinator log — into the shard logs, routing each
// row to its owning shard under the current count, then rewrites the journal
// to exactly the restored rows (one committed batch, dropping a torn tail and
// rows the sealed tier already holds) and removes the legacy files. The
// rewrite is durable before any legacy file is deleted, so a crash at any
// point leaves every acknowledged row in at least one file — replay is
// idempotent, duplicates are dropped. Legacy prepared multi-shard batches
// replay only when the coordinator log committed them. It runs before the
// table is shared, so it fills the initial version's logs in place.
func (t *Table) openJournal() error {
	base := t.cfg.JournalPath
	legacy, err := legacyJournalFiles(base)
	if err != nil {
		return err
	}
	committed, err := readTxnCommits(base + ".txn")
	if err != nil {
		return err
	}
	v := t.cur.Load()
	var restored []Row
	for _, path := range append([]string{base}, legacy...) {
		rows, err := readJournal(path, t.schema, committed)
		if err != nil {
			return err
		}
		for _, row := range rows {
			user, ts, action := row.pk(t.schema)
			idx := storage.ShardOf(user, len(t.shards))
			s, st := t.shards[idx], v.shards[idx]
			key := pkKey(user, ts, action)
			// Rows already sealed (crash between the compacted-table swap
			// and the journal truncation) or replayed twice are dropped,
			// keeping replay idempotent.
			if _, dup := s.logKeys[key]; dup {
				s.replayDropped++
				continue
			}
			sealed, err := st.sealedHasPK(t.schema, user, ts, action)
			if err != nil {
				return fmt.Errorf("ingest: replaying journal %s: %w", path, err)
			}
			if sealed {
				s.replayDropped++
				continue
			}
			st.log = append(st.log, row)
			s.logKeys[key] = struct{}{}
			s.replayedRows++
			restored = append(restored, row)
		}
	}
	if t.journal, err = openJournalWith(base, t.schema, restored); err != nil {
		return err
	}
	// A legacy file that survives a failed removal is harmless: its rows
	// are now in the journal or the sealed tier, and replay drops them.
	for _, path := range legacy {
		_ = os.Remove(path)
	}
	_ = os.Remove(base + ".txn")
	return nil
}

// Schema returns the table schema (shared by all shards and tiers).
func (t *Table) Schema() *activity.Schema { return t.schema }

// NumShards returns the shard count, fixed for the table's lifetime.
func (t *Table) NumShards() int { return len(t.shards) }

// Snapshot returns every shard's view of the published version, the input
// of a query's one chunk schedule (plan.ExecuteShards), together with that
// version's generation. Both come from one atomic load, so the generation
// names exactly the state the views hold. The first reader of a shard's new state sorts its delta and builds
// its union input; later readers share them.
func (t *Table) Snapshot() ([]View, uint64) {
	v := t.cur.Load()
	out := make([]View, len(v.shards))
	for i, st := range v.shards {
		out[i] = st.view()
	}
	return out, v.gen
}

// Views returns every shard's view of the published version; see Snapshot.
func (t *Table) Views() []View {
	views, _ := t.Snapshot()
	return views
}

// SealedSharded assembles the published sealed tier of every shard. The
// per-shard tables are immutable; the assembly is a point-in-time layout.
func (t *Table) SealedSharded() *storage.Sharded {
	return t.cur.Load().layout(-1, nil)
}

// next returns a copy of v one generation on, for a writer to replace the
// states of the shards it touches before it publishes the copy.
func (v *version) next() *version {
	return &version{gen: v.gen + 1, shards: slices.Clone(v.shards)}
}

// layout composes v's sealed layout, substituting shard replace (when >= 0)
// with tbl — the input of a compaction's Persist call.
func (v *version) layout(replace int, tbl *storage.Table) *storage.Sharded {
	tables := make([]*storage.Table, len(v.shards))
	for i, st := range v.shards {
		tables[i] = st.sealed
	}
	if replace >= 0 {
		tables[replace] = tbl
	}
	out, err := storage.NewSharded(tables)
	if err != nil {
		// All shards share t.schema by construction.
		panic("ingest: inconsistent shard schemas: " + err.Error())
	}
	return out
}

// ChunkSize returns the configured target chunk size, shared by every
// shard — a cheap accessor for the serving catalog, which must not assemble
// a full layout per stats request.
func (t *Table) ChunkSize() int {
	return t.cur.Load().shards[0].sealed.ChunkSize()
}

// Gen returns the published version's generation. It advances by one per
// acknowledged batch and per compaction swap, and a reload continues it.
func (t *Table) Gen() uint64 { return t.cur.Load().gen }

// DeltaRows returns the number of un-compacted rows across all shards of
// the published version.
func (t *Table) DeltaRows() int {
	n := 0
	for _, st := range t.cur.Load().shards {
		n += len(st.log)
	}
	return n
}

// Append admits a batch of rows into the delta, each row routed to its
// user's shard. The whole batch is validated (shape and primary keys
// against every involved shard) and journaled — one write and one fsync,
// however many shards it spans — before any row becomes visible, so a
// failed Append admits nothing and a plain retry of the same batch can
// succeed. The batch then becomes visible on all of its shards in one
// publish. Appending may trigger background compaction of any shard whose
// delta crosses the configured threshold.
func (t *Table) Append(rows []Row) error {
	if len(rows) == 0 {
		return nil
	}
	start := time.Now()
	n := len(t.shards)
	groups := make([][]Row, n)
	for _, row := range rows {
		if len(row.Strs) != t.schema.NumCols() || len(row.Ints) != t.schema.NumCols() {
			return ErrBadRow{Reason: fmt.Sprintf("wrong width for schema (%d columns)", t.schema.NumCols())}
		}
		user, _, action := row.pk(t.schema)
		if user == "" || action == "" {
			return ErrBadRow{Reason: "user and action must be non-empty"}
		}
		if strings.ContainsRune(user, 0) || strings.ContainsRune(action, 0) {
			// NUL is pkKey's field separator; admitting it would let two
			// distinct primary keys collide on one key.
			return ErrBadRow{Reason: "user and action must not contain NUL bytes"}
		}
		idx := storage.ShardOf(user, n)
		groups[idx] = append(groups[idx], row)
	}
	t.logMu.Lock()
	triggers, err := t.appendLocked(rows, groups)
	t.logMu.Unlock()
	if err != nil {
		return err
	}
	for _, s := range triggers {
		//lint:allow goroutinepool fire-and-forget compaction, bounded to one in flight per shard by the compacting flag
		go s.backgroundCompact()
	}
	obs.AppendSeconds.ObserveSince(start)
	obs.AppendBatchRows.Observe(float64(len(rows)))
	obs.AppendRowsTotal.Add(int64(len(rows)))
	obs.AppendBatchesTotal.Inc()
	t.notifyChange()
	return nil
}

// appendLocked validates, journals and publishes one routed batch and
// returns the shards whose background compaction must be spawned; t.logMu
// must be held. Readers never wait on it: they keep reading the published
// version while the journal writes and syncs, and the batch appears on all
// of its shards with the one Store that publishes its version. Duplicate
// rows within the batch share a user and therefore a shard, so the
// per-shard batch check is complete.
func (t *Table) appendLocked(rows []Row, groups [][]Row) ([]*shard, error) {
	if t.closed.Load() {
		return nil, ErrClosed
	}
	cur := t.cur.Load()
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		if err := t.shards[i].validate(cur.shards[i], g); err != nil {
			return nil, err
		}
	}
	if t.journal != nil {
		if err := t.journal.append(t.schema, rows); err != nil {
			return nil, err
		}
	}
	next := cur.next()
	var triggers []*shard
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		old := cur.shards[i]
		st := &shardState{sealed: old.sealed, log: append(old.log, g...)}
		next.shards[i] = st
		if t.shards[i].admit(g, len(st.log)) {
			triggers = append(triggers, t.shards[i])
		}
	}
	t.cur.Store(next)
	return triggers, nil
}

// CompactContext synchronously seals every shard's delta, compacting shards
// concurrently; shards with empty deltas are untouched, so a compaction's
// cost scales with where the fresh rows actually landed, not with the table
// size. The first shard error is returned. Cancelling ctx stops the fan-out
// between shards and returns ctx.Err(); shard compactions already started
// run to completion (a shard seal is an atomic commit, not interruptible
// mid-swap), so a cancelled compaction leaves every shard either fully
// sealed or untouched.
func (t *Table) CompactContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(t.shards) == 1 {
		return t.shards[0].compact()
	}
	errs := make([]error, len(t.shards))
	var wg sync.WaitGroup
	for i, s := range t.shards {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		//lint:allow goroutinepool fan-out bounded by the shard count and joined below; the query pool is not plumbed into compaction
		go func(i int, s *shard) {
			defer wg.Done()
			errs[i] = s.compact()
		}(i, s)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("ingest: shard %d: %w", i, err)
		}
	}
	return nil
}

func (t *Table) notifyChange() {
	if t.cfg.OnChange != nil {
		t.cfg.OnChange()
	}
}

// Close waits out any in-flight compaction — background or explicit — and
// releases the journal. Appends and compactions after Close fail with
// ErrClosed; queries against views already taken stay valid. After Close
// returns, the persisted table files and the journal are quiescent, which
// the catalog's reload path depends on.
func (t *Table) Close() error {
	t.logMu.Lock()
	t.closed.Store(true)
	t.logMu.Unlock()
	t.compactWG.Wait()
	t.logMu.Lock()
	defer t.logMu.Unlock()
	if t.journal == nil {
		return nil
	}
	return t.journal.close()
}

// rewriteJournalLocked truncates the journal to exactly the rows still in
// v's logs, after a compaction durably persisted a sealed tier; t.logMu must
// be held. A failure does not fail the compaction — the swap already
// happened and is correct; leftover sealed rows in the journal are dropped
// as duplicates on replay. It is recorded in Stats instead, because after a
// failed reopen the journal is disabled and durability is degraded until a
// reload.
func (t *Table) rewriteJournalLocked(v *version) {
	var rows []Row
	for _, st := range v.shards {
		rows = append(rows, st.log...)
	}
	if err := t.journal.rewrite(t.schema, rows); err != nil {
		t.journalErr = err.Error()
	} else {
		t.journalErr = ""
	}
}

// ShardStats is a point-in-time snapshot of one shard's ingestion state.
type ShardStats struct {
	Shard        int    `json:"shard"`
	SealedRows   int    `json:"sealedRows"`
	SealedUsers  int    `json:"sealedUsers"`
	SealedChunks int    `json:"sealedChunks"`
	DeltaRows    int    `json:"deltaRows"`
	Appends      uint64 `json:"appends"`
	AppendedRows uint64 `json:"appendedRows"`
	Compactions  uint64 `json:"compactions"`
	// ChunksRebuilt / ChunksReused count the chunks this shard's compactions
	// re-encoded vs carried over untouched (cumulative); the LastCompact
	// pair is the most recent compaction's split. Reused chunks cost no
	// re-encoding and no segment writes — the chunk-granularity observable.
	ChunksRebuilt            uint64 `json:"chunksRebuilt"`
	ChunksReused             uint64 `json:"chunksReused"`
	LastCompactChunksRebuilt int    `json:"lastCompactChunksRebuilt"`
	LastCompactChunksReused  int    `json:"lastCompactChunksReused"`
	// LastCompactMillis is the wall time of the shard's most recent
	// compaction.
	LastCompactMillis int64 `json:"lastCompactMillis"`
	// LastCompactError is the most recent compaction failure, empty after a
	// success — the only trace a failing background compaction leaves.
	LastCompactError string `json:"lastCompactError,omitempty"`
	// ReplayedRows / ReplayDroppedRows describe the journal replay performed
	// by Open: rows restored into the shard's delta, and rows skipped
	// because the sealed tier already held them.
	ReplayedRows      uint64 `json:"replayedRows"`
	ReplayDroppedRows uint64 `json:"replayDroppedRows"`
	Compacting        bool   `json:"compacting"`
}

// Stats is a point-in-time snapshot of the table's ingestion state: the
// across-shard aggregate plus the per-shard breakdown.
type Stats struct {
	SealedRows   int    `json:"sealedRows"`
	SealedUsers  int    `json:"sealedUsers"`
	SealedChunks int    `json:"sealedChunks"`
	DeltaRows    int    `json:"deltaRows"`
	Generation   uint64 `json:"generation"`
	Appends      uint64 `json:"appends"`
	AppendedRows uint64 `json:"appendedRows"`
	Compactions  uint64 `json:"compactions"`
	// ChunksRebuilt / ChunksReused aggregate the chunk-granular compaction
	// counters across shards.
	ChunksRebuilt uint64 `json:"chunksRebuilt"`
	ChunksReused  uint64 `json:"chunksReused"`
	// LastCompactMillis is the wall time of the most recent compaction on
	// any shard.
	LastCompactMillis int64 `json:"lastCompactMillis"`
	// LastCompactError is the most recent compaction failure on any shard.
	LastCompactError string `json:"lastCompactError,omitempty"`
	// LastJournalError is a degraded-durability warning: a compaction
	// succeeded but its journal rewrite failed, so appends may be rejected
	// until the table is reloaded.
	LastJournalError  string `json:"lastJournalError,omitempty"`
	ReplayedRows      uint64 `json:"replayedRows"`
	ReplayDroppedRows uint64 `json:"replayDroppedRows"`
	JournalBytes      int64  `json:"journalBytes"`
	Compacting        bool   `json:"compacting"`
	// Shards is the shard count; PerShard the per-shard breakdown (omitted
	// for single-shard tables, whose aggregate is the whole story).
	Shards   int          `json:"shards"`
	PerShard []ShardStats `json:"perShard,omitempty"`
}

// Stats snapshots the counters of every shard and aggregates them, against
// one published version.
func (t *Table) Stats() Stats {
	t.logMu.Lock()
	defer t.logMu.Unlock()
	v := t.cur.Load()
	agg := Stats{Shards: len(t.shards), Generation: v.gen, LastJournalError: t.journalErr}
	if t.journal != nil {
		agg.JournalBytes = t.journal.size()
	}
	for i, s := range t.shards {
		st := s.stats(v.shards[i])
		agg.SealedRows += st.SealedRows
		agg.SealedUsers += st.SealedUsers
		agg.SealedChunks += st.SealedChunks
		agg.DeltaRows += st.DeltaRows
		agg.Appends += st.Appends
		agg.AppendedRows += st.AppendedRows
		agg.Compactions += st.Compactions
		agg.ChunksRebuilt += st.ChunksRebuilt
		agg.ChunksReused += st.ChunksReused
		if st.LastCompactMillis > agg.LastCompactMillis {
			agg.LastCompactMillis = st.LastCompactMillis
		}
		if st.LastCompactError != "" {
			agg.LastCompactError = st.LastCompactError
		}
		agg.ReplayedRows += st.ReplayedRows
		agg.ReplayDroppedRows += st.ReplayDroppedRows
		agg.Compacting = agg.Compacting || st.Compacting
		if len(t.shards) > 1 {
			agg.PerShard = append(agg.PerShard, st)
		}
	}
	return agg
}
