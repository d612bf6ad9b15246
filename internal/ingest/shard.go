package ingest

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/activity"
	"repro/internal/cohort"
	"repro/internal/obs"
	"repro/internal/storage"
)

// version is one immutable state of the whole table: its generation and
// every shard's state. Writers publish the next version with one Store;
// a reader that Loads one sees every shard as of the same publish, so a
// batch is visible on all of its shards or on none.
type version struct {
	gen    uint64
	shards []*shardState
}

// shardState is one shard's part of a version: its sealed tier and its
// un-compacted rows in arrival order. A publish that does not touch a shard
// keeps its state pointer, and with it the sorted delta and union input
// the state derives once, on first read, for every reader of it.
type shardState struct {
	sealed *storage.Table
	// log is never written below len(log): an append extends the backing
	// array past it, and only for the state that succeeds this one.
	log []Row

	once  sync.Once
	delta *activity.Table    // log sorted by (Au, At, Ae); nil when empty
	union *cohort.UnionDelta // nil when empty or when the build failed
}

// view returns the state's query input, deriving it on the first call.
func (st *shardState) view() View {
	st.once.Do(st.build)
	return View{Sealed: st.sealed, Delta: st.delta, Union: st.union}
}

// build sorts the log into the delta and derives the union input. Every
// log row passed the primary-key checks on admission, so a sort failure
// means corrupted state — panic rather than serve a wrong snapshot. A
// failed union build (a lazy segment load error) leaves Union nil: the
// executor then builds it per query and surfaces the error there.
func (st *shardState) build() {
	if len(st.log) == 0 {
		return
	}
	delta := activity.NewTable(st.sealed.Schema())
	for _, row := range st.log {
		delta.AppendRow(row.Strs, row.Ints)
	}
	if err := delta.SortByPK(); err != nil {
		panic("ingest: delta snapshot violates primary key: " + err.Error())
	}
	st.delta = delta
	st.union, _ = cohort.BuildUnionDelta(st.sealed, delta)
}

// sealedHasPK reports whether the state's sealed tier holds a tuple with
// this primary key. The error is non-nil only when a lazy segment load
// fails.
func (st *shardState) sealedHasPK(schema *activity.Schema, user string, ts int64, action string) (bool, error) {
	agid, ok := st.sealed.LookupString(schema.ActionCol(), action)
	if !ok {
		return false, nil
	}
	_, loc, ok, err := st.sealed.FindUser(user)
	if err != nil || !ok {
		return false, err
	}
	return st.sealed.HasTuple(loc, ts, agid)
}

// shard is the writer-side bookkeeping of one user-hash partition: the
// primary keys of its log, its compaction lifecycle and its counters. The
// data itself lives in the published shardState. Every field is guarded by
// the table's logMu; readers never touch a shard.
type shard struct {
	idx    int
	parent *Table

	logKeys    map[string]struct{} // primary keys of the current log
	compacting bool                // a background compaction is in flight

	appends        uint64
	appendedRows   uint64
	compactions    uint64
	replayedRows   uint64
	replayDropped  uint64
	lastCompactMS  int64
	lastCompactErr string
	// Chunk-granularity counters: how many chunks the shard's compactions
	// re-encoded vs carried over untouched (cumulative, plus the most recent
	// compaction's split) — the observable that write cost tracks touched
	// chunks, not the shard.
	chunksRebuilt     uint64
	chunksReused      uint64
	lastChunksRebuilt int
	lastChunksReused  int
}

// validate checks a routed sub-batch against the shard's state: width and
// PK-shape validation already happened at routing, so this is the duplicate
// check against the batch itself, the un-compacted log, and the sealed
// tier.
func (s *shard) validate(st *shardState, rows []Row) error {
	schema := s.parent.schema
	batchKeys := make(map[string]struct{}, len(rows))
	for _, row := range rows {
		user, ts, action := row.pk(schema)
		key := pkKey(user, ts, action)
		if _, dup := batchKeys[key]; dup {
			return ErrDuplicate{User: user, Time: ts, Action: action}
		}
		if _, dup := s.logKeys[key]; dup {
			return ErrDuplicate{User: user, Time: ts, Action: action}
		}
		has, err := st.sealedHasPK(schema, user, ts, action)
		if err != nil {
			return fmt.Errorf("ingest: checking sealed tier for duplicates: %w", err)
		}
		if has {
			return ErrDuplicate{User: user, Time: ts, Action: action}
		}
		batchKeys[key] = struct{}{}
	}
	return nil
}

// admit folds a validated (and, when durable, journaled) sub-batch into the
// shard's bookkeeping, given the length of its next log, and reports
// whether a background compaction must be spawned.
func (s *shard) admit(rows []Row, logLen int) (trigger bool) {
	schema := s.parent.schema
	for _, row := range rows {
		user, ts, action := row.pk(schema)
		s.logKeys[pkKey(user, ts, action)] = struct{}{}
	}
	s.appends++
	s.appendedRows += uint64(len(rows))
	trigger = s.overThreshold(logLen) && !s.compacting
	if trigger {
		s.compacting = true
		s.parent.compactWG.Add(1)
	}
	return trigger
}

// overThreshold reports whether a log of this length triggers automatic
// compaction.
func (s *shard) overThreshold(logLen int) bool {
	n := s.parent.cfg.AutoCompactRows
	return n > 0 && logLen >= n
}

// backgroundCompact runs threshold-triggered compactions, looping while the
// shard's delta stays over the threshold (appends may race the compaction).
func (s *shard) backgroundCompact() {
	t := s.parent
	defer t.compactWG.Done()
	for {
		err := s.seal()
		t.logMu.Lock()
		again := err == nil && !t.closed.Load() && s.overThreshold(len(t.cur.Load().shards[s.idx].log))
		if !again {
			s.compacting = false
		}
		t.logMu.Unlock()
		if !again {
			return
		}
	}
}

// compact synchronously seals this shard's delta. It is a no-op on an empty
// delta, which is what makes table-level compaction selective: shards
// without fresh rows are never rebuilt.
func (s *shard) compact() error {
	t := s.parent
	t.logMu.Lock()
	if t.closed.Load() {
		t.logMu.Unlock()
		return ErrClosed
	}
	t.compactWG.Add(1)
	t.logMu.Unlock()
	defer t.compactWG.Done()
	return s.seal()
}

// errSuperseded reports a compaction that lost the race to publish against
// another compaction of the same shard; its merge is discarded and redone.
var errSuperseded = errors.New("ingest: compaction superseded")

// seal compacts the shard until a compaction publishes or finds nothing to
// seal, and keeps the most recent failure visible in Stats — background
// compactions have no caller to return an error to, and a persistently
// failing compaction (e.g. a full disk during Persist) must not be silent
// while the delta and journal grow.
func (s *shard) seal() error {
	err := errSuperseded
	for err == errSuperseded {
		err = s.compactOnce()
	}
	t := s.parent
	t.logMu.Lock()
	s.lastCompactErr = ""
	if err != nil {
		s.lastCompactErr = err.Error()
	}
	t.logMu.Unlock()
	return err
}

// compactOnce merges the delta rows present at entry into a fresh sealed
// shard and publishes it; rows appended while the merge runs stay in the
// delta for the next round. The caller is counted in t.compactWG.
func (s *shard) compactOnce() error {
	t := s.parent
	if t.closed.Load() {
		return ErrClosed
	}
	old := t.cur.Load().shards[s.idx]
	n := len(old.log)
	if n == 0 {
		return nil
	}
	chunkSize := t.cfg.ChunkSize
	if chunkSize <= 0 {
		chunkSize = old.sealed.ChunkSize()
	}

	// The heavy merge runs without any lock: appends and queries proceed
	// against the published versions, on this shard and every other. The
	// merge is chunk-granular: each delta user block routes to the chunk
	// owning its user range, and only those chunks are decoded, merged in
	// (Au, At, Ae) order and re-encoded (splitting at the block budget);
	// untouched chunks are carried over, payloads shared. Appends are
	// PK-checked against both tiers, so a merge conflict indicates state
	// corruption; surface it rather than sealing a bad shard.
	start := time.Now()
	batch := activity.NewTable(t.schema)
	for _, row := range old.log {
		batch.AppendRow(row.Strs, row.Ints)
	}
	if err := batch.SortByPK(); err != nil {
		return fmt.Errorf("ingest: compaction merge: %w", err)
	}
	sealedNew, rebuilt, reused, err := storage.MergeDelta(old.sealed, batch, storage.Options{ChunkSize: chunkSize})
	if err != nil {
		return fmt.Errorf("ingest: compaction merge: %w", err)
	}
	// Persist + publish run under persistMu: compactions serialize here, so
	// every persisted layout contains the latest sealed tier of every shard
	// (a persist composed from stale neighbors could otherwise roll a
	// just-persisted shard back), and a second compaction of this shard that
	// merged from the same sealed tier finds it replaced and starts over.
	t.persistMu.Lock()
	defer t.persistMu.Unlock()
	if t.cur.Load().shards[s.idx].sealed != old.sealed {
		return errSuperseded
	}
	// A Close (or catalog reload) during the merge waits for this
	// compaction; persisting its layout now would only be wasted work.
	if t.closed.Load() {
		return ErrClosed
	}
	if t.cfg.Persist != nil {
		delta := storage.LayoutDelta{
			Layout:        t.cur.Load().layout(s.idx, sealedNew),
			Shard:         s.idx,
			ChunksRebuilt: rebuilt,
			ChunksReused:  reused,
		}
		if err := t.cfg.Persist(delta); err != nil {
			return fmt.Errorf("ingest: persisting compacted table: %w", err)
		}
	}

	t.logMu.Lock()
	err = s.publishLocked(n, sealedNew, rebuilt, reused, start)
	t.logMu.Unlock()
	if err != nil {
		return err
	}
	obs.CompactSeconds.ObserveSince(start)
	obs.CompactionsTotal.Inc()
	obs.ChunksRebuiltTotal.Add(int64(rebuilt))
	obs.ChunksReusedTotal.Add(int64(reused))
	t.notifyChange()
	return nil
}

// publishLocked swaps the compacted sealed tier in for the first n log rows
// and truncates the journal to the rows still in the deltas; t.logMu must
// be held.
func (s *shard) publishLocked(n int, sealedNew *storage.Table, rebuilt, reused int, start time.Time) error {
	t := s.parent
	if t.closed.Load() {
		// A Close (or catalog reload) arrived during the persist: publish
		// nothing and leave the journal whole for the next incarnation,
		// whose replay drops the rows the persisted layout already holds.
		return ErrClosed
	}
	// The log here extends the merged one: only appends touched it since.
	cur := t.cur.Load()
	remaining := append([]Row(nil), cur.shards[s.idx].log[n:]...)
	next := cur.next()
	next.shards[s.idx] = &shardState{sealed: sealedNew, log: remaining}
	t.cur.Store(next)
	s.logKeys = make(map[string]struct{}, len(remaining))
	for _, row := range remaining {
		user, ts, action := row.pk(t.schema)
		s.logKeys[pkKey(user, ts, action)] = struct{}{}
	}
	s.compactions++
	s.chunksRebuilt += uint64(rebuilt)
	s.chunksReused += uint64(reused)
	s.lastChunksRebuilt, s.lastChunksReused = rebuilt, reused
	s.lastCompactMS = time.Since(start).Milliseconds()
	if t.journal != nil && t.cfg.Persist != nil {
		// Truncate the journal only when the new sealed tier was durably
		// persisted. Without a Persist hook (library engines) the merged
		// shard exists in memory only — the journal must keep every row, or
		// a crash after compaction would lose acknowledged appends; replay
		// drops whatever a later Save made redundant.
		t.rewriteJournalLocked(next)
	}
	return nil
}

// stats snapshots the shard's counters against its state in the version
// the caller loaded; t.logMu must be held.
func (s *shard) stats(st *shardState) ShardStats {
	return ShardStats{
		Shard:                    s.idx,
		SealedRows:               st.sealed.NumRows(),
		SealedUsers:              st.sealed.NumUsers(),
		SealedChunks:             st.sealed.NumChunks(),
		DeltaRows:                len(st.log),
		Appends:                  s.appends,
		AppendedRows:             s.appendedRows,
		Compactions:              s.compactions,
		ChunksRebuilt:            s.chunksRebuilt,
		ChunksReused:             s.chunksReused,
		LastCompactChunksRebuilt: s.lastChunksRebuilt,
		LastCompactChunksReused:  s.lastChunksReused,
		LastCompactMillis:        s.lastCompactMS,
		LastCompactError:         s.lastCompactErr,
		ReplayedRows:             s.replayedRows,
		ReplayDroppedRows:        s.replayDropped,
		Compacting:               s.compacting,
	}
}
