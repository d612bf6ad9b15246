package ingest

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/activity"
	"repro/internal/cohort"
	"repro/internal/obs"
	"repro/internal/storage"
)

// shard is one user-hash partition of a live table: its slice of the sealed
// compressed tier plus its own delta log, generation counter and compaction
// lifecycle. The table's journal is shared, but no shard mutex is held while
// it writes, so views never wait on the disk, and a lagging shard's
// compaction cannot block the others.
type shard struct {
	idx    int
	parent *Table

	mu      sync.Mutex
	sealed  *storage.Table
	log     []Row               // un-compacted rows in arrival order
	logKeys map[string]struct{} // primary keys of log, for duplicate checks
	// snap is the sorted, user-clustered snapshot of log that queries scan
	// (nil when empty). It is rebuilt lazily — Append only marks it dirty —
	// so a burst of appends pays one sort on the next View instead of a
	// full copy per batch, and the append critical section stays short.
	snap      *activity.Table
	snapDirty bool
	// union is the cached row-scan input of the union query path (delta
	// rows + overlap users' sealed blocks); rebuilt with snap so every
	// query of a generation shares one materialization instead of decoding
	// the overlap users' sealed blocks per query.
	union  *cohort.UnionDelta
	gen    uint64
	closed bool

	compacting bool
	compactMu  sync.Mutex // serializes this shard's compaction bodies
	wg         sync.WaitGroup

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

// schema returns the shared table schema.
func (s *shard) schema() *activity.Schema { return s.parent.schema }

// view snapshots the shard for query execution, rebuilding the delta
// snapshot if appends dirtied it since the last view.
func (s *shard) view() View {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshSnapLocked()
	if s.snap != nil && s.snap.Len() > 0 {
		if s.union == nil {
			// Build once per change; on failure (a lazy segment load error —
			// the append-time PK checks rule out tier conflicts) leave it nil
			// and let the executor surface the error per query.
			s.union, _ = cohort.BuildUnionDelta(s.sealed, s.snap)
		}
	}
	return View{Sealed: s.sealed, Delta: s.snap, Union: s.union, Gen: s.gen}
}

// refreshSnapLocked rebuilds the sorted delta snapshot from the log when
// dirty; s.mu must be held. Readers hold previous snapshot pointers, which
// stay valid and immutable. Every log row passed the primary-key checks on
// admission, so a sort failure here means corrupted state — panic rather
// than serve a wrong snapshot.
func (s *shard) refreshSnapLocked() {
	if !s.snapDirty {
		return
	}
	s.snapDirty = false
	s.union = nil // derived from snap (and the sealed tier): rebuild with it
	if len(s.log) == 0 {
		s.snap = nil
		return
	}
	snap := activity.NewTable(s.schema())
	for _, row := range s.log {
		snap.AppendRow(row.Strs, row.Ints)
	}
	if err := snap.SortByPK(); err != nil {
		panic("ingest: delta snapshot violates primary key: " + err.Error())
	}
	s.snap = snap
}

// validateBatchLocked checks a routed sub-batch against the shard: width and
// PK-shape validation already happened at routing, so this is the closed
// check plus the duplicate check against the batch itself, the un-compacted
// log, and the sealed tier. s.mu must be held.
func (s *shard) validateBatchLocked(rows []Row) error {
	if s.closed {
		return ErrClosed
	}
	schema := s.schema()
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
		has, err := s.sealedHasPKLocked(user, ts, action)
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

// admitLocked folds a validated (and, when durable, journaled) sub-batch
// into the delta log and reports whether a background compaction must be
// spawned. s.mu must be held.
func (s *shard) admitLocked(rows []Row) (trigger bool) {
	schema := s.schema()
	s.log = append(s.log, rows...)
	for _, row := range rows {
		user, ts, action := row.pk(schema)
		s.logKeys[pkKey(user, ts, action)] = struct{}{}
	}
	// The sorted snapshot is rebuilt lazily on the next View, so the only
	// work left in this critical section is bookkeeping.
	s.snapDirty = true
	s.gen++
	s.appends++
	s.appendedRows += uint64(len(rows))
	cfg := &s.parent.cfg
	trigger = cfg.AutoCompactRows > 0 && len(s.log) >= cfg.AutoCompactRows && !s.compacting
	if trigger {
		s.compacting = true
		s.wg.Add(1)
	}
	return trigger
}

// sealedHasPKLocked reports whether the shard's sealed tier holds a tuple
// with this primary key; s.mu must be held. The error is non-nil only when a
// lazy segment load fails.
func (s *shard) sealedHasPKLocked(user string, ts int64, action string) (bool, error) {
	schema := s.schema()
	agid, ok := s.sealed.LookupString(schema.ActionCol(), action)
	if !ok {
		return false, nil
	}
	_, loc, ok, err := s.sealed.FindUser(user)
	if err != nil || !ok {
		return false, err
	}
	return s.sealed.HasTuple(loc, ts, agid)
}

// backgroundCompact runs threshold-triggered compactions, looping while the
// shard's delta stays over the threshold (appends may race the compaction).
func (s *shard) backgroundCompact() {
	defer s.wg.Done()
	for {
		s.compactMu.Lock()
		err := s.compactOnce()
		s.compactMu.Unlock()
		s.recordCompactErr(err)
		s.mu.Lock()
		again := err == nil && !s.closed &&
			s.parent.cfg.AutoCompactRows > 0 && len(s.log) >= s.parent.cfg.AutoCompactRows
		if !again {
			s.compacting = false
		}
		s.mu.Unlock()
		if !again {
			return
		}
	}
}

// recordCompactErr keeps the most recent compaction failure visible in
// Stats — background compactions have no caller to return an error to, and
// a persistently failing compaction (e.g. a full disk during Persist) must
// not be silent while the delta and journal grow.
func (s *shard) recordCompactErr(err error) {
	s.mu.Lock()
	if err != nil {
		s.lastCompactErr = err.Error()
	} else {
		s.lastCompactErr = ""
	}
	s.mu.Unlock()
}

// compact synchronously seals this shard's delta. It is a no-op on an empty
// delta, which is what makes table-level compaction selective: shards
// without fresh rows are never rebuilt.
func (s *shard) compact() error {
	s.compactMu.Lock()
	err := s.compactOnce()
	s.compactMu.Unlock()
	s.recordCompactErr(err)
	return err
}

// compactOnce merges the delta rows present at entry into a fresh sealed
// shard and swaps it in; rows appended while the merge runs stay in the
// delta for the next round. s.compactMu must be held.
func (s *shard) compactOnce() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	n := len(s.log)
	if n == 0 {
		s.mu.Unlock()
		return nil
	}
	sealedOld := s.sealed
	rows := s.log[:n:n]
	chunkSize := s.parent.cfg.ChunkSize
	if chunkSize <= 0 {
		chunkSize = sealedOld.ChunkSize()
	}
	s.mu.Unlock()

	// The heavy merge runs without any lock: appends and queries proceed
	// against the old sealed tier and the growing delta, on this shard and
	// every other. The merge is chunk-granular: each delta user block routes
	// to the chunk owning its user range, and only those chunks are decoded,
	// merged in (Au, At, Ae) order and re-encoded (splitting at the block
	// budget); untouched chunks are carried over, payloads shared. Appends
	// are PK-checked against both tiers, so a merge conflict indicates state
	// corruption; surface it rather than sealing a bad shard.
	start := time.Now()
	schema := s.schema()
	batch := activity.NewTable(schema)
	for _, row := range rows {
		batch.AppendRow(row.Strs, row.Ints)
	}
	if err := batch.SortByPK(); err != nil {
		return fmt.Errorf("ingest: compaction merge: %w", err)
	}
	sealedNew, rebuilt, reused, err := storage.MergeDelta(sealedOld, batch, storage.Options{ChunkSize: chunkSize})
	if err != nil {
		return fmt.Errorf("ingest: compaction merge: %w", err)
	}
	// Persist + swap run under the coordinator's persist lock: concurrent
	// compactions of other shards serialize here, so every persisted layout
	// contains the latest sealed tier of every shard (a persist composed
	// from stale neighbors could otherwise roll a just-persisted shard
	// back). The heavy merge above stays outside the lock.
	t := s.parent
	t.persistMu.Lock()
	defer t.persistMu.Unlock()
	// Re-check closed before persisting: a Close (or catalog reload) that
	// happened during the merge means a successor incarnation may already
	// own the table files — overwriting them with this stale layout would
	// erase the successor's persisted rows.
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if t.cfg.Persist != nil {
		delta := storage.LayoutDelta{
			Layout:        t.sealedLayoutWith(s.idx, sealedNew),
			Shard:         s.idx,
			ChunksRebuilt: rebuilt,
			ChunksReused:  reused,
		}
		if err := t.cfg.Persist(delta); err != nil {
			return fmt.Errorf("ingest: persisting compacted table: %w", err)
		}
	}

	s.mu.Lock()
	if s.closed {
		// The table was closed (or replaced by a catalog reload) while the
		// merge ran without the lock. Swapping state or rewriting the
		// journal now would clobber the successor incarnation's journal
		// file, losing its acknowledged appends — abort instead. (Close
		// waits out this compaction before it releases the journal, so the
		// rewrite below cannot race it.)
		s.mu.Unlock()
		return ErrClosed
	}
	s.sealed = sealedNew
	remaining := append([]Row(nil), s.log[n:]...)
	s.log = remaining
	s.logKeys = make(map[string]struct{}, len(remaining))
	for _, row := range remaining {
		user, ts, action := row.pk(schema)
		s.logKeys[pkKey(user, ts, action)] = struct{}{}
	}
	s.snapDirty = true
	s.gen++
	s.compactions++
	s.chunksRebuilt += uint64(rebuilt)
	s.chunksReused += uint64(reused)
	s.lastChunksRebuilt, s.lastChunksReused = rebuilt, reused
	s.lastCompactMS = time.Since(start).Milliseconds()
	s.mu.Unlock()
	if t.journal != nil && t.cfg.Persist != nil {
		// Truncate the journal only when the new sealed tier was durably
		// persisted. Without a Persist hook (library engines) the merged
		// shard exists in memory only — the journal must keep every row, or
		// a crash after compaction would lose acknowledged appends; replay
		// drops whatever a later Save made redundant. s.mu is released
		// first: the lock order is log before shard.
		t.rewriteJournal()
	}
	obs.CompactSeconds.ObserveSince(start)
	obs.CompactionsTotal.Inc()
	obs.ChunksRebuiltTotal.Add(int64(rebuilt))
	obs.ChunksReusedTotal.Add(int64(reused))
	t.notifyChange()
	return nil
}

// close marks the shard closed and waits out its compactions.
func (s *shard) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
	// Taking compactMu drains an in-flight explicit compact (not covered by
	// wg): it sees closed at its next check and aborts without persisting
	// or rewriting, or finishes its rewrite first.
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
}

// stats snapshots the shard's counters.
func (s *shard) stats() ShardStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ShardStats{
		Shard:                    s.idx,
		SealedRows:               s.sealed.NumRows(),
		SealedUsers:              s.sealed.NumUsers(),
		SealedChunks:             s.sealed.NumChunks(),
		DeltaRows:                len(s.log),
		Generation:               s.gen,
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
	return st
}
