package ingest

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/activity"
	"repro/internal/obs"
)

// The journal is the delta store's durability layer: one plain append-only
// CSV file per table holding every appended activity row that compaction has
// not yet sealed into the compressed table, whichever shard the row belongs
// to. One CSV record per row, fields in schema column order, no header;
// string columns are written verbatim and integer/time columns as base-10
// (times are Unix seconds). Each batch is followed by a `#,<rows>` marker
// record — rows only count as durable once their batch's marker is on disk,
// so a crash mid-batch cannot resurrect a partial (never-acknowledged) batch
// on replay, preserving batch atomicity across restarts, however many shards
// the batch spans. Markers cannot collide with row records: activity schemas
// always have at least four columns.
//
// On table load the journal is replayed into the delta, each row routed to
// its shard under the current shard count, so a crash or restart loses
// nothing; rows already present in the sealed tier (a crash between the
// compacted-table rename and the journal truncation) are dropped during
// replay, which makes replay idempotent. After a compaction that persisted
// the new sealed tier, the journal is atomically rewritten to hold only the
// rows still in the shards' deltas.
//
// Older versions kept one journal per shard ("<base>.s<i>") and committed
// batches spanning several shards with a `#2,<rows>,<batchID>` marker in each
// shard journal plus a `C,<batchID>` record in a coordinator log
// ("<base>.txn"). Open reads those files once and folds them into <base>;
// nothing writes them anymore.

type journal struct {
	path string
	f    *os.File
	w    *csv.Writer
}

// openJournalWith opens (creating if needed) the journal at path with its
// contents replaced by exactly rows (one committed batch; an existing file is
// atomically rewritten). Open uses it to compact the journal down to the rows
// the restored deltas actually hold — dropping a torn tail and rows the
// sealed tier made redundant, and absorbing rows read from legacy files.
func openJournalWith(path string, schema *activity.Schema, rows []Row) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ingest: opening journal: %w", err)
	}
	j := &journal{path: path, f: f, w: csv.NewWriter(f)}
	if err := j.rewrite(schema, rows); err != nil {
		_ = j.close()
		return nil, err
	}
	return j, nil
}

// commitField marks a committed batch record: `#,<rows>`.
const commitField = "#"

// preparedField marks a legacy prepared multi-shard batch record:
// `#2,<rows>,<batchID>`. Only legacy per-shard journals hold it.
const preparedField = "#2"

// readJournal parses the journal at path into the committed rows. A missing
// file is an empty journal. Rows of a batch count only once the batch's
// marker is intact — and, for legacy prepared batches, only when committed
// holds the batch id. A torn tail — a damaged record, or trailing rows whose
// marker never made it to disk — ends the replay at the last committed batch
// instead of failing the load, so a crash mid-append cannot resurrect part
// of a batch that was never acknowledged. A prepared-but-uncommitted batch
// mid-file (its coordinator record was never written) is skipped and replay
// continues: later batches were acknowledged independently.
func readJournal(path string, schema *activity.Schema, committed map[uint64]bool) ([]Row, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ingest: reading journal: %w", err)
	}
	defer f.Close()
	cr := csv.NewReader(f)
	cr.FieldsPerRecord = -1 // rows and batch markers have different widths
	cr.ReuseRecord = true
	var rows, pending []Row
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return rows, nil // torn tail: keep the committed batches
		}
		if len(rec) == 2 && rec[0] == commitField {
			if n, err := strconv.Atoi(rec[1]); err != nil || n != len(pending) {
				return rows, nil // marker does not match its batch: torn
			}
			rows = append(rows, pending...)
			pending = pending[:0]
			continue
		}
		if len(rec) == 3 && rec[0] == preparedField {
			n, err := strconv.Atoi(rec[1])
			if err != nil || n != len(pending) {
				return rows, nil // marker does not match its batch: torn
			}
			id, err := strconv.ParseUint(rec[2], 10, 64)
			if err != nil {
				return rows, nil
			}
			if committed[id] {
				rows = append(rows, pending...)
			}
			// Uncommitted: the coordinator never acknowledged this batch on
			// ANY shard — drop it and keep reading.
			pending = pending[:0]
			continue
		}
		if len(rec) != schema.NumCols() {
			return rows, nil
		}
		row, err := rowFromRecord(schema, rec)
		if err != nil {
			return rows, nil
		}
		pending = append(pending, row)
	}
	return rows, nil // any trailing unmarked rows in pending are dropped
}

// legacyJournalFiles lists the per-shard journals "<base>.s<i>" an older
// version left next to base. The directory is listed and matched by exact
// name, not by a glob pattern: a table name may hold glob metacharacters.
// Rewrite temp files and other leftovers (e.g. "<base>.s0.tmp123") are not
// journals. os.ReadDir sorts by name, so replay order is deterministic.
func legacyJournalFiles(base string) ([]string, error) {
	dir := filepath.Dir(base)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: listing journals: %w", err)
	}
	prefix := filepath.Base(base) + ".s"
	var out []string
	for _, e := range entries {
		suffix, ok := strings.CutPrefix(e.Name(), prefix)
		if ok && suffix != "" && strings.Trim(suffix, "0123456789") == "" {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out, nil
}

// readTxnCommits parses the committed batch ids of a legacy coordinator log
// at path. A missing file is an empty set; a torn tail ends the scan — a torn
// commit record belongs to a batch that was never acknowledged, so dropping
// it is exactly right.
func readTxnCommits(path string) (map[uint64]bool, error) {
	out := make(map[uint64]bool)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return out, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ingest: reading coordinator log: %w", err)
	}
	defer f.Close()
	cr := csv.NewReader(f)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	for {
		rec, err := cr.Read()
		if err != nil {
			return out, nil // EOF or torn tail
		}
		if len(rec) != 2 || rec[0] != "C" {
			return out, nil
		}
		id, err := strconv.ParseUint(rec[1], 10, 64)
		if err != nil {
			return out, nil
		}
		out[id] = true
	}
}

// rowFromRecord decodes one journal CSV record.
func rowFromRecord(schema *activity.Schema, rec []string) (Row, error) {
	row := newRow(schema)
	for c := 0; c < schema.NumCols(); c++ {
		if schema.IsStringCol(c) {
			row.Strs[c] = rec[c]
			continue
		}
		v, err := strconv.ParseInt(rec[c], 10, 64)
		if err != nil {
			return Row{}, fmt.Errorf("ingest: journal column %q: %w", schema.Col(c).Name, err)
		}
		row.Ints[c] = v
	}
	return row, nil
}

// record encodes one row as a journal CSV record.
func record(schema *activity.Schema, row Row) []string {
	rec := make([]string, schema.NumCols())
	for c := 0; c < schema.NumCols(); c++ {
		if schema.IsStringCol(c) {
			rec[c] = row.Strs[c]
		} else {
			rec[c] = strconv.FormatInt(row.Ints[c], 10)
		}
	}
	return rec
}

// append durably writes one batch: rows plus the `#` marker, flushed and
// fsynced before the append is acknowledged.
func (j *journal) append(schema *activity.Schema, rows []Row) error {
	if j.f == nil {
		return fmt.Errorf("ingest: journal unavailable after a failed rewrite; reload the table to restore durability")
	}
	for _, row := range rows {
		if err := j.w.Write(record(schema, row)); err != nil {
			return fmt.Errorf("ingest: journal write: %w", err)
		}
	}
	if err := j.w.Write([]string{commitField, strconv.Itoa(len(rows))}); err != nil {
		return fmt.Errorf("ingest: journal write: %w", err)
	}
	j.w.Flush()
	if err := j.w.Error(); err != nil {
		return fmt.Errorf("ingest: journal flush: %w", err)
	}
	syncStart := time.Now()
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("ingest: journal sync: %w", err)
	}
	obs.JournalFsyncSeconds.ObserveSince(syncStart)
	return nil
}

// rewrite atomically replaces the journal contents with rows (the tuples not
// covered by the sealed tier): a temp file in the same directory is written,
// synced, and renamed over the journal.
func (j *journal) rewrite(schema *activity.Schema, rows []Row) error {
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(j.path)+".tmp*")
	if err != nil {
		return fmt.Errorf("ingest: journal rewrite: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	w := csv.NewWriter(tmp)
	for _, row := range rows {
		if err := w.Write(record(schema, row)); err != nil {
			tmp.Close()
			return fmt.Errorf("ingest: journal rewrite: %w", err)
		}
	}
	if len(rows) > 0 {
		// The surviving rows were all acknowledged: commit them as one batch.
		if err := w.Write([]string{commitField, strconv.Itoa(len(rows))}); err != nil {
			tmp.Close()
			return fmt.Errorf("ingest: journal rewrite: %w", err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		tmp.Close()
		return fmt.Errorf("ingest: journal rewrite: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ingest: journal rewrite: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ingest: journal rewrite: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fmt.Errorf("ingest: journal rewrite: %w", err)
	}
	if err := syncDir(dir); err != nil {
		// The rename itself is not durable: after a crash the old journal —
		// a superset that still holds the just-sealed rows — could reappear
		// and replay them over the sealed table. Disable the journal until
		// the table is reloaded, like a failed reopen below.
		j.f.Close()
		j.f = nil
		j.w = nil
		return fmt.Errorf("ingest: journal rewrite: syncing %s: %w", dir, err)
	}
	// Reopen so subsequent appends extend the new file, not the renamed-away
	// descriptor. If the reopen fails the old descriptor now points at an
	// unlinked inode — writes to it would be acknowledged as durable and
	// lost on restart — so the journal is disabled (appends fail) until the
	// table is reloaded.
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	j.f.Close()
	if err != nil {
		j.f = nil
		j.w = nil
		return fmt.Errorf("ingest: reopening journal: %w", err)
	}
	j.f = f
	j.w = csv.NewWriter(f)
	return nil
}

// syncDir fsyncs a directory so renames and new entries inside it survive a
// power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// size returns the journal file size in bytes.
func (j *journal) size() int64 {
	if j.f == nil {
		return 0
	}
	fi, err := j.f.Stat()
	if err != nil {
		return 0
	}
	return fi.Size()
}

// close releases the file; appends after it fail.
func (j *journal) close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	j.w = nil
	return err
}
