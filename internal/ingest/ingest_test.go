package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/storage"
)

// buildSealed compresses a small synthetic workload.
func buildSealed(t *testing.T) *storage.Table {
	t.Helper()
	tbl := gen.Generate(gen.Config{Users: 40, Days: 12, MeanActions: 10, Seed: 21})
	st, err := storage.Build(tbl, storage.Options{ChunkSize: 120})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// row builds a game-schema Row.
func row(t *testing.T, schema *activity.Schema, user string, ts int64, action, country, city, role string, session, gold int64) Row {
	t.Helper()
	r, err := RowFromValues(schema, user, ts, action, country, city, role, session, gold)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// runQuery executes a cohort query over the live table's current view.
func runQuery(t *testing.T, lt *Table, src string) string {
	t.Helper()
	stmt, err := parser.ParseCohort(src)
	if err != nil {
		t.Fatal(err)
	}
	view := lt.Views()[0]
	in := plan.ShardInput{Sealed: view.Sealed, Delta: view.Delta, Union: view.Union}
	res, err := plan.ExecuteShards(stmt.Query, []plan.ShardInput{in}, plan.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res.String()
}

const testQuery = `SELECT country, COHORTSIZE, AGE, Sum(gold), UserCount()
	FROM D BIRTH FROM action = "launch" COHORT BY country`

func TestAppendFreshnessAndDuplicateRejection(t *testing.T) {
	sealed := buildSealed(t)
	lt, err := Open(sealed, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	schema := lt.Schema()

	before := runQuery(t, lt, testQuery)
	fresh := []Row{
		row(t, schema, "fresh-user", 1369000000, "launch", "Narnia", "Cair", "dwarf", 10, 0),
		row(t, schema, "fresh-user", 1369090000, "shop", "Narnia", "Cair", "dwarf", 5, 77),
	}
	if err := lt.Append(fresh); err != nil {
		t.Fatal(err)
	}
	if lt.DeltaRows() != 2 {
		t.Fatalf("delta rows = %d, want 2", lt.DeltaRows())
	}
	after := runQuery(t, lt, testQuery)
	if before == after {
		t.Fatal("appended rows invisible to queries before compaction")
	}

	// The same primary key is rejected against the delta...
	err = lt.Append([]Row{row(t, schema, "fresh-user", 1369000000, "launch", "X", "Y", "elf", 1, 1)})
	var dup ErrDuplicate
	if !errors.As(err, &dup) {
		t.Fatalf("delta duplicate: err = %v, want ErrDuplicate", err)
	}
	// ...within one batch...
	twice := row(t, schema, "u2", 1369000001, "launch", "X", "Y", "elf", 1, 1)
	if err := lt.Append([]Row{twice, twice}); !errors.As(err, &dup) {
		t.Fatalf("batch duplicate: err = %v, want ErrDuplicate", err)
	}
	// ...and against the sealed tier.
	view := lt.Views()[0]
	sealedUser := view.Sealed.Schema().UserCol()
	u0, _ := view.Sealed.ChunkUserRange(0)
	_, loc, ok, err := view.Sealed.FindUser(u0)
	if err != nil || !ok {
		t.Fatalf("FindUser(%q) = %v, %v", u0, ok, err)
	}
	// Find one sealed tuple of user 0 to duplicate.
	mat := activity.NewTable(schema)
	view.Sealed.AppendUserRows(mat, loc)
	dupRow := Row{Strs: make([]string, schema.NumCols()), Ints: make([]int64, schema.NumCols())}
	for c := 0; c < schema.NumCols(); c++ {
		if schema.IsStringCol(c) {
			dupRow.Strs[c] = mat.Strings(c)[0]
		} else {
			dupRow.Ints[c] = mat.Ints(c)[0]
		}
	}
	if dupRow.Strs[sealedUser] != u0 {
		t.Fatalf("materialized row user %q, want %q", dupRow.Strs[sealedUser], u0)
	}
	if err := lt.Append([]Row{dupRow}); !errors.As(err, &dup) {
		t.Fatalf("sealed duplicate: err = %v, want ErrDuplicate", err)
	}
	// A failed batch admits nothing.
	if lt.DeltaRows() != 2 {
		t.Fatalf("delta rows after rejected batches = %d, want 2", lt.DeltaRows())
	}
}

func TestCompactionPreservesResultsExactly(t *testing.T) {
	sealed := buildSealed(t)
	persisted := 0
	lt, err := Open(sealed, Config{Persist: func(storage.LayoutDelta) error { persisted++; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	schema := lt.Schema()

	rows := []Row{
		row(t, schema, "late-user", 1368800000, "launch", "China", "Beijing", "wizard", 4, 0),
		row(t, schema, "late-user", 1368900000, "shop", "China", "Beijing", "wizard", 4, 33),
		row(t, schema, "late-user", 1369000000, "shop", "China", "Beijing", "wizard", 4, 12),
	}
	if err := lt.Append(rows); err != nil {
		t.Fatal(err)
	}
	before := runQuery(t, lt, testQuery)
	genBefore := lt.Gen()

	if err := lt.CompactContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if persisted != 1 {
		t.Fatalf("persist callback ran %d times, want 1", persisted)
	}
	if lt.DeltaRows() != 0 {
		t.Fatalf("delta rows after compaction = %d, want 0", lt.DeltaRows())
	}
	if lt.Gen() <= genBefore {
		t.Fatalf("generation did not advance on compaction: %d -> %d", genBefore, lt.Gen())
	}
	st := lt.Stats()
	if st.Compactions != 1 || st.SealedRows != sealed.NumRows()+len(rows) {
		t.Fatalf("stats after compaction = %+v", st)
	}
	after := runQuery(t, lt, testQuery)
	if before != after {
		t.Fatalf("compaction changed query results:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	// Compacting an empty delta is a no-op.
	if err := lt.CompactContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if lt.Stats().Compactions != 1 {
		t.Fatal("empty compaction was counted")
	}
}

func TestJournalDurabilityAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "game.journal")
	sealed := buildSealed(t)

	lt, err := Open(sealed, Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	schema := lt.Schema()
	rows := []Row{
		row(t, schema, "durable-user", 1369000000, "launch", "Rohan", "Edoras", "rider", 2, 0),
		row(t, schema, "durable-user", 1369090000, "shop", "Rohan", "Edoras", "rider", 2, 5),
	}
	if err := lt.Append(rows); err != nil {
		t.Fatal(err)
	}
	want := runQuery(t, lt, testQuery)
	if err := lt.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh live table over the same sealed tier and journal.
	lt2, err := Open(sealed, Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer lt2.Close()
	st := lt2.Stats()
	if st.ReplayedRows != 2 || st.DeltaRows != 2 || st.ReplayDroppedRows != 0 {
		t.Fatalf("replay stats = %+v, want 2 replayed rows", st)
	}
	if got := runQuery(t, lt2, testQuery); got != want {
		t.Fatalf("replayed table answers differently:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestJournalReplayDropsAlreadySealedRows(t *testing.T) {
	// Simulate a crash between the compacted-table swap and the journal
	// truncation: the journal still holds rows the sealed tier already
	// contains, and replay must drop them.
	dir := t.TempDir()
	journal := filepath.Join(dir, "game.journal")
	sealed := buildSealed(t)

	lt, err := Open(sealed, Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	schema := lt.Schema()
	rows := []Row{
		row(t, schema, "crash-user", 1369000000, "launch", "Gondor", "Osgiliath", "ranger", 1, 0),
	}
	if err := lt.Append(rows); err != nil {
		t.Fatal(err)
	}
	// Compact in memory but keep the journal as-is (no truncation), like a
	// crash after the swap. The new sealed tier contains the journal row.
	var compacted *storage.Table
	lt2, err := Open(sealed, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lt2.Append(rows); err != nil {
		t.Fatal(err)
	}
	lt2.cfg.Persist = func(d storage.LayoutDelta) error { compacted = d.Layout.Shard(0); return nil }
	if err := lt2.CompactContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	lt2.Close()
	lt.Close()

	lt3, err := Open(compacted, Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer lt3.Close()
	st := lt3.Stats()
	if st.ReplayDroppedRows != 1 || st.DeltaRows != 0 {
		t.Fatalf("replay stats = %+v, want 1 dropped row and empty delta", st)
	}
}

// TestJournalToleratesTornTailBatchAtomically cuts the journal of a 3-shard
// table at every byte length, as a crash mid-write could, and reopens it each
// time: the delta must hold exactly a whole-batch prefix of the acknowledged
// batches — never part of a batch, never a batch on only some of its shards —
// and the dropped batches must append again.
func TestJournalToleratesTornTailBatchAtomically(t *testing.T) {
	sealed := buildShardedSealed(t, 3)
	journal := filepath.Join(t.TempDir(), "game.journal")
	lt, err := OpenSharded(sealed, Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	schema := lt.Schema()
	u := usersInDistinctShards(3)
	r := func(user string, ts int64) Row {
		return row(t, schema, user, ts, "launch", "Shire", "Hobbiton", "hobbit", 1, ts%7)
	}
	batches := [][]Row{
		{r(u[0], 1369000000), r(u[1], 1369000000), r(u[2], 1369000000)},
		{r(u[1], 1369000100)},
		{r(u[2], 1369000200), r(u[0], 1369000200)},
		{r(u[0], 1369000300), r(u[1], 1369000300), r(u[2], 1369000300), r(u[2], 1369000301)},
	}
	for _, b := range batches {
		if err := lt.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := lt.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	// ends[i] is the offset just past batch i's marker line.
	var ends []int
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if bytes.HasPrefix(data[off:], []byte("#,")) {
			ends = append(ends, off+nl+1)
		}
		off += nl + 1
	}
	if len(ends) != len(batches) {
		t.Fatalf("journal holds %d batch markers, want %d", len(ends), len(batches))
	}
	keysOf := func(bs [][]Row) map[string]int {
		out := make(map[string]int)
		for _, b := range bs {
			for _, row := range b {
				user, ts, action := row.pk(schema)
				out[pkKey(user, ts, action)] = storage.ShardOf(user, 3)
			}
		}
		return out
	}
	for size := 0; size <= len(data); size++ {
		if err := os.WriteFile(journal, data[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		lt, err := OpenSharded(sealed, Config{JournalPath: journal})
		if err != nil {
			t.Fatalf("journal cut at %d bytes failed the load: %v", size, err)
		}
		got := deltaShards(lt)
		// The prefix length is the number of intact markers; a final marker
		// missing only its newline still commits its batch.
		k := 0
		for k < len(ends) && ends[k] <= size+1 {
			k++
		}
		if want := keysOf(batches[:k]); !reflect.DeepEqual(got, want) {
			t.Fatalf("journal cut at %d of %d bytes restored %v, want the first %d batches %v", size, len(data), got, k, want)
		}
		for _, b := range batches[k:] {
			if err := lt.Append(b); err != nil {
				t.Fatalf("cut at %d: re-appending a dropped batch: %v", size, err)
			}
		}
		if err := lt.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAutoCompactionTriggers(t *testing.T) {
	sealed := buildSealed(t)
	lt, err := Open(sealed, Config{AutoCompactRows: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	schema := lt.Schema()
	for i := 0; i < 4; i++ {
		r := row(t, schema, fmt.Sprintf("auto-user-%d", i), 1369000000+int64(i), "launch", "China", "Beijing", "mage", 1, 0)
		if err := lt.Append([]Row{r}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := lt.Stats()
		if st.Compactions >= 1 && !st.Compacting {
			if st.DeltaRows >= st.SealedRows {
				t.Fatalf("compaction left stats %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never ran: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentAppendQueryCompact exercises the full lifecycle under the
// race detector: appenders of batches spanning shards, queriers and a
// compactor whose journal rewrites race the appends all share one table.
func TestConcurrentAppendQueryCompact(t *testing.T) {
	sealed := buildShardedSealed(t, 3)
	lt, err := OpenSharded(sealed, Config{
		JournalPath: filepath.Join(t.TempDir(), "t.journal"),
		Persist:     func(storage.LayoutDelta) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	schema := lt.Schema()
	stmt, err := parser.ParseCohort(testQuery)
	if err != nil {
		t.Fatal(err)
	}

	const appenders, rowsEach = 4, 25
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < rowsEach; i++ {
				batch := []Row{
					row(t, schema, fmt.Sprintf("cc-user-%d-%d", a, i), 1369000000+int64(i), "launch", "China", "Beijing", "mage", 1, int64(i)),
					row(t, schema, fmt.Sprintf("cc-peer-%d-%d", a, i), 1369000000+int64(i), "launch", "China", "Beijing", "mage", 1, int64(i)),
				}
				if err := lt.Append(batch); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(a)
	}
	stop := make(chan struct{})
	wg.Add(2)
	go func() { // queriers run against whatever view exists
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, v := range lt.Views() {
					in := plan.ShardInput{Sealed: v.Sealed, Delta: v.Delta, Union: v.Union}
					if _, err := plan.ExecuteShards(stmt.Query, []plan.ShardInput{in}, plan.ExecOptions{}); err != nil {
						t.Errorf("query: %v", err)
						return
					}
				}
				lt.Stats()
			}
		}
	}()
	go func() { // compactor races the appenders
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := lt.CompactContext(context.Background()); err != nil {
				t.Errorf("compact: %v", err)
			}
		}
		close(stop)
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := lt.CompactContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := lt.Stats()
	want := sealed.NumRows() + 2*appenders*rowsEach
	if st.SealedRows != want || st.DeltaRows != 0 || st.JournalBytes != 0 {
		t.Fatalf("after final compaction: %+v, want %d sealed rows and an empty journal", st, want)
	}
}

// TestSnapshotMergeMatchesRebuild pins the lazily rebuilt snapshot: batches
// appended in shuffled user/time order must yield, at the next View, the
// same sorted snapshot an eager from-scratch rebuild would.
func TestSnapshotMergeMatchesRebuild(t *testing.T) {
	sealed := buildSealed(t)
	lt, err := Open(sealed, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	schema := lt.Schema()
	// Interleaved batches: later batches contain earlier users and times.
	batches := [][]Row{
		{row(t, schema, "m-c", 1369000300, "launch", "China", "B", "mage", 1, 0)},
		{
			row(t, schema, "m-a", 1369000100, "launch", "China", "B", "mage", 1, 0),
			row(t, schema, "m-c", 1369000100, "shop", "China", "B", "mage", 1, 5),
		},
		{
			row(t, schema, "m-b", 1369000200, "launch", "China", "B", "mage", 1, 0),
			row(t, schema, "m-a", 1369000050, "shop", "China", "B", "mage", 1, 7),
		},
	}
	for _, b := range batches {
		if err := lt.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	got := lt.Views()[0].Delta
	if !got.Sorted() {
		t.Fatal("merged snapshot not marked sorted")
	}
	want := activity.NewTable(schema)
	for _, b := range batches {
		for _, r := range b {
			want.AppendRow(r.Strs, r.Ints)
		}
	}
	if err := want.SortByPK(); err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("snapshot has %d rows, want %d", got.Len(), want.Len())
	}
	for c := 0; c < schema.NumCols(); c++ {
		for r := 0; r < want.Len(); r++ {
			if schema.IsStringCol(c) {
				if got.Strings(c)[r] != want.Strings(c)[r] {
					t.Fatalf("row %d col %d: %q != %q", r, c, got.Strings(c)[r], want.Strings(c)[r])
				}
			} else if got.Ints(c)[r] != want.Ints(c)[r] {
				t.Fatalf("row %d col %d: %d != %d", r, c, got.Ints(c)[r], want.Ints(c)[r])
			}
		}
	}
}

func TestRowParsing(t *testing.T) {
	schema := activity.GameSchema()
	obj := map[string]any{
		"player": "p1", "time": "2013-05-19 10:00:00", "action": "launch",
		"country": "China", "city": "Beijing", "role": "mage",
		"session": float64(3), "gold": "12",
	}
	r, err := ParseRow(schema, obj)
	if err != nil {
		t.Fatal(err)
	}
	if r.Strs[0] != "p1" || r.Ints[1] == 0 || r.Ints[7] != 12 {
		t.Fatalf("parsed row = %+v", r)
	}
	for name, bad := range map[string]map[string]any{
		"unknown column": {"player": "p", "nope": 1},
		"missing column": {"player": "p"},
		"bad type":       {"player": 3},
		"fractional int": {"player": "p1", "time": 1, "action": "a", "country": "c", "city": "x", "role": "r", "session": 1.5, "gold": 1},
	} {
		if _, err := ParseRow(schema, bad); err == nil {
			t.Errorf("%s: ParseRow accepted %v", name, bad)
		}
	}
	if _, err := RowFromValues(schema, "p"); err == nil {
		t.Error("RowFromValues accepted a short row")
	}
}
