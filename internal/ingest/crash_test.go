package ingest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Crash injection for multi-shard append batches. A batch is committed by its
// `#,<rows>` marker in the one table journal; a crash before the marker is
// durable must admit the batch on NO shard after replay — never a prefix.
// Journals an older version left in the per-shard layout (`#2` prepared
// batches committed by a `C,<batchID>` record in "<base>.txn") must obey the
// same rule when Open folds them in.

// journalLine is one row record, as the journal and the legacy shard journals
// both write it.
func journalLine(user string, ts int64) string {
	return fmt.Sprintf("%s,%d,launch,China,Beijing,mage,1,0\n", user, ts)
}

func TestMultiShardBatchSurvivesRestartAtomically(t *testing.T) {
	sealed := buildShardedSealed(t, 3)
	journal := filepath.Join(t.TempDir(), "game.journal")
	lt, err := OpenSharded(sealed, Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	schema := lt.Schema()
	users := usersInDistinctShards(3)
	batch := []Row{
		row(t, schema, users[0], 2_000_000_000, "launch", "China", "Beijing", "mage", 1, 0),
		row(t, schema, users[1], 2_000_000_001, "launch", "China", "Beijing", "mage", 1, 0),
		row(t, schema, users[2], 2_000_000_002, "launch", "China", "Beijing", "mage", 1, 0),
	}
	if err := lt.Append(batch); err != nil {
		t.Fatal(err)
	}
	if err := lt.Close(); err != nil {
		t.Fatal(err)
	}
	// One file holds the whole batch: no shard journals, no coordinator log.
	assertOnlyJournal(t, journal)

	// Clean restart: the committed batch replays on every shard it spans.
	lt2, err := OpenSharded(sealed, Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer lt2.Close()
	got := deltaShards(lt2)
	if len(got) != len(batch) {
		t.Fatalf("replayed %v, want all %d rows of the batch", got, len(batch))
	}
	for i, r := range batch {
		user, ts, action := r.pk(schema)
		if s, ok := got[pkKey(user, ts, action)]; !ok || s != i {
			t.Fatalf("row of %s replayed in shard %d (present %v), want shard %d", user, s, ok, i)
		}
	}
}

func TestCrashBeforeCommitRecordAdmitsNothing(t *testing.T) {
	sealed := buildShardedSealed(t, 3)
	users := usersInDistinctShards(3)

	t.Run("journal", func(t *testing.T) {
		journal := filepath.Join(t.TempDir(), "game.journal")
		lt, err := OpenSharded(sealed, Config{JournalPath: journal})
		if err != nil {
			t.Fatal(err)
		}
		schema := lt.Schema()
		batch := []Row{
			row(t, schema, users[0], 2_000_000_000, "launch", "China", "Beijing", "mage", 1, 0),
			row(t, schema, users[1], 2_000_000_001, "launch", "China", "Beijing", "mage", 1, 0),
		}
		if err := lt.Append(batch); err != nil {
			t.Fatal(err)
		}
		if err := lt.Close(); err != nil {
			t.Fatal(err)
		}
		// Simulate the crash window: every row of the batch is on disk, but
		// its commit marker never became durable.
		data, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		marker := bytes.LastIndex(data, []byte("#,"))
		if marker < 0 {
			t.Fatalf("journal %q holds no commit marker", data)
		}
		if err := os.WriteFile(journal, data[:marker], 0o644); err != nil {
			t.Fatal(err)
		}
		lt2, err := OpenSharded(sealed, Config{JournalPath: journal})
		if err != nil {
			t.Fatal(err)
		}
		defer lt2.Close()
		if got := lt2.DeltaRows(); got != 0 {
			t.Fatalf("uncommitted multi-shard batch admitted %d rows after replay, want 0 (prefix admission)", got)
		}
		// The table stays fully usable: a fresh batch with the same keys
		// succeeds (nothing of the torn batch survived anywhere).
		if err := lt2.Append(batch); err != nil {
			t.Fatal(err)
		}
		if got := lt2.DeltaRows(); got != len(batch) {
			t.Fatalf("retried batch admitted %d rows, want %d", got, len(batch))
		}
	})

	t.Run("legacy", func(t *testing.T) {
		// Every legacy shard journal holds the prepared batch, but the
		// coordinator's commit record never reached "<base>.txn".
		base := filepath.Join(t.TempDir(), "game.journal")
		files := map[string]string{
			base + ".s0":  journalLine(users[0], 100) + "#2,1,7\n",
			base + ".s1":  journalLine(users[1], 100) + "#2,1,7\n",
			base + ".txn": "",
		}
		for path, body := range files {
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		lt, err := OpenSharded(sealed, Config{JournalPath: base})
		if err != nil {
			t.Fatal(err)
		}
		defer lt.Close()
		if got := lt.DeltaRows(); got != 0 {
			t.Fatalf("uncommitted legacy batch admitted %d rows, want 0", got)
		}
		assertOnlyJournal(t, base)
	})
}

func TestCrashMidPreparePhaseAdmitsNothing(t *testing.T) {
	sealed := buildShardedSealed(t, 3)
	users := usersInDistinctShards(3)

	t.Run("journal", func(t *testing.T) {
		// Craft the torn state directly: the process died after writing the
		// row of users[0] — one shard's share of a 3-shard batch — and before
		// the rest of the batch and its marker.
		journal := filepath.Join(t.TempDir(), "game.journal")
		if err := os.WriteFile(journal, []byte(journalLine(users[0], 2_000_000_000)), 0o644); err != nil {
			t.Fatal(err)
		}
		lt, err := OpenSharded(sealed, Config{JournalPath: journal})
		if err != nil {
			t.Fatal(err)
		}
		defer lt.Close()
		if got := lt.DeltaRows(); got != 0 {
			t.Fatalf("half-written batch admitted %d rows after replay, want 0", got)
		}
	})

	t.Run("legacy", func(t *testing.T) {
		// A prepared batch reached only users[0]'s legacy shard journal: the
		// other shards and the coordinator were never written.
		base := filepath.Join(t.TempDir(), "game.journal")
		if err := os.WriteFile(base+".s0", []byte(journalLine(users[0], 100)+"#2,1,1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		lt, err := OpenSharded(sealed, Config{JournalPath: base})
		if err != nil {
			t.Fatal(err)
		}
		defer lt.Close()
		if got := lt.DeltaRows(); got != 0 {
			t.Fatalf("half-prepared legacy batch admitted %d rows, want 0", got)
		}
		assertOnlyJournal(t, base)
	})
}
