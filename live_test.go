package cohana

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
)

// TestEngineLiveAppend covers the public live-ingestion surface: Append is
// visible immediately, Compact folds the delta into the sealed tier without
// changing results, and a journaled engine replays appends after a restart.
func TestEngineLiveAppend(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "t1.journal")
	eng, err := NewEngine(PaperTable1(), Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	const q = `SELECT country, COHORTSIZE, AGE, Sum(gold)
		FROM T BIRTH FROM action = "launch" COHORT BY country`
	res0 := query(t, eng, q).Cohort

	// A brand-new user in a country the sealed dictionaries do not hold.
	for _, row := range [][]any{
		{"newbie", int64(1368928800), "launch", "dwarf", "Narnia", int64(0)},
		{"newbie", int64(1369015200), "shop", "dwarf", "Narnia", int64(50)},
	} {
		if err := eng.Append(row...); err != nil {
			t.Fatal(err)
		}
	}
	if eng.DeltaRows() != 2 || eng.Stats().DeltaRows != 2 {
		t.Fatalf("delta rows = %d", eng.DeltaRows())
	}
	res1 := query(t, eng, q).Cohort
	if res1.Equal(res0) || !strings.Contains(res1.String(), "Narnia") {
		t.Fatalf("append invisible to Query:\n%s", res1)
	}

	// A duplicate primary key is rejected.
	if err := eng.Append("newbie", int64(1368928800), "launch", "elf", "X", int64(1)); err == nil {
		t.Fatal("duplicate append accepted")
	}

	// Compaction seals the delta and preserves results exactly.
	if err := eng.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if eng.DeltaRows() != 0 {
		t.Fatalf("delta rows after Compact = %d", eng.DeltaRows())
	}
	res2 := query(t, eng, q).Cohort
	if !res2.Equal(res1) {
		t.Fatalf("Compact changed results:\n%s", res2.Diff(res1))
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart with the same journal. The engine never persisted its
	// compacted table (no Save), so the journal still holds the compacted
	// rows — a crash after a library-side compaction must not lose
	// acknowledged appends. Replay restores them into the delta.
	eng2, err := NewEngine(PaperTable1(), Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if eng2.DeltaRows() != 2 {
		t.Fatalf("replay after in-memory compaction restored %d rows, want 2", eng2.DeltaRows())
	}
	res3 := query(t, eng2, q).Cohort
	if !res3.Equal(res2) {
		t.Fatalf("restart after compaction changed results:\n%s", res3.Diff(res2))
	}
	if err := eng2.Append("late", int64(1368928800), "launch", "ranger", "Gondor", int64(0)); err != nil {
		t.Fatal(err)
	}
	if err := eng2.Append("late", int64(1369015200), "shop", "ranger", "Gondor", int64(12)); err != nil {
		t.Fatal(err)
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	eng3, err := NewEngine(PaperTable1(), Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer eng3.Close()
	if eng3.DeltaRows() != 4 {
		t.Fatalf("journal replay restored %d rows, want 4", eng3.DeltaRows())
	}
	res4 := query(t, eng3, q).Cohort
	if !strings.Contains(res4.String(), "Gondor") {
		t.Fatalf("replayed append invisible:\n%s", res4)
	}
}
