package plan

import (
	"testing"

	"repro/internal/cohort"
	"repro/internal/gen"
	"repro/internal/storage"
)

// TestVectorizedEngagesByDefault pins the wiring: execution reports
// run-kernel activity (RowsBatched equals RowsScanned — every scanned sealed
// row went through the batched kernel) and matches the row reference.
func TestVectorizedEngagesByDefault(t *testing.T) {
	full := gen.Generate(gen.Config{Users: 100, Days: 14, MeanActions: 12, Seed: 13})
	if err := full.SortByPK(); err != nil {
		t.Fatal(err)
	}
	sealed, err := storage.Build(full, storage.Options{ChunkSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	q := parseQuery(t, `SELECT country, COHORTSIZE, AGE, Sum(gold)
		FROM D BIRTH FROM action = "launch" AND country = "China"
		AGE ACTIVITIES IN action = "shop" AND gold > 5
		COHORT BY country`)

	var vec cohort.ExecStats
	got, err := ExecuteShards(q, []ShardInput{{Sealed: sealed}}, ExecOptions{Stats: &vec})
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "kernel vs row reference", got, rowReference(t, q, mustMaterialize(t, sealed)))
	if vec.RowsBatched.Load() == 0 || vec.RunsEvaluated.Load() == 0 {
		t.Fatalf("default execution reports no kernel activity: batched=%d runs=%d",
			vec.RowsBatched.Load(), vec.RunsEvaluated.Load())
	}
	if vec.RowsBatched.Load() != vec.RowsScanned.Load() {
		t.Fatalf("batched %d rows but scanned %d — sealed scans should be fully batched",
			vec.RowsBatched.Load(), vec.RowsScanned.Load())
	}
}
