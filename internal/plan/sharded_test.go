package plan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/activity"
	"repro/internal/cohort"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/storage"
)

// The sharding equivalence contract: for ANY query and ANY shard count, the
// scatter-gather execution over a user-hash-partitioned table must return
// results bit-identical to the same query over the unsharded table — sealed
// tiers alone, and mid-ingest with per-shard deltas riding the union path.
// The property test below draws random queries from the full clause space
// (birth actions that may not exist, birth/age conditions over strings,
// integers, times and Birth() references, one- and two-attribute cohorts,
// time bins, every aggregate) and checks shard counts {1, 2, 4, 7} against
// the single-table reference.

// randomQuery assembles one random cohort query string.
func randomQuery(rng *rand.Rand) string {
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	birth := pick("launch", "launch", "shop", "achievement", "no-such-action")
	birthCond := pick(
		``,
		` AND role = "dwarf"`,
		` AND country = "China"`,
		` AND country IN ["China", "Japan", "Atlantis"]`,
		` AND time BETWEEN "2013-05-21" AND "2013-06-01"`,
		` AND session >= 20`,
	)
	ageCond := pick(
		``,
		` AGE ACTIVITIES IN action = "shop"`,
		` AGE ACTIVITIES IN AGE < 7`,
		` AGE ACTIVITIES IN country = Birth(country)`,
		` AGE ACTIVITIES IN gold > 5 AND action = "shop"`,
	)
	cohortBy := pick(
		`country`, `role`, `city`,
		`time(week)`, `time(day)`,
		`country, role`, `role, time(month)`,
	)
	aggPool := []string{`Sum(gold)`, `Count()`, `Avg(session)`, `Min(gold)`, `Max(session)`, `UserCount()`}
	rng.Shuffle(len(aggPool), func(i, j int) { aggPool[i], aggPool[j] = aggPool[j], aggPool[i] })
	aggs := strings.Join(aggPool[:1+rng.Intn(3)], ", ")
	keyCols := cohortBy
	if i := strings.IndexByte(keyCols, '('); i >= 0 {
		// time(week) is selected as "time" in the SELECT list.
		keyCols = strings.ReplaceAll(strings.ReplaceAll(strings.ReplaceAll(keyCols, "(week)", ""), "(day)", ""), "(month)", "")
	}
	return fmt.Sprintf(`SELECT %s, COHORTSIZE, AGE, %s FROM D BIRTH FROM action = %q%s%s COHORT BY %s`,
		keyCols, aggs, birth, ageCond, birthCond, cohortBy)
}

// requireBitEqual fails unless two results are bit-identical, including the
// float64 bit patterns of every aggregate.
func requireBitEqual(t testing.TB, label string, got, want *cohort.Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) ||
		strings.Join(got.KeyCols, "\x00") != strings.Join(want.KeyCols, "\x00") ||
		strings.Join(got.AggNames, "\x00") != strings.Join(want.AggNames, "\x00") {
		t.Fatalf("%s: result shape differs:\n%s", label, got.Diff(want))
	}
	for i, g := range got.Rows {
		w := want.Rows[i]
		if strings.Join(g.Cohort, "\x00") != strings.Join(w.Cohort, "\x00") || g.Age != w.Age || g.Size != w.Size {
			t.Fatalf("%s: row %d differs:\n%s", label, i, got.Diff(want))
		}
		for k := range g.Aggs {
			if math.Float64bits(g.Aggs[k]) != math.Float64bits(w.Aggs[k]) {
				t.Fatalf("%s: row %d agg %d not bit-identical: %v vs %v", label, i, k, g.Aggs[k], w.Aggs[k])
			}
		}
	}
}

// rowOf extracts row r of src as a full-width ingest row.
func rowOf(src *activity.Table, r int) ingest.Row {
	schema := src.Schema()
	row := ingest.Row{Strs: make([]string, schema.NumCols()), Ints: make([]int64, schema.NumCols())}
	for c := 0; c < schema.NumCols(); c++ {
		if schema.IsStringCol(c) {
			row.Strs[c] = src.Strings(c)[r]
		} else {
			row.Ints[c] = src.Ints(c)[r]
		}
	}
	return row
}

func shardInputsOf(views []ingest.View) []ShardInput {
	out := make([]ShardInput, len(views))
	for i, v := range views {
		out[i] = ShardInput{Sealed: v.Sealed, Delta: v.Delta, Union: v.Union}
	}
	return out
}

func TestShardedExecutionMatchesSingleTableProperty(t *testing.T) {
	// A zipf-skewed workload, so shards are genuinely imbalanced: hash
	// partitioning spreads users evenly but a heavy tail of power users
	// concentrates tuples.
	full := gen.Generate(gen.Config{Users: 120, Days: 18, MeanActions: 12, Seed: 11, ZipfS: 1.4})
	if err := full.SortByPK(); err != nil {
		t.Fatal(err)
	}
	schema := full.Schema()

	// Mid-ingest split: ~1 in 6 rows arrive late as appends, keyed on the
	// row index so existing users gain delta tuples on top of sealed blocks
	// (the union overlap path) while others exist only in the delta.
	seedRows := activity.NewTable(schema)
	var lateRows []ingest.Row
	for r := 0; r < full.Len(); r++ {
		if r%6 == 3 {
			lateRows = append(lateRows, rowOf(full, r))
		} else {
			seedRows.AppendRow(rowOf(full, r).Strs, rowOf(full, r).Ints)
		}
	}
	if err := seedRows.AssertSortedByPK(); err != nil {
		t.Fatal(err)
	}

	refSealed, err := storage.Build(full, storage.Options{ChunkSize: 200})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	queries := make([]*cohort.Query, 0, 24)
	sources := make([]string, 0, 24)
	for len(queries) < 24 {
		src := randomQuery(rng)
		queries = append(queries, parseQuery(t, src))
		sources = append(sources, src)
	}
	refRows := mustMaterialize(t, refSealed)
	wants := make([]*cohort.Result, len(queries))
	for i, q := range queries {
		wants[i] = rowReference(t, q, refRows)
	}

	pool := cohort.NewPool(3)
	defer pool.Close()
	for _, shards := range []int{1, 2, 4, 7} {
		// Sealed-only equivalence over the whole table.
		sharded, err := storage.BuildSharded(full, shards, storage.Options{ChunkSize: 200})
		if err != nil {
			t.Fatal(err)
		}
		if sharded.NumRows() != full.Len() || sharded.NumUsers() != refSealed.NumUsers() {
			t.Fatalf("%d-shard build lost rows: %d rows / %d users", shards, sharded.NumRows(), sharded.NumUsers())
		}
		inputs := make([]ShardInput, sharded.NumShards())
		for i := range inputs {
			inputs[i] = ShardInput{Sealed: sharded.Shard(i)}
		}
		// Mid-ingest equivalence: a live table seeded with the early rows,
		// the late rows appended (routed to their owning shards' deltas).
		seedSharded, err := storage.BuildSharded(seedRows, shards, storage.Options{ChunkSize: 200})
		if err != nil {
			t.Fatal(err)
		}
		lt, err := ingest.OpenSharded(seedSharded, ingest.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := lt.Append(lateRows); err != nil {
			t.Fatal(err)
		}
		liveInputs := shardInputsOf(lt.Views())

		for qi, q := range queries {
			label := fmt.Sprintf("shards=%d query=%q", shards, sources[qi])
			got, err := ExecuteShards(q, inputs, ExecOptions{Parallelism: -1})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireBitEqual(t, label+" [sealed]", got, wants[qi])
			got, err = ExecuteShards(q, inputs, ExecOptions{Parallelism: -1, Pool: pool})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireBitEqual(t, label+" [sealed,pool]", got, wants[qi])
			got, err = ExecuteShards(q, liveInputs, ExecOptions{Parallelism: -1})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireBitEqual(t, label+" [mid-ingest]", got, wants[qi])
		}
		if err := lt.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedCompactionPreservesEquivalence drives the live path end to end:
// appends into a sharded table, per-shard compaction, and equivalence with
// the single-table reference before and after sealing.
func TestShardedCompactionPreservesEquivalence(t *testing.T) {
	full := gen.Generate(gen.Config{Users: 80, Days: 14, MeanActions: 10, Seed: 23})
	if err := full.SortByPK(); err != nil {
		t.Fatal(err)
	}
	schema := full.Schema()
	seedRows := activity.NewTable(schema)
	var lateRows []ingest.Row
	for r := 0; r < full.Len(); r++ {
		if r%4 == 1 {
			lateRows = append(lateRows, rowOf(full, r))
		} else {
			seedRows.AppendRow(rowOf(full, r).Strs, rowOf(full, r).Ints)
		}
	}
	if err := seedRows.AssertSortedByPK(); err != nil {
		t.Fatal(err)
	}
	refSealed, err := storage.Build(full, storage.Options{ChunkSize: 150})
	if err != nil {
		t.Fatal(err)
	}
	q := parseQuery(t, `SELECT country, COHORTSIZE, AGE, Sum(gold), UserCount()
		FROM D BIRTH FROM action = "launch" COHORT BY country`)
	want, err := Execute(q, refSealed, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{2, 7} {
		seedSharded, err := storage.BuildSharded(seedRows, shards, storage.Options{ChunkSize: 150})
		if err != nil {
			t.Fatal(err)
		}
		lt, err := ingest.OpenSharded(seedSharded, ingest.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := lt.Append(lateRows); err != nil {
			t.Fatal(err)
		}
		got, err := ExecuteShards(q, shardInputsOf(lt.Views()), ExecOptions{Parallelism: -1})
		if err != nil {
			t.Fatal(err)
		}
		requireBitEqual(t, fmt.Sprintf("shards=%d pre-compaction", shards), got, want)
		if err := lt.CompactContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		if lt.DeltaRows() != 0 {
			t.Fatalf("shards=%d: %d delta rows survive compaction", shards, lt.DeltaRows())
		}
		got, err = ExecuteShards(q, shardInputsOf(lt.Views()), ExecOptions{Parallelism: -1})
		if err != nil {
			t.Fatal(err)
		}
		requireBitEqual(t, fmt.Sprintf("shards=%d post-compaction", shards), got, want)
		if err := lt.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
