package plan

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/activity"
	"repro/internal/cohort"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/storage"
)

// The streaming equivalence contract: each worker folds the chunks it takes
// from the query's one schedule, whatever their shard, into an accumulator
// of its own, merged once, so a parallel or pooled execution must be
// bit-identical to a one-worker execution for ANY query, shard count, and
// ingest state. The property test draws random queries from the full clause
// space and checks shard counts {1, 2, 4}, sealed-only and mid-ingest (delta
// rows riding the union path), with and without a shared worker pool. The
// results themselves are pinned to the row reference by
// TestShardedExecutionMatchesSingleTableProperty and the cohort fuzz target.
func TestStreamingPushdownMatchesMaterializedProperty(t *testing.T) {
	full := gen.Generate(gen.Config{Users: 110, Days: 16, MeanActions: 12, Seed: 41, ZipfS: 1.3})
	if err := full.SortByPK(); err != nil {
		t.Fatal(err)
	}
	schema := full.Schema()

	seedRows := activity.NewTable(schema)
	var lateRows []ingest.Row
	for r := 0; r < full.Len(); r++ {
		if r%5 == 2 {
			lateRows = append(lateRows, rowOf(full, r))
		} else {
			seedRows.AppendRow(rowOf(full, r).Strs, rowOf(full, r).Ints)
		}
	}
	if err := seedRows.AssertSortedByPK(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	sources := make([]string, 0, 20)
	queries := make([]*cohort.Query, 0, 20)
	for len(queries) < 20 {
		src := randomQuery(rng)
		queries = append(queries, parseQuery(t, src))
		sources = append(sources, src)
	}

	// The reference mode: one worker, so chunks fold in schedule order.
	refOpts := ExecOptions{Parallelism: 1}

	pool := cohort.NewPool(3)
	defer pool.Close()
	for _, shards := range []int{1, 2, 4} {
		sharded, err := storage.BuildSharded(full, shards, storage.Options{ChunkSize: 200})
		if err != nil {
			t.Fatal(err)
		}
		inputs := make([]ShardInput, sharded.NumShards())
		for i := range inputs {
			inputs[i] = ShardInput{Sealed: sharded.Shard(i)}
		}
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
			want, err := ExecuteShards(q, inputs, refOpts)
			if err != nil {
				t.Fatalf("%s reference: %v", label, err)
			}
			got, err := ExecuteShards(q, inputs, ExecOptions{Parallelism: -1})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireBitEqual(t, label+" [sealed,parallel]", got, want)
			got, err = ExecuteShards(q, inputs, ExecOptions{Parallelism: -1, Pool: pool})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireBitEqual(t, label+" [sealed,pool]", got, want)

			liveWant, err := ExecuteShards(q, liveInputs, refOpts)
			if err != nil {
				t.Fatalf("%s live reference: %v", label, err)
			}
			liveGot, err := ExecuteShards(q, liveInputs, ExecOptions{Parallelism: -1})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireBitEqual(t, label+" [mid-ingest,parallel]", liveGot, liveWant)
			liveGot, err = ExecuteShards(q, liveInputs, ExecOptions{Parallelism: -1, Pool: pool})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireBitEqual(t, label+" [mid-ingest,pool]", liveGot, liveWant)
		}
		if err := lt.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPushdownDecodesFewerBytes pins the point of decoder-level predicates:
// with every conjunct pushed, the kernel selects each qualified user's decode
// window (birth row to block end, the query has no age bound) on encoded
// codes first, then decodes time values for the selected rows only — one by
// one, or the whole window when enough of it is selected — and the measure
// of each surviving age row: never a string, never a value of a user with no
// selected row. The bounds are computed from the materialized rows.
func TestPushdownDecodesFewerBytes(t *testing.T) {
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
	rows := mustMaterialize(t, sealed)
	schema := rows.Schema()
	actions, countries := rows.Strings(schema.ActionCol()), rows.Strings(schema.ColIndex("country"))
	times, gold := rows.Ints(schema.TimeCol()), rows.Ints(schema.ColIndex("gold"))
	// Time bytes lie between the selected rows' and the whole windows' of
	// the users with a selected row; measure bytes are exact.
	var wantRows, minBytes, maxBytes, windowBytes int64
	rows.UserBlocks(func(_ string, start, end int) {
		birth := -1
		for r := start; r < end && birth < 0; r++ {
			if actions[r] == "launch" {
				birth = r
			}
		}
		if birth < 0 || countries[birth] != "China" {
			return
		}
		wantRows += int64(end - birth) // the decode window: birth row to block end
		windowBytes += 8 * int64(end-birth)
		var selected int64
		for r := birth; r < end; r++ {
			if actions[r] != "shop" || gold[r] <= 5 {
				continue
			}
			selected++
			if cohort.AgeOf(times[r], times[birth], q.AgeUnit) > 0 {
				minBytes += 8 // Sum(gold)
				maxBytes += 8
			}
		}
		minBytes += 8 * selected
		if selected > 0 {
			maxBytes += 8 * int64(end-birth)
		}
	})
	if wantRows == 0 {
		t.Fatal("fixture has no qualified user")
	}

	var stats cohort.ExecStats
	got, err := ExecuteShards(q, []ShardInput{{Sealed: sealed}}, ExecOptions{Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "pushdown vs row reference", got, rowReference(t, q, rows))
	if n := stats.RowsScanned.Load(); n != wantRows {
		t.Fatalf("scanned %d rows, want %d (the qualified users' decode windows)", n, wantRows)
	}
	if n := stats.ValueBytesDecoded.Load(); n < minBytes || n > maxBytes || n >= windowBytes {
		t.Fatalf("decoded %d value bytes, want [%d, %d] and below the windows' time values %d",
			n, minBytes, maxBytes, windowBytes)
	}
	if stats.EncodedChecks.Load() == 0 {
		t.Fatal("pushdown path reports zero encoded-domain checks")
	}
}
