package plan

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/activity"
	"repro/internal/cohort"
	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/storage"
)

// The union path's correctness contract: for any split of an activity table
// into a sealed tier and a delta tier, executing against (sealed + delta)
// must produce exactly the result of executing against the whole table
// sealed at once. The split below is adversarial: existing users gain late
// delta tuples (their sealed blocks must re-route through the row path),
// brand-new users appear only in the delta, and a delta-only dimension value
// ("Atlantis") exercises cohort keys that no sealed dictionary contains.

// copyRow appends row r of src to dst.
func copyRow(dst, src *activity.Table, r int) {
	schema := src.Schema()
	strs := make([]string, schema.NumCols())
	ints := make([]int64, schema.NumCols())
	for c := 0; c < schema.NumCols(); c++ {
		if schema.IsStringCol(c) {
			strs[c] = src.Strings(c)[r]
		} else {
			ints[c] = src.Ints(c)[r]
		}
	}
	dst.AppendRow(strs, ints)
}

// deltaOnlyRows are the rows of brand-new users, one with a dimension value
// no sealed dictionary holds.
var deltaOnlyRows = [][]any{
	{"zz-new-1", int64(1369000000), "launch", "Atlantis", "Thera", "dwarf", int64(10), int64(0)},
	{"zz-new-1", int64(1369090000), "shop", "Atlantis", "Thera", "dwarf", int64(5), int64(42)},
	{"zz-new-2", int64(1369000500), "launch", "China", "Beijing", "wizard", int64(7), int64(0)},
	{"zz-new-2", int64(1369100500), "shop", "China", "Beijing", "wizard", int64(3), int64(9)},
}

var unionQueries = []string{
	// Retention, no conditions.
	`SELECT country, COHORTSIZE, AGE, UserCount()
	 FROM D BIRTH FROM action = "launch" COHORT BY country`,
	// Birth date range + aggregate over a measure.
	`SELECT country, COHORTSIZE, AGE, Sum(gold)
	 FROM D BIRTH FROM action = "shop" AND time BETWEEN "2013-05-21" AND "2013-05-30"
	 COHORT BY country`,
	// Age condition with a Birth() reference and multi-attribute cohorts.
	`SELECT country, COHORTSIZE, AGE, Avg(gold), Count()
	 FROM D BIRTH FROM action = "shop"
	 AGE ACTIVITIES IN action = "shop" AND country = Birth(country)
	 COHORT BY country, role`,
	// Time-binned cohorts (week bins) with min/max aggregates.
	`SELECT COHORTSIZE, AGE, Min(session), Max(session)
	 FROM D BIRTH FROM action = "launch" AND role = "dwarf"
	 COHORT BY time(week)`,
	// Age-bounded retention.
	`SELECT country, COHORTSIZE, AGE, UserCount()
	 FROM D BIRTH FROM action = "launch"
	 AGE ACTIVITIES IN AGE < 7 COHORT BY country`,
}

func TestUnionExecutionMatchesSealedExecution(t *testing.T) {
	full := gen.Generate(gen.Config{Users: 90, Days: 20, MeanActions: 14, Seed: 7})
	if err := full.SortByPK(); err != nil {
		t.Fatal(err)
	}
	schema := full.Schema()

	// Split: roughly 1 in 5 rows become delta rows, keyed on the row index
	// so existing users end up with tuples in both tiers.
	sealedRows := activity.NewTable(schema)
	delta := activity.NewTable(schema)
	for r := 0; r < full.Len(); r++ {
		if r%5 == 2 {
			copyRow(delta, full, r)
		} else {
			copyRow(sealedRows, full, r)
		}
	}
	// Brand-new users go into the delta and the reference table alike.
	reference := activity.NewTable(schema)
	for r := 0; r < full.Len(); r++ {
		copyRow(reference, full, r)
	}
	for _, vals := range deltaOnlyRows {
		if err := delta.Append(vals...); err != nil {
			t.Fatal(err)
		}
		if err := reference.Append(vals...); err != nil {
			t.Fatal(err)
		}
	}
	if err := sealedRows.SortByPK(); err != nil {
		t.Fatal(err)
	}
	if err := delta.SortByPK(); err != nil {
		t.Fatal(err)
	}
	if err := reference.SortByPK(); err != nil {
		t.Fatal(err)
	}

	// Small chunks so the sealed fan-out and pruning actually run.
	sealed, err := storage.Build(sealedRows, storage.Options{ChunkSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	refSealed, err := storage.Build(reference, storage.Options{ChunkSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	preUnion, err := cohort.BuildUnionDelta(sealed, delta)
	if err != nil {
		t.Fatal(err)
	}

	for qi, src := range unionQueries {
		q := parseQuery(t, src)
		want, err := Execute(q, refSealed, ExecOptions{Parallelism: -1})
		if err != nil {
			t.Fatalf("query %d reference: %v", qi, err)
		}
		for _, parallelism := range []int{0, -1} {
			for _, in := range []ShardInput{
				{Sealed: sealed, Delta: delta},                  // per-query union build
				{Sealed: sealed, Delta: delta, Union: preUnion}, // fully precomputed (the ingest View path)
			} {
				got, err := ExecuteShards(q, []ShardInput{in}, ExecOptions{Parallelism: parallelism})
				if err != nil {
					t.Fatalf("query %d union: %v", qi, err)
				}
				if !got.Equal(want) {
					t.Fatalf("query %d (parallelism=%d, pre=%v): union result differs from sealed reference:\n%s",
						qi, parallelism, in.Union != nil, got.Diff(want))
				}
			}
		}
	}
}

// TestUnionEmptyDeltaFallsThrough pins the fast path: a nil or empty delta
// must not change execution.
func TestUnionEmptyDeltaFallsThrough(t *testing.T) {
	full := gen.Generate(gen.Config{Users: 30, Days: 10, MeanActions: 8, Seed: 5})
	if err := full.SortByPK(); err != nil {
		t.Fatal(err)
	}
	sealed, err := storage.Build(full, storage.Options{ChunkSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	q := parseQuery(t, unionQueries[0])
	want, err := Execute(q, sealed, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []*activity.Table{nil, activity.NewTable(full.Schema())} {
		got, err := ExecuteShards(q, []ShardInput{{Sealed: sealed, Delta: delta}}, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("empty delta changed the result:\n%s", got.Diff(want))
		}
	}
}

func parseQuery(t *testing.T, src string) *cohort.Query {
	t.Helper()
	stmt, err := parser.ParseCohort(src)
	if err != nil {
		t.Fatalf("parsing %q: %v", src, err)
	}
	return stmt.Query
}

// FuzzUnionExec is the union path's soundness contract under any split: a
// generated table is cut into a sealed tier and a delta tier user by user —
// users who stay sealed, users who exist only in the delta, existing users
// who gain interleaved delta rows, and users whose delta rows predate their
// sealed ones — plus delta-only users carrying dictionary values no sealed
// tier holds ("Atlantis"). ExecuteShards over the per-shard unions must
// return results bit-identical to the baseline oracle over all rows, at
// chunk sizes 1, 7 and 120, over 1 and 2 shards, with the union input
// prebuilt (the ingest View path) or built per query, and with and without
// a shared pool.
func FuzzUnionExec(f *testing.F) {
	full := gen.Generate(gen.Config{Users: 40, Days: 12, MeanActions: 8, Seed: 23})
	if err := full.SortByPK(); err != nil {
		f.Fatal(err)
	}
	schema := full.Schema()
	extras := activity.NewTable(schema)
	for _, vals := range deltaOnlyRows {
		if err := extras.Append(vals...); err != nil {
			f.Fatal(err)
		}
	}
	reference := activity.NewTable(schema)
	for _, src := range []*activity.Table{full, extras} {
		for r := 0; r < src.Len(); r++ {
			copyRow(reference, src, r)
		}
	}
	if err := reference.SortByPK(); err != nil {
		f.Fatal(err)
	}
	type block struct{ start, end int }
	var blocks []block
	full.UserBlocks(func(_ string, start, end int) { blocks = append(blocks, block{start, end}) })
	chunkSizes := []int{1, 7, 120}
	pool := cohort.NewPool(2)
	f.Cleanup(pool.Close)

	f.Add(int64(1), []byte{}, byte(0))
	f.Add(int64(2), []byte{0, 1, 2, 3}, byte(1))
	f.Add(int64(3), []byte{1}, byte(5))     // every user but the first only in the delta, 2 shards
	f.Add(int64(4), []byte{2, 3}, byte(8))  // interleaved and earlier delta rows, prebuilt
	f.Add(int64(5), []byte{3, 0}, byte(14)) // pooled, 2 shards, chunk size 120
	f.Add(int64(6), []byte{2}, byte(21))
	f.Fuzz(func(t *testing.T, qseed int64, split []byte, shape byte) {
		chunkSize := chunkSizes[int(shape)%len(chunkSizes)]
		shards := 1 + int(shape/3)%2
		prebuilt := (shape/6)%2 == 1
		opts := ExecOptions{Parallelism: -1}
		if (shape/12)%2 == 1 {
			opts.Pool = pool
		}

		sealedRows := activity.NewTable(schema)
		deltas := make([]*activity.Table, shards)
		for i := range deltas {
			deltas[i] = activity.NewTable(schema)
		}
		toDelta := func(src *activity.Table, r int) {
			user := src.Strings(schema.UserCol())[r]
			copyRow(deltas[storage.ShardOf(user, shards)], src, r)
		}
		for u, b := range blocks {
			mode := 0 // the first user stays sealed, so the sealed tier is never empty
			if len(split) > 0 && u > 0 {
				mode = int(split[u%len(split)]) % 4
			}
			for r := b.start; r < b.end; r++ {
				k := r - b.start
				switch {
				case mode == 1, // only in the delta
					mode == 2 && k%2 == 1,              // interleaved delta rows
					mode == 3 && k < (b.end-b.start)/2: // delta rows before the sealed ones
					toDelta(full, r)
				default:
					copyRow(sealedRows, full, r)
				}
			}
		}
		for r := 0; r < extras.Len(); r++ {
			toDelta(extras, r)
		}
		if err := sealedRows.SortByPK(); err != nil {
			t.Fatal(err)
		}
		sealed, err := storage.BuildSharded(sealedRows, shards, storage.Options{ChunkSize: chunkSize})
		if err != nil {
			t.Fatal(err)
		}
		inputs := make([]ShardInput, shards)
		for i, delta := range deltas {
			if err := delta.SortByPK(); err != nil {
				t.Fatal(err)
			}
			inputs[i] = ShardInput{Sealed: sealed.Shard(i), Delta: delta}
			if prebuilt && delta.Len() > 0 {
				if inputs[i].Union, err = cohort.BuildUnionDelta(sealed.Shard(i), delta); err != nil {
					t.Fatal(err)
				}
			}
		}

		src := randomQuery(rand.New(rand.NewSource(qseed)))
		q := parseQuery(t, src)
		label := fmt.Sprintf("query=%q chunk=%d shards=%d prebuilt=%v pool=%v", src, chunkSize, shards, prebuilt, opts.Pool != nil)
		got, err := ExecuteShards(q, inputs, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireBitEqual(t, label, got, rowReference(t, q, reference))
	})
}
