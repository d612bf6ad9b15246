package plan

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/activity"
	"repro/internal/cohort"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/storage"
)

// The chunk-granular compaction + incremental persistence contract (the
// ISSUE 4 tentpole pin): compacting a delta by re-encoding only the touched
// chunks and persisting only the new segments must yield query results — and
// reloaded on-disk state — bit-identical to a whole-shard/whole-table
// rebuild over the same rows, across shard counts {1, 2, 4} and both delta
// skews. And the persisted bytes must track the touched chunks: a hot-user
// (zipf) delta writes strictly fewer bytes than a uniform delta of equal row
// count.

// deltaRowsFor fabricates n delta rows cycling over users, with timestamps
// far above anything the generator emits (no sealed PK collisions) and a
// country value the generator never produces, so compaction must grow the
// global dictionaries and remap untouched chunks.
func deltaRowsFor(t *testing.T, schema *activity.Schema, users []string, n int) []ingest.Row {
	t.Helper()
	rows := make([]ingest.Row, 0, n)
	for i := 0; i < n; i++ {
		action := "shop"
		if i%5 == 0 {
			action = "launch"
		}
		r, err := ingest.RowFromValues(schema,
			users[i%len(users)], int64(2_000_000_000+i), action, "Novaland", "Newtown", "mage", int64(3), int64(i%50))
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
	}
	return rows
}

// tableOf collects ingest rows into a sorted activity table.
func tableOf(t *testing.T, schema *activity.Schema, rows []ingest.Row) *activity.Table {
	t.Helper()
	out := activity.NewTable(schema)
	for _, r := range rows {
		out.AppendRow(r.Strs, r.Ints)
	}
	if err := out.SortByPK(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestChunkGranularCompactionMatchesFullRebuild(t *testing.T) {
	full := gen.Generate(gen.Config{Users: 110, Days: 16, MeanActions: 11, Seed: 23, ZipfS: 1.2})
	if err := full.SortByPK(); err != nil {
		t.Fatal(err)
	}
	schema := full.Schema()
	var users []string
	full.UserBlocks(func(u string, _, _ int) { users = append(users, u) })

	// Uniform: every third existing user plus fresh users that sort past
	// every chunk range (boundary inserts). Zipf/hot: two existing users
	// plus one fresh. Equal row counts.
	var uniformUsers []string
	for i := 0; i < len(users); i += 3 {
		uniformUsers = append(uniformUsers, users[i])
	}
	uniformUsers = append(uniformUsers, "zz-fresh-0", "zz-fresh-1", "zz-fresh-2")
	zipfUsers := []string{users[len(users)/4], users[len(users)/2], "zz-fresh-9"}
	const deltaN = 600

	rng := rand.New(rand.NewSource(7))
	sources := make([]string, 0, 12)
	for len(sources) < 12 {
		sources = append(sources, randomQuery(rng))
	}
	queries := make([]*cohort.Query, len(sources))
	for i, src := range sources {
		queries[i] = parseQuery(t, src)
	}

	runAll := func(inputs []ShardInput) []*cohort.Result {
		t.Helper()
		out := make([]*cohort.Result, len(queries))
		for i, q := range queries {
			res, err := ExecuteShards(q, inputs, ExecOptions{Parallelism: -1})
			if err != nil {
				t.Fatalf("query %q: %v", sources[i], err)
			}
			out[i] = res
		}
		return out
	}
	sealedInputs := func(s *storage.Sharded) []ShardInput {
		inputs := make([]ShardInput, s.NumShards())
		for i := range inputs {
			inputs[i] = ShardInput{Sealed: s.Shard(i)}
		}
		return inputs
	}

	for _, shards := range []int{1, 2, 4} {
		bytesByShape := map[string]int64{}
		for _, shape := range []struct {
			name  string
			users []string
		}{{"uniform", uniformUsers}, {"zipf", zipfUsers}} {
			delta := deltaRowsFor(t, schema, shape.users, deltaN)

			// Reference: a whole-table rebuild over sealed + delta rows.
			merged, err := activity.MergeSorted(full, tableOf(t, schema, delta))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := storage.BuildSharded(merged, shards, storage.Options{ChunkSize: 200})
			if err != nil {
				t.Fatal(err)
			}
			wants := runAll(sealedInputs(ref))

			// Chunk-granular path: live table over the sealed tier, delta
			// appended, compacted, every compaction committed incrementally.
			sealed, err := storage.BuildSharded(full, shards, storage.Options{ChunkSize: 200})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "prop.cohana")
			if _, err := storage.CommitSharded(path, sealed); err != nil {
				t.Fatal(err)
			}
			var persisted storage.CommitStats
			lt, err := ingest.OpenSharded(sealed, ingest.Config{
				ChunkSize: 200,
				Persist: func(d storage.LayoutDelta) error {
					st, err := storage.CommitSharded(path, d.Layout)
					if err == nil {
						persisted.Add(st)
					}
					return err
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := lt.Append(delta); err != nil {
				t.Fatal(err)
			}
			if err := lt.CompactContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("shards=%d %s", shards, shape.name)
			st := lt.Stats()
			if st.DeltaRows != 0 || st.SealedRows != merged.Len() {
				t.Fatalf("%s: post-compaction stats %+v, want %d sealed rows", label, st, merged.Len())
			}
			gots := runAll(shardInputsOf(lt.Views()))
			for i := range queries {
				requireBitEqual(t, label+" live: "+sources[i], gots[i], wants[i])
			}
			if err := lt.Close(); err != nil {
				t.Fatal(err)
			}

			// The committed files reload into equivalent state: same totals,
			// bit-identical results.
			back, err := storage.ReadSharded(path)
			if err != nil {
				t.Fatal(err)
			}
			if back.NumRows() != merged.Len() || back.NumUsers() != merged.NumUsers() || back.NumShards() != shards {
				t.Fatalf("%s: reloaded %d rows / %d users / %d shards, want %d / %d / %d",
					label, back.NumRows(), back.NumUsers(), back.NumShards(), merged.Len(), merged.NumUsers(), shards)
			}
			reloaded := runAll(sealedInputs(back))
			for i := range queries {
				requireBitEqual(t, label+" reloaded: "+sources[i], reloaded[i], wants[i])
			}

			// The hot-user compaction must be surgical: chunks untouched by
			// the delta are carried over, and their on-disk segments reused.
			if shape.name == "zipf" {
				if st.ChunksReused == 0 {
					t.Fatalf("%s: no chunks reused — compaction rebuilt the whole shard", label)
				}
				if persisted.SegmentsReused == 0 {
					t.Fatalf("%s: no segments reused — commit rewrote the whole layout", label)
				}
			}
			bytesByShape[shape.name] = persisted.BytesWritten
		}
		if bytesByShape["zipf"] >= bytesByShape["uniform"] {
			t.Fatalf("shards=%d: zipf delta persisted %d bytes, want strictly fewer than uniform's %d",
				shards, bytesByShape["zipf"], bytesByShape["uniform"])
		}
	}
}
