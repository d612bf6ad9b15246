package storage

import (
	"bytes"
	"testing"

	"repro/internal/activity"
	"repro/internal/gen"
)

// mustMaterialize decodes tbl back to row form, failing the test on error.
func mustMaterialize(t *testing.T, tbl *Table) *activity.Table {
	t.Helper()
	got, err := tbl.Materialize()
	if err != nil {
		t.Fatalf("materializing: %v", err)
	}
	return got
}

// assertRoundTrip serializes, deserializes and re-serializes st, checking
// the decoded table is structurally identical and the bytes are stable.
func assertRoundTrip(t *testing.T, st *Table) *Table {
	t.Helper()
	buf, err := st.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Deserialize(buf)
	if err != nil {
		t.Fatalf("deserializing own output: %v", err)
	}
	if back.NumRows() != st.NumRows() || back.NumUsers() != st.NumUsers() ||
		back.NumChunks() != st.NumChunks() || back.ChunkSize() != st.ChunkSize() {
		t.Fatalf("round trip changed shape: %d/%d/%d/%d -> %d/%d/%d/%d",
			st.NumRows(), st.NumUsers(), st.NumChunks(), st.ChunkSize(),
			back.NumRows(), back.NumUsers(), back.NumChunks(), back.ChunkSize())
	}
	buf2, err := back.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatal("serialization is not a fixed point")
	}
	return back
}

func TestSerializeRoundTripEmptyTable(t *testing.T) {
	empty := activity.NewTable(activity.GameSchema())
	if err := empty.SortByPK(); err != nil {
		t.Fatal(err)
	}
	st, err := Build(empty, Options{})
	if err != nil {
		t.Fatal(err)
	}
	back := assertRoundTrip(t, st)
	if back.NumRows() != 0 || back.NumChunks() != 0 {
		t.Fatalf("empty table round trip: rows=%d chunks=%d", back.NumRows(), back.NumChunks())
	}
	if got := mustMaterialize(t, back); got.Len() != 0 {
		t.Fatalf("materialized empty table has %d rows", got.Len())
	}
}

func TestSerializeRoundTripSingleUserChunks(t *testing.T) {
	src := gen.Generate(gen.Config{Users: 7, Days: 5, MeanActions: 6, Seed: 3})
	if err := src.SortByPK(); err != nil {
		t.Fatal(err)
	}
	// ChunkSize 1 closes a chunk at every user boundary: one user per chunk.
	st, err := Build(src, Options{ChunkSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumChunks() != st.NumUsers() {
		t.Fatalf("chunking: %d chunks for %d users, want one per user", st.NumChunks(), st.NumUsers())
	}
	for i := 0; i < st.NumChunks(); i++ {
		if n := pinned(t, st, i).NumUsers(); n != 1 {
			t.Fatalf("chunk %d holds %d users", i, n)
		}
	}
	back := assertRoundTrip(t, st)

	// The decoded table materializes back to the exact source rows.
	got := mustMaterialize(t, back)
	if got.Len() != src.Len() {
		t.Fatalf("materialized %d rows, want %d", got.Len(), src.Len())
	}
	schema := src.Schema()
	for c := 0; c < schema.NumCols(); c++ {
		for r := 0; r < src.Len(); r++ {
			if schema.IsStringCol(c) {
				if got.Strings(c)[r] != src.Strings(c)[r] {
					t.Fatalf("row %d col %d: %q != %q", r, c, got.Strings(c)[r], src.Strings(c)[r])
				}
			} else if got.Ints(c)[r] != src.Ints(c)[r] {
				t.Fatalf("row %d col %d: %d != %d", r, c, got.Ints(c)[r], src.Ints(c)[r])
			}
		}
	}
}

func TestSerializeRoundTripSingleUserTable(t *testing.T) {
	src := activity.NewTable(activity.PaperSchema())
	for i, a := range []string{"launch", "shop", "fight"} {
		if err := src.Append("solo", int64(1368928800+i*86400), a, "dwarf", "Australia", int64(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.SortByPK(); err != nil {
		t.Fatal(err)
	}
	st, err := Build(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumChunks() != 1 || st.NumUsers() != 1 {
		t.Fatalf("single-user table: %d chunks, %d users", st.NumChunks(), st.NumUsers())
	}
	assertRoundTrip(t, st)
}

// FuzzDeserialize: arbitrary bytes must produce a table or an error, never
// a panic — the catalog hardening depends on decode failures being clean.
func FuzzDeserialize(f *testing.F) {
	st, err := Build(activity.PaperTable1(), Options{ChunkSize: 4})
	if err != nil {
		f.Fatal(err)
	}
	good, err := st.Serialize()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte("COHANA1\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := Deserialize(data)
		if err == nil && tbl == nil {
			t.Fatal("Deserialize returned neither table nor error")
		}
	})
}

// FuzzDecodeChunkSegment: arbitrary segment bytes must produce a chunk or an
// error, never a panic — manifests hand this decoder raw on-disk files. And
// the encoding is canonical: whatever the decoder accepts re-serializes to
// the very bytes it was given, so a chunk has one byte form, one content
// hash and one file name, and no change can alter the format unnoticed.
func FuzzDecodeChunkSegment(f *testing.F) {
	st, err := Build(activity.PaperTable1(), Options{ChunkSize: 4})
	if err != nil {
		f.Fatal(err)
	}
	schema := st.Schema()
	for i := 0; i < st.NumChunks(); i++ {
		f.Add(chunkSegment(f, st, i))
	}
	good := chunkSegment(f, st, 0)
	f.Add(good[:len(good)/2])
	f.Add([]byte(chunkMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := new(segChunk)
		if err := decodeChunkSegment(sc, data, schema); err != nil {
			return
		}
		// A structurally valid segment must also survive assembly.
		tbl, err := assembleShard(schema, 4, []*segChunk{sc})
		if err != nil {
			return
		}
		if again := chunkSegment(t, tbl, 0); !bytes.Equal(again, data) {
			t.Fatalf("accepted segment does not re-serialize to itself:\n in  %x\n out %x", data, again)
		}
	})
}
