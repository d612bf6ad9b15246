package cohana

// Whole-engine invariant tests: results must be independent of physical
// configuration (chunk size, parallelism, serialization round trips), and
// corrupted storage must fail cleanly rather than panic.

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/parser"
	"repro/internal/storage"
)

// invariantQueries exercises all three operators plus Birth() and AGE.
var invariantQueries = []string{
	`SELECT country, COHORTSIZE, AGE, UserCount()
	 FROM G BIRTH FROM action = "launch" COHORT BY country`,
	`SELECT country, COHORTSIZE, AGE, Avg(gold), Count()
	 FROM G BIRTH FROM action = "shop" AND time BETWEEN "2013-05-20" AND "2013-06-01"
	 AGE ACTIVITIES IN action = "shop" AND country = Birth(country)
	 COHORT BY country`,
	`SELECT COHORTSIZE, AGE, Sum(gold), Min(session), Max(session)
	 FROM G BIRTH FROM action = "launch"
	 AGE ACTIVITIES IN AGE < 10
	 COHORT BY time(week), role`,
}

// TestResultsInvariantToPhysicalConfig runs each query under every
// combination of chunk size and parallelism and requires identical results.
func TestResultsInvariantToPhysicalConfig(t *testing.T) {
	table := Generate(GenConfig{Users: 150, Seed: 13})
	type cfg struct {
		chunk, par int
	}
	cfgs := []cfg{
		{0, 0},       // paper defaults: 256K chunks, single-threaded
		{256, 0},     // many chunks
		{1024, 4},    // multi-chunk, fixed parallelism
		{256, -1},    // many chunks, GOMAXPROCS workers
		{1 << 20, 0}, // single chunk
	}
	for qi, src := range invariantQueries {
		var want *Result
		for _, c := range cfgs {
			eng, err := NewEngine(table, Options{ChunkSize: c.chunk, Parallelism: c.par})
			if err != nil {
				t.Fatal(err)
			}
			out, err := eng.Query(context.Background(), src)
			if err != nil {
				t.Fatalf("query %d cfg %+v: %v", qi, c, err)
			}
			got := out.Cohort
			if want == nil {
				want = got
				if len(got.Rows) == 0 {
					t.Fatalf("query %d returned no rows; invariant test is vacuous", qi)
				}
				continue
			}
			if d := want.Diff(got); d != "" {
				t.Errorf("query %d cfg %+v differs: %s", qi, c, d)
			}
		}
	}
}

// TestResultsSurviveSerializationRoundTrip runs the queries before and
// after a Serialize/Deserialize cycle.
func TestResultsSurviveSerializationRoundTrip(t *testing.T) {
	table := Generate(GenConfig{Users: 100, Seed: 17})
	eng, err := NewEngine(table, Options{ChunkSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/t.cohana"
	if err := eng.Save(context.Background(), path); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for qi, src := range invariantQueries {
		a, b := query(t, eng, src).Cohort, query(t, re, src).Cohort
		if d := a.Diff(b); d != "" {
			t.Errorf("query %d differs after round trip: %s", qi, d)
		}
	}
}

// TestDeserializeNeverPanics injects random corruption — truncation, byte
// flips, random garbage — into a serialized table and requires Deserialize
// to either succeed or return an error, never panic. (A successful decode of
// a corrupted payload is acceptable: checksums are out of scope; the format
// must only be safe, not tamper-evident.)
func TestDeserializeNeverPanics(t *testing.T) {
	table := Generate(GenConfig{Users: 30, Seed: 19})
	eng, err := NewEngine(table, Options{ChunkSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/t.cohana"
	if err := eng.Save(context.Background(), path); err != nil {
		t.Fatal(err)
	}
	// Save writes a v2 manifest; grab the (single) shard back and serialize
	// it in the legacy single-table format the fuzzing below mutates.
	sh, err := storage.ReadSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := sh.Shard(0).Serialize()
	if err != nil {
		t.Fatal(err)
	}
	check := func(mutate func(rng *rand.Rand, b []byte) []byte) func(int64) bool {
		return func(seed int64) (ok bool) {
			defer func() {
				if r := recover(); r != nil {
					t.Logf("panic: %v", r)
					ok = false
				}
			}()
			rng := rand.New(rand.NewSource(seed))
			b := mutate(rng, append([]byte(nil), buf...))
			_, _ = storage.Deserialize(b)
			return true
		}
	}
	truncate := check(func(rng *rand.Rand, b []byte) []byte {
		return b[:rng.Intn(len(b))]
	})
	flip := check(func(rng *rand.Rand, b []byte) []byte {
		for i := 0; i < 8; i++ {
			b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
		}
		return b
	})
	garbage := check(func(rng *rand.Rand, b []byte) []byte {
		g := make([]byte, rng.Intn(4096))
		rng.Read(g)
		return append(b[:len("COHANA1\n")], g...) // valid magic, junk body
	})
	for name, f := range map[string]func(int64) bool{
		"truncate": truncate, "flip": flip, "garbage": garbage,
	} {
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestConditionRoundTripsThroughParser checks that the String() rendering
// of parsed conditions re-parses to the same rendering — the property that
// makes Explain output and error messages trustworthy.
func TestConditionRoundTripsThroughParser(t *testing.T) {
	queries := []string{
		`SELECT c, Count() FROM G BIRTH FROM action = "x" AND (a = "p" OR NOT b != "q") COHORT BY c`,
		`SELECT c, Count() FROM G BIRTH FROM action = "x" AND t BETWEEN "2013-05-20" AND "2013-05-22" COHORT BY c`,
		`SELECT c, Count() FROM G BIRTH FROM action = "x" AND v IN ["a", "b"] AND g >= 3 COHORT BY c`,
		`SELECT c, Count() FROM G BIRTH FROM action = "x" AGE ACTIVITIES IN AGE < 5 AND r = Birth(r) COHORT BY c`,
	}
	for _, src := range queries {
		q1 := mustParse(t, src)
		render := func(q *Query) [2]string {
			var b, a string
			if q.BirthCond != nil {
				b = q.BirthCond.String()
			}
			if q.AgeCond != nil {
				a = q.AgeCond.String()
			}
			return [2]string{b, a}
		}
		r1 := render(q1)
		// Re-embed the rendered conditions in a fresh query and reparse.
		src2 := `SELECT c, Count() FROM G BIRTH FROM action = "x"`
		if r1[0] != "" {
			src2 += ` AND ` + r1[0]
		}
		if r1[1] != "" {
			src2 += ` AGE ACTIVITIES IN ` + r1[1]
		}
		src2 += ` COHORT BY c`
		q2 := mustParse(t, src2)
		if r2 := render(q2); r1 != r2 {
			t.Errorf("condition round trip changed:\n%q\n%q", r1, r2)
		}
	}
}

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	// Parse through the public Query path far enough to get the AST; use a
	// tiny engine so attribute resolution is irrelevant.
	stmt, err := parseForTest(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return stmt
}

// parseForTest exposes the parser to the invariant tests without importing
// internal/parser in every test file.
func parseForTest(src string) (*Query, error) {
	stmt, err := parser.ParseCohort(src)
	if err != nil {
		return nil, err
	}
	return stmt.Query, nil
}
