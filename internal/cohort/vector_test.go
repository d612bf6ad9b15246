package cohort

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/activity"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/storage"
)

// runChunk pins chunk chunkIdx of c's table and scans it (scanPinned), as a
// schedule's lead does: the tests' way to run the kernel on one chunk. The
// error is non-nil only when a lazy load fails.
func (c *Compiled) runChunk(chunkIdx int, acc *Accumulator, skipUsers map[uint64]bool) (ChunkStats, error) {
	ch, release, err := c.tbl.PinChunk(chunkIdx)
	if err != nil {
		return ChunkStats{}, err
	}
	defer release()
	return c.scanPinned(ch, acc, skipUsers), nil
}

func vectorFixture(tb testing.TB) *storage.Table {
	return vectorFixtureChunked(tb, 120)
}

func vectorFixtureChunked(tb testing.TB, chunkSize int) *storage.Table {
	tb.Helper()
	full := gen.Generate(gen.Config{Users: 60, Days: 12, MeanActions: 8, Seed: 17})
	if err := full.SortByPK(); err != nil {
		tb.Fatal(err)
	}
	tbl, err := storage.Build(full, storage.Options{ChunkSize: chunkSize})
	if err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// mustMaterialize decodes tbl back to its sorted rows.
func mustMaterialize(tb testing.TB, tbl *storage.Table) *activity.Table {
	tb.Helper()
	rows, err := tbl.Materialize()
	if err != nil {
		tb.Fatal(err)
	}
	return rows
}

// rowReference is the chunk kernel's oracle: RowQuery.Scan over the table's
// materialized rows. It never prunes and never reads encoded data.
func rowReference(tb testing.TB, q *Query, rows *activity.Table) *Result {
	tb.Helper()
	rq, err := CompileRows(q, rows.Schema())
	if err != nil {
		tb.Fatal(err)
	}
	acc := NewAccumulator(len(q.Aggs))
	rq.Scan(rows, acc)
	return acc.Result(rq.KeyColNames(), q.Aggs)
}

// requireSameResult pins got to want bit for bit: identical rows, identical
// float64 bit patterns (including any NaN from Avg over an empty bucket).
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		g, w := got.Rows[i], want.Rows[i]
		if strings.Join(g.Cohort, "\x00") != strings.Join(w.Cohort, "\x00") ||
			g.Age != w.Age || g.Size != w.Size || len(g.Aggs) != len(w.Aggs) {
			t.Fatalf("%s row %d: got %+v, want %+v", label, i, g, w)
		}
		for j := range w.Aggs {
			if math.Float64bits(g.Aggs[j]) != math.Float64bits(w.Aggs[j]) {
				t.Fatalf("%s row %d agg %d: got %v (%#x), want %v (%#x)",
					label, i, j, g.Aggs[j], math.Float64bits(g.Aggs[j]),
					w.Aggs[j], math.Float64bits(w.Aggs[j]))
			}
		}
	}
}

// FuzzVectorizedExec is the chunk kernel's soundness contract: for ANY pair
// of conditions the compiler accepts, Run (pruning, pushdown, run-at-a-time
// kernels) must produce bit-identical results to RowQuery.Scan over the
// materialized rows — same cohorts, same ages, same float64 bits — across
// every aggregate function at once, at chunk sizes from one user per chunk
// up. Conditions reuse the pushdown fuzzer's generator, so in-dictionary and
// absent literals, out-of-range integers, IN/BETWEEN, AGE conjuncts (and the
// age cut they imply, up to bounds past int64), OR residuals and Birth()
// references all reach the kernels. The shape byte picks the COHORT BY list —
// string keys take the per-chunk cohort memo, time-binned and integer keys
// its fallback — whether the aggregates are all six functions or COUNT and
// USER_COUNT alone, the lists the whole-span fold serves, and the birth
// action: launch (every user's first row), shop (a birth row mid-block, and
// users with none), an action some chunks lack, or one no row performs —
// every case of the birth index.
func FuzzVectorizedExec(f *testing.F) {
	var tbls []*storage.Table
	for _, size := range []int{1, 7, 120} {
		tbls = append(tbls, vectorFixtureChunked(f, size))
	}
	rows := mustMaterialize(f, tbls[0])
	schema := rows.Schema()
	birthActions := []string{"launch", "shop", "achievement", "no-such"}
	if with, without := chunksWithAction(tbls[1], "achievement"); with == 0 || without == 0 {
		f.Fatalf("achievement is in %d chunks of the 7-row fixture and missing from %d: want both > 0", with, without)
	}
	cohortBys := [][]CohortKey{
		{{Col: "country"}},
		{{Col: "role"}},
		{{Col: "country"}, {Col: "role"}},
		{{Col: "time", Bin: Week}},
		{{Col: "session"}},
	}
	aggLists := [][]AggSpec{
		{
			{Func: Count},
			{Func: UserCount},
			{Func: Sum, Col: "gold"},
			{Func: Avg, Col: "session"},
			{Func: Min, Col: "gold"},
			{Func: Max, Col: "session"},
		},
		{{Func: UserCount}, {Func: Count}},
	}

	f.Add(byte(0), []byte{0}, []byte{0})
	f.Add(byte(2), []byte{1, 3, 2, 0, 1}, []byte{3, 1, 2, 2, 6, 0, 7, 7, 7})
	f.Add(byte(3), []byte{2, 5, 4, 1}, []byte{1, 0, 5, 2, 3, 9, 250, 17})
	f.Add(byte(4), []byte{}, []byte{7, 1, 6, 0, 2})
	// The age cut: AGE < 1 (an empty window), AGE = k, AGE BETWEEN lo AND
	// hi, bounds near MaxInt64 and past where birth + bound × unit leaves
	// int64, alone and after action = "shop", with both aggregate lists.
	for _, age := range [][]byte{
		{3, 2, 1},                   // AGE < 1
		{3, 0, 3},                   // AGE = 3
		{6, 2, 2, 5},                // AGE BETWEEN 2 AND 5
		{3, 2, 248},                 // AGE < MaxInt64
		{3, 3, 255},                 // AGE <= MaxInt64-7
		{3, 2, 240},                 // AGE < 200000000000000
		{6, 2, 1, 248},              // AGE BETWEEN 1 AND MaxInt64
		{0, 3, 1, 1, 4, 1, 3, 2, 4}, // action = "shop" AND AGE < 4
	} {
		f.Add(byte(0), []byte{}, age)
		f.Add(byte(7), []byte{}, age)
	}

	// Every birth action, with no σb, a birth-time range, a one-sided time
	// bound inside the window and a country equality.
	for a := range birthActions {
		for _, birth := range [][]byte{{}, {6, 1}, {2, 2, 4}, {0, 0, 1, 1, 0}} {
			f.Add(byte(10*a), birth, []byte{0, 3, 1, 1, 4})
			f.Add(byte(10*a+5), birth, []byte{})
		}
	}

	// The selection: two string conjuncts; a string conjunct and an integer
	// !=; a value absent from many chunks (USA) or from the table (Atlantis);
	// a Birth() residual after the selection; an empty window. Shapes 0 and
	// 10 fold SUM, COUNT, MIN, MAX, AVG and USER_COUNT in one query over
	// launch and shop cohorts.
	for _, age := range [][]byte{
		{0, 3, 1, 1, 4, 1, 0, 0, 1, 1, 0},       // action = "shop" AND country = "China"
		{0, 3, 1, 1, 4, 1, 1, 0, 1, 4, 1},       // action = "shop" AND gold != 5
		{1, 1, 1, 3, 1, 1, 0, 2, 0, 1, 3},       // session != 1 AND role != "dwarf"
		{0, 3, 1, 1, 4, 1, 0, 0, 1, 1, 1},       // action = "shop" AND country = "USA"
		{0, 0, 0, 1, 2, 1, 0, 3, 1, 1, 4},       // country != "Atlantis" AND action = "shop"
		{0, 3, 1, 1, 4, 1, 7, 1},                // action = "shop" AND country = Birth(country)
		{0, 3, 0, 1, 5, 2, 7, 1, 3, 4, 3, 5},    // action != "launch" AND country = Birth(country) AND AGE > 3
		{4, 3, 1, 4, 5, 1, 3, 2, 0},             // action IN ["shop", "launch"] AND AGE < 0
		{0, 1, 0, 1, 4, 2, 1, 0, 4, 3, 1, 4, 1}, // city != "shop" AND gold > 1 AND city IN ["China"]
	} {
		for _, shape := range []byte{0, 10, 17} {
			f.Add(shape, []byte{}, age)
		}
	}

	f.Fuzz(func(t *testing.T, shape byte, birthData, ageData []byte) {
		birthCond := condFromBytes(birthData)
		if expr.UsesBirth(birthCond) || expr.UsesAge(birthCond) {
			birthCond = nil // not a legal σb condition; keep the query valid
		}
		nShapes := len(cohortBys) * len(aggLists)
		q := &Query{
			BirthAction: birthActions[int(shape)/nShapes%len(birthActions)],
			BirthCond:   birthCond,
			AgeCond:     condFromBytes(ageData),
			CohortBy:    cohortBys[int(shape)%len(cohortBys)],
			Aggs:        aggLists[int(shape)/len(cohortBys)%len(aggLists)],
		}
		if err := q.Validate(schema); err != nil {
			return // ill-typed condition (e.g. unparseable date literal)
		}
		want := rowReference(t, q, rows)
		for _, tbl := range tbls {
			c, err := Compile(q, tbl)
			if err != nil {
				t.Fatalf("Compile after Validate: %v", err)
			}
			got, err := Run(c, RunOptions{})
			if err != nil {
				t.Fatalf("%d chunks: %v", tbl.NumChunks(), err)
			}
			requireSameResult(t, "chunk kernel vs row reference", got, want)
		}
	})
}

// TestVectorizedStats pins the kernel's counter contract: it reports batched
// rows and evaluated runs, and batches every row it scans.
func TestVectorizedStats(t *testing.T) {
	tbl := vectorFixture(t)
	q := &Query{
		BirthAction: "launch",
		BirthCond:   expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "country"}, R: expr.Lit{Val: expr.S("China")}},
		AgeCond:     expr.Cmp{Op: expr.OpGt, L: expr.Col{Name: "gold"}, R: expr.Lit{Val: expr.I(2)}},
		CohortBy:    []CohortKey{{Col: "country"}},
		Aggs:        []AggSpec{{Func: Sum, Col: "gold"}},
	}
	if err := q.Validate(tbl.Schema()); err != nil {
		t.Fatal(err)
	}
	c, err := Compile(q, tbl)
	if err != nil {
		t.Fatal(err)
	}

	var vec ExecStats
	if _, err := Run(c, RunOptions{Stats: &vec}); err != nil {
		t.Fatal(err)
	}
	if vec.RowsBatched.Load() == 0 || vec.RunsEvaluated.Load() == 0 {
		t.Fatalf("vectorized run reports no kernel activity: batched=%d runs=%d",
			vec.RowsBatched.Load(), vec.RunsEvaluated.Load())
	}
	if vec.RowsScanned.Load() != vec.RowsBatched.Load() {
		t.Fatalf("vectorized path scanned %d rows but batched %d — every scanned row should be batched",
			vec.RowsScanned.Load(), vec.RowsBatched.Load())
	}
}

// scanStats runs q over tbl, checks the result against the row oracle and
// returns the kernel's counters.
func scanStats(t *testing.T, tbl *storage.Table, q *Query) *ExecStats {
	t.Helper()
	if err := q.Validate(tbl.Schema()); err != nil {
		t.Fatal(err)
	}
	c, err := Compile(q, tbl)
	if err != nil {
		t.Fatal(err)
	}
	var st ExecStats
	got, err := Run(c, RunOptions{Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "chunk kernel vs row reference", got, rowReference(t, q, mustMaterialize(t, tbl)))
	if st.RowsScanned.Load() != st.RowsBatched.Load() {
		t.Fatalf("scanned %d rows but batched %d", st.RowsScanned.Load(), st.RowsBatched.Load())
	}
	return &st
}

// TestAgeBoundShrinksScan is Figure 9's shape read off the counters: the
// decode window ends at the age bound, so a tighter AGE < g scans fewer rows
// and skips the rest, while the unbounded query skips none.
func TestAgeBoundShrinksScan(t *testing.T) {
	tbl := vectorFixture(t)
	shop := expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "action"}, R: expr.Lit{Val: expr.S("shop")}}
	query := func(g int64) *Query {
		q := &Query{
			BirthAction: "launch",
			AgeCond:     shop,
			CohortBy:    []CohortKey{{Col: "country"}},
			Aggs:        []AggSpec{{Func: UserCount}, {Func: Sum, Col: "gold"}},
		}
		if g > 0 {
			q.AgeCond = expr.And{L: shop, R: expr.Cmp{Op: expr.OpLt, L: expr.Age{}, R: expr.Lit{Val: expr.I(g)}}}
		}
		return q
	}
	a2, a8, all := scanStats(t, tbl, query(2)), scanStats(t, tbl, query(8)), scanStats(t, tbl, query(0))
	if !(a2.RowsScanned.Load() < a8.RowsScanned.Load() && a8.RowsScanned.Load() < all.RowsScanned.Load()) {
		t.Fatalf("rows scanned AGE<2 %d, AGE<8 %d, unbounded %d: want strictly increasing",
			a2.RowsScanned.Load(), a8.RowsScanned.Load(), all.RowsScanned.Load())
	}
	if all.RowsSkippedByAge.Load() != 0 || a2.RowsSkippedByAge.Load() <= a8.RowsSkippedByAge.Load() {
		t.Fatalf("rows skipped by age AGE<2 %d, AGE<8 %d, unbounded %d: want decreasing to 0",
			a2.RowsSkippedByAge.Load(), a8.RowsSkippedByAge.Load(), all.RowsSkippedByAge.Load())
	}
	// The same users qualify at every bound: window + skipped is constant.
	for _, st := range []*ExecStats{a2, a8} {
		if n := st.RowsScanned.Load() + st.RowsSkippedByAge.Load(); n != all.RowsScanned.Load() {
			t.Fatalf("scanned + skipped = %d, want the unbounded scan %d", n, all.RowsScanned.Load())
		}
	}
}

// TestImpliedAgeBoundsNotReevaluated pins the window cut as the whole of an
// upper age bound: AGE < g and AGE <= g end the decode window at the bound,
// so no per-span AGE verdict is evaluated for them, while every other AGE
// shape is still evaluated once per age span of the window. The birth index
// is built by a first scan, so the second scan's EncodedChecks are the span
// verdicts alone.
func TestImpliedAgeBoundsNotReevaluated(t *testing.T) {
	tbl := vectorFixture(t)
	rows := mustMaterialize(t, tbl)
	schema := rows.Schema()
	actions, times := rows.Strings(schema.ActionCol()), rows.Ints(schema.TimeCol())
	age := func(op expr.CmpOp, v int64) expr.Expr {
		return expr.Cmp{Op: op, L: expr.Age{}, R: expr.Lit{Val: expr.I(v)}}
	}
	// spans counts, over every launch cohort member, the distinct ages in
	// [1, maxAge] of the block: the age spans a query bounded there walks.
	spans := func(maxAge int64) int64 {
		var n int64
		rows.UserBlocks(func(_ string, start, end int) {
			birth := slices.Index(actions[start:end], "launch")
			if birth < 0 {
				return
			}
			birth += start
			last := int64(0)
			for r := birth; r < end; r++ {
				if a := AgeOf(times[r], times[birth], Day); a > last && a <= maxAge {
					n, last = n+1, a
				}
			}
		})
		return n
	}
	for _, tc := range []struct {
		cond   expr.Expr
		maxAge int64
		checks bool
	}{
		{age(expr.OpLt, 4), 3, false},
		{age(expr.OpLe, 4), 4, false},
		{age(expr.OpEq, 3), 3, true},
		{expr.In{L: expr.Age{}, List: []expr.Value{expr.I(2), expr.I(4)}}, 4, true},
		{expr.Between{L: expr.Age{}, Lo: expr.I(2), Hi: expr.I(5)}, 5, true},
		{expr.And{L: age(expr.OpLt, 6), R: age(expr.OpGe, 2)}, 5, true},
	} {
		q := &Query{
			BirthAction: "launch",
			AgeCond:     tc.cond,
			CohortBy:    []CohortKey{{Col: "country"}},
			Aggs:        []AggSpec{{Func: UserCount}, {Func: Count}},
		}
		scanStats(t, tbl, q) // builds the birth index
		got := scanStats(t, tbl, q).EncodedChecks.Load()
		want := int64(0)
		if tc.checks {
			want = spans(tc.maxAge)
		}
		if got != want || tc.checks && want == 0 {
			t.Errorf("%s: %d per-span AGE verdicts, want %d", tc.cond, got, want)
		}
	}
}

// TestSelectionReadsSurvivorsOnly pins the selection's decoded bytes: for
// shop cohorts averaging gold over their shop tuples, the action codes of a
// decode window select its shop rows first, and only they pay for a time
// value — read one by one, or by one window decode when the selection is
// dense — and the aggregated ones for a measure.
func TestSelectionReadsSurvivorsOnly(t *testing.T) {
	tbl := vectorFixture(t)
	rows := mustMaterialize(t, tbl)
	schema := rows.Schema()
	actions, times := rows.Strings(schema.ActionCol()), rows.Ints(schema.TimeCol())
	q := &Query{
		BirthAction: "shop",
		AgeCond:     expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "action"}, R: expr.Lit{Val: expr.S("shop")}},
		CohortBy:    []CohortKey{{Col: "country"}},
		Aggs:        []AggSpec{{Func: Avg, Col: "gold"}, {Func: UserCount}},
	}
	var want int64
	rows.UserBlocks(func(_ string, start, end int) {
		birth := slices.Index(actions[start:end], "shop")
		if birth < 0 {
			return
		}
		birth += start
		var selected int
		for r := birth; r < end; r++ {
			if actions[r] == "shop" {
				selected++
				if AgeOf(times[r], times[birth], Day) > 0 {
					want += 8 // Avg(gold)
				}
			}
		}
		if denseSelection(selected, end-birth) {
			want += 8 * int64(end-birth)
		} else {
			want += 8 * int64(selected)
		}
	})
	st := scanStats(t, tbl, q)
	got, scanned := st.ValueBytesDecoded.Load(), st.RowsScanned.Load()
	if got != want || got >= 8*scanned {
		t.Fatalf("decoded %d value bytes over %d window rows, want %d and below 8 per window row", got, scanned, want)
	}
}

// chunksWithAction counts the chunks of tbl whose action column holds action
// and those whose does not.
func chunksWithAction(tbl *storage.Table, action string) (with, without int) {
	gid, ok := tbl.LookupString(tbl.Schema().ActionCol(), action)
	for i := 0; i < tbl.NumChunks(); i++ {
		if ok && tbl.ChunkMayHaveGID(i, tbl.Schema().ActionCol(), gid) {
			with++
		} else {
			without++
		}
	}
	return with, without
}

// bornIn counts the users of rows whose first action row — the birth tuple —
// falls in the time range [lo, hi]: the row oracle's births in range.
func bornIn(rows *activity.Table, action string, lo, hi int64) int64 {
	schema := rows.Schema()
	actions, times := rows.Strings(schema.ActionCol()), rows.Ints(schema.TimeCol())
	var n int64
	rows.UserBlocks(func(_ string, start, end int) {
		for r := start; r < end; r++ {
			if actions[r] == action {
				if lo <= times[r] && times[r] <= hi {
					n++
				}
				return
			}
		}
	})
	return n
}

// TestBirthRangeShrinksScan is Figure 8's shape read off the counters: σb's
// time range is tested on the birth index, so a narrower birth-time range
// skips more users without reading their blocks and scans fewer rows, and
// the users the kernel goes on to visit are exactly the row oracle's births
// in range. shop births sit mid-block, and some users never shop.
func TestBirthRangeShrinksScan(t *testing.T) {
	tbl := vectorFixture(t)
	rows := mustMaterialize(t, tbl)
	for _, tc := range []struct {
		action       string
		narrow, wide int64 // days past the window's start
	}{{"launch", 1, 6}, {"shop", 5, 9}} {
		t.Run(tc.action, func(t *testing.T) {
			action := tc.action
			query := func(days int64) *Query {
				return &Query{
					BirthAction: action,
					BirthCond: expr.Between{L: expr.Col{Name: "time"},
						Lo: expr.I(gen.StartTime), Hi: expr.I(gen.StartTime + days*activity.SecondsPerDay)},
					CohortBy: []CohortKey{{Col: "country"}},
					Aggs:     []AggSpec{{Func: UserCount}, {Func: Count}},
				}
			}
			var skipped []int64
			for _, days := range []int64{tc.narrow, tc.wide} {
				q := query(days)
				st := scanStats(t, tbl, q)
				c, err := Compile(q, tbl)
				if err != nil {
					t.Fatal(err)
				}
				var users int64
				for i := 0; i < tbl.NumChunks(); i++ {
					if !c.CanSkipChunk(i) {
						users += int64(tbl.ChunkUsers(i))
					}
				}
				visited := users - st.UsersSkippedByBirth.Load()
				if want := bornIn(rows, action, gen.StartTime, gen.StartTime+days*activity.SecondsPerDay); visited != want {
					t.Fatalf("%d-day range: visited %d users (%d in scanned chunks, %d skipped), oracle has %d births in range",
						days, visited, users, st.UsersSkippedByBirth.Load(), want)
				}
				skipped = append(skipped, st.UsersSkippedByBirth.Load())
			}
			if skipped[0] <= skipped[1] {
				t.Fatalf("users skipped by birth: %d-day range %d, %d-day range %d: want narrow > wide",
					tc.narrow, skipped[0], tc.wide, skipped[1])
			}
			narrow, wide := scanStats(t, tbl, query(tc.narrow)), scanStats(t, tbl, query(tc.wide))
			if !(0 < narrow.RowsScanned.Load() && narrow.RowsScanned.Load() < wide.RowsScanned.Load()) {
				t.Fatalf("rows scanned: %d-day birth range %d, %d-day range %d: want 0 < narrow < wide",
					tc.narrow, narrow.RowsScanned.Load(), tc.wide, wide.RowsScanned.Load())
			}
		})
	}
}

// TestBirthIndexSearchedOnce pins the birth index's reuse: the first scan of
// a chunk for a birth action runs the packed-code birth search — exactly the
// compares a per-block search for the first birth row makes — and every later
// scan for that action makes none. A query with no predicate to check counts
// nothing else, so its EncodedChecks is the search alone.
func TestBirthIndexSearchedOnce(t *testing.T) {
	tbl := vectorFixture(t)
	rows := mustMaterialize(t, tbl)
	actions := rows.Strings(rows.Schema().ActionCol())
	for _, action := range []string{"shop", "launch"} {
		q := &Query{
			BirthAction: action,
			CohortBy:    []CohortKey{{Col: "country"}},
			Aggs:        []AggSpec{{Func: UserCount}, {Func: Count}},
		}
		var want int64
		for i := 0; i < tbl.NumChunks(); i++ {
			lo, hi := tbl.RowOffset(i), tbl.RowOffset(i)+tbl.ChunkRows(i)
			if !slices.Contains(actions[lo:hi], action) {
				continue // pruned: the chunk is never scanned
			}
			rows.UserBlocks(func(_ string, start, end int) {
				if start < lo || start >= hi {
					return
				}
				if k := slices.Index(actions[start:end], action); k >= 0 {
					want += int64(k + 1)
				} else {
					want += int64(end - start)
				}
			})
		}
		if got := scanStats(t, tbl, q).EncodedChecks.Load(); got != want || want == 0 {
			t.Fatalf("%s: first scan made %d encoded checks, want the birth search's %d (> 0)", action, got, want)
		}
		if got := scanStats(t, tbl, q).EncodedChecks.Load(); got != 0 {
			t.Fatalf("%s: second scan made %d encoded checks, want 0: the birth index is reused", action, got)
		}
	}
}

// TestChunkScanAllocsPooled asserts the per-chunk scratch pooling: once the
// pool and the accumulator are warm, scanning a chunk allocates (almost)
// nothing — the env, key buffer, verdict tables, selection and code buffers
// all come from the recycled chunkScratch.
func TestChunkScanAllocsPooled(t *testing.T) {
	tbl := vectorFixture(t)
	q := &Query{
		BirthAction: "launch",
		AgeCond:     expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "action"}, R: expr.Lit{Val: expr.S("shop")}},
		CohortBy:    []CohortKey{{Col: "country"}},
		Aggs:        []AggSpec{{Func: Count}, {Func: Sum, Col: "gold"}},
	}
	if err := q.Validate(tbl.Schema()); err != nil {
		t.Fatal(err)
	}
	c, err := Compile(q, tbl)
	if err != nil {
		t.Fatal(err)
	}
	acc := NewAccumulator(c.NumAggs())
	// Warm: populate the accumulator's cohorts/buckets and the scratch pool.
	for i := 0; i < 2; i++ {
		for ci := 0; ci < tbl.NumChunks(); ci++ {
			if _, err := c.runChunk(ci, acc, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for ci := 0; ci < tbl.NumChunks(); ci++ {
			if _, err := c.runChunk(ci, acc, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	// Binding the pushed conjuncts to a chunk (closure and slice per
	// conjunct) is inherently per-chunk work, so the bound scales with the
	// chunk count — but NOT with rows: per-row or per-block allocation
	// across the ~480-row fixture would blow well past it.
	if max := float64(20 * tbl.NumChunks()); allocs > max {
		t.Fatalf("%v allocs per warm table scan over %d chunks, want <= %v",
			allocs, tbl.NumChunks(), max)
	}
}

// BenchmarkChunkScan runs the chunk kernel over one warm table at two
// activity densities. Sparse streams (few actions per day) are the kernel's
// worst case — run lengths collapse toward one — while dense streams (the
// paper's regime: hundreds of actions per user) leave the long same-age and
// same-action runs the kernels amortize over. Run with -cpuprofile to see
// where the kernel spends its time.
func BenchmarkChunkScan(b *testing.B) {
	for _, density := range []struct {
		name    string
		actions int
	}{{"sparse", 16}, {"dense", 300}} {
		full := gen.Generate(gen.Config{Users: 400, Days: 30, MeanActions: density.actions, Seed: 7})
		if err := full.SortByPK(); err != nil {
			b.Fatal(err)
		}
		tbl, err := storage.Build(full, storage.Options{ChunkSize: 4096})
		if err != nil {
			b.Fatal(err)
		}
		q := &Query{
			BirthAction: "launch",
			AgeCond: expr.And{
				L: expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "action"}, R: expr.Lit{Val: expr.S("shop")}},
				R: expr.Cmp{Op: expr.OpGt, L: expr.Col{Name: "gold"}, R: expr.Lit{Val: expr.I(5)}},
			},
			CohortBy: []CohortKey{{Col: "country"}},
			Aggs:     []AggSpec{{Func: Count}, {Func: Sum, Col: "gold"}},
		}
		if err := q.Validate(tbl.Schema()); err != nil {
			b.Fatal(err)
		}
		c, err := Compile(q, tbl)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(density.name, func(b *testing.B) {
			acc := NewAccumulator(c.NumAggs())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for ci := 0; ci < tbl.NumChunks(); ci++ {
					if _, err := c.runChunk(ci, acc, nil); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
