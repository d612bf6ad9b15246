package cohort

import (
	"math"
	"testing"

	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/storage"
)

// The pushdown soundness contract: for ANY conjunction the compiler accepts,
// evaluating the pushed conjuncts on encoded ids plus the residual on the
// generic path must reach exactly the verdict of compiling the whole
// condition with expr.Compile and decoding every value. The fuzzer below
// derives arbitrary well-typed conditions from raw bytes — in-dictionary and
// absent string literals, in-range and out-of-range integers, flipped
// comparisons, IN lists, BETWEEN ranges, AGE conjuncts, OR residuals — and
// compares the two evaluations on every row of every chunk.

// condFromBytes derives a conjunction of 1-4 well-typed conjuncts from the
// fuzz input. Every byte consumed steers one choice, so the fuzzer can reach
// any shape; an exhausted input yields zeros, which still produce a valid
// condition.
func condFromBytes(data []byte) expr.Expr {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	// Literal pools: values that exist in the fixture, values that do not,
	// and integers straddling typical chunk ranges.
	strCols := []string{"country", "city", "role", "action"}
	strLits := []string{"China", "USA", "Atlantis", "dwarf", "shop", "launch", "no-such", ""}
	intCols := []string{"gold", "session"}
	intLits := []int64{-1000000, -1, 0, 1, 5, 20, 100, 1 << 40}
	timeLits := []string{"2013-05-20", "2013-06-01", "1970-01-01", "299-12-31", "2013-05-25"}

	strLit := func() expr.Value { return expr.S(strLits[int(next())%len(strLits)]) }
	// AGE literals: small ages, and bounds so large that birth + bound ×
	// unit leaves int64 — the kernel's age cut must saturate there.
	ageLit := func() int64 {
		switch b := next(); {
		case b >= 248:
			return math.MaxInt64 - int64(b-248)
		case b >= 240:
			return 200000000000000 + int64(b-240)
		default:
			return int64(b % 12)
		}
	}
	ops := []expr.CmpOp{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}

	conjunct := func() expr.Expr {
		switch next() % 8 {
		case 0: // string equality / inequality, possibly literal-first
			c := expr.Col{Name: strCols[int(next())%len(strCols)]}
			op := expr.OpEq
			if next()%2 == 0 {
				op = expr.OpNe
			}
			if next()%2 == 0 {
				return expr.Cmp{Op: op, L: expr.Lit{Val: strLit()}, R: c}
			}
			return expr.Cmp{Op: op, L: c, R: expr.Lit{Val: strLit()}}
		case 1: // integer comparison, possibly literal-first
			c := expr.Col{Name: intCols[int(next())%len(intCols)]}
			op := ops[int(next())%len(ops)]
			lit := expr.Lit{Val: expr.I(intLits[int(next())%len(intLits)])}
			if next()%2 == 0 {
				return expr.Cmp{Op: op, L: lit, R: c}
			}
			return expr.Cmp{Op: op, L: c, R: lit}
		case 2: // time comparison against a date string
			op := ops[int(next())%len(ops)]
			return expr.Cmp{Op: op, L: expr.Col{Name: "time"},
				R: expr.Lit{Val: expr.S(timeLits[int(next())%len(timeLits)])}}
		case 3: // AGE conjunct
			op := ops[int(next())%len(ops)]
			return expr.Cmp{Op: op, L: expr.Age{}, R: expr.Lit{Val: expr.I(ageLit())}}
		case 4: // string IN list
			c := expr.Col{Name: strCols[int(next())%len(strCols)]}
			list := make([]expr.Value, 1+next()%3)
			for i := range list {
				list[i] = strLit()
			}
			return expr.In{L: c, List: list}
		case 5: // integer IN list
			c := expr.Col{Name: intCols[int(next())%len(intCols)]}
			list := make([]expr.Value, 1+next()%3)
			for i := range list {
				list[i] = expr.I(intLits[int(next())%len(intLits)])
			}
			return expr.In{L: c, List: list}
		case 6: // BETWEEN over an integer or time column, or over AGE
			switch next() % 3 {
			case 0:
				lo := intLits[int(next())%len(intLits)]
				hi := intLits[int(next())%len(intLits)]
				if lo > hi {
					lo, hi = hi, lo
				}
				return expr.Between{L: expr.Col{Name: intCols[int(next())%len(intCols)]},
					Lo: expr.I(lo), Hi: expr.I(hi)}
			case 1:
				return expr.Between{L: expr.Col{Name: "time"},
					Lo: expr.S("2013-05-20"), Hi: expr.S("2013-06-10")}
			default: // lo > hi admits no age
				return expr.Between{L: expr.Age{}, Lo: expr.I(ageLit()), Hi: expr.I(ageLit())}
			}
		default: // a residual shape: OR tree or Birth() reference
			if next()%2 == 0 {
				return expr.Or{
					L: expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "country"}, R: expr.Lit{Val: strLit()}},
					R: expr.Cmp{Op: expr.OpGt, L: expr.Col{Name: "gold"}, R: expr.Lit{Val: expr.I(5)}},
				}
			}
			return expr.Cmp{Op: expr.OpEq, L: expr.Col{Name: "country"}, R: expr.Birth{Name: "country"}}
		}
	}
	cond := conjunct()
	for n := next() % 4; n > 0; n-- {
		cond = expr.And{L: cond, R: conjunct()}
	}
	return cond
}

func FuzzPushdownPredicate(f *testing.F) {
	full := gen.Generate(gen.Config{Users: 60, Days: 12, MeanActions: 8, Seed: 17})
	if err := full.SortByPK(); err != nil {
		f.Fatal(err)
	}
	tbl, err := storage.Build(full, storage.Options{ChunkSize: 120})
	if err != nil {
		f.Fatal(err)
	}
	schema := tbl.Schema()

	f.Add([]byte{0})
	f.Add([]byte{1, 3, 2, 0, 1})
	f.Add([]byte{3, 1, 2, 2, 6, 0, 7, 7, 7})
	f.Add([]byte{2, 5, 4, 1, 1, 0, 5, 2, 3, 9, 250, 17})

	f.Fuzz(func(t *testing.T, data []byte) {
		cond := condFromBytes(data)
		want, err := expr.Compile(cond, schema)
		if err != nil {
			// An ill-typed condition (e.g. an unparseable date literal) never
			// reaches compilePushdown in execution — Compile gates it first.
			// Still pin the invariant that makes that ordering safe: a
			// conjunct the reference compiler rejects must not be claimed as
			// pushable, or execution would silently change the verdict.
			for _, conj := range expr.Conjuncts(cond) {
				if _, cerr := expr.Compile(conj, schema); cerr != nil {
					probe := &pushdown{}
					if probe.addConjunct(conj, schema, tbl) {
						t.Fatalf("pushdown accepted a conjunct expr.Compile rejects: %s (%v)", conj, cerr)
					}
				}
			}
			return
		}
		pd := compilePushdown(cond, schema, tbl)
		if pd == nil {
			// Nothing pushable: execution keeps the plain predicate; no
			// split evaluation exists to cross-check.
			return
		}
		// σb's split: the time range taken out and tested on the raw time
		// code, as the kernel does on the birth index, the rest as before.
		split := compilePushdown(cond, schema, tbl)
		timeRange, timed := split.takeRange(schema.TimeCol())
		for ci := 0; ci < tbl.NumChunks(); ci++ {
			ch := tbl.Chunk(ci)
			bv, _ := pd.bindVec(ch, nil)
			sv, _ := split.bindVec(ch, nil)
			tLo, tSpan, verdict, isConst := timeRange.bindCodes(ch.Ints(schema.TimeCol()))
			env := &chunkEnv{tbl: tbl, ch: ch, schema: schema}
			for r := 0; r < ch.NumRows(); r++ {
				// Age and birth row vary with the row so AGE conjuncts and
				// Birth() residuals see non-degenerate values.
				env.row, env.birth, env.age = r, r/2, int64(r%9)
				wantV := want(env)
				gotV := bv.passRow(ch, r, env.age) && (bv.residual == nil || bv.residual(env))
				if gotV != wantV {
					t.Fatalf("chunk %d row %d age %d: pushdown=%v, reference=%v for %s",
						ci, r, env.age, gotV, wantV, cond)
				}
				inRange := !timed || verdict || !isConst && ch.Ints(schema.TimeCol()).Raw(r)-tLo <= tSpan
				gotV = inRange && sv.passRow(ch, r, env.age) && (sv.residual == nil || sv.residual(env))
				if gotV != wantV {
					t.Fatalf("chunk %d row %d age %d: time range split off=%v, reference=%v for %s",
						ci, r, env.age, gotV, wantV, cond)
				}
			}
		}
	})
}
