package cohort

import (
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/activity"
	"repro/internal/encoding"
	"repro/internal/expr"
	"repro/internal/storage"
)

// This file compiles the pushable part of a selection condition down to the
// encoded column domain. The storage format makes two families of predicates
// answerable without decoding values (Section 4.1's compression schemes):
//
//   - equality / IN on dictionary-encoded string columns: the literal
//     resolves to a global-id once per table, and the conjunct to a verdict
//     table over the chunk's ids once per chunk, so each row check is a
//     bit-packed read and a table load — no dictionary value is
//     materialized, no string is compared;
//   - comparisons / BETWEEN on frame-of-reference integer (and time)
//     columns: the threshold translates into the chunk's delta domain once
//     per chunk, so each row check compares the raw bit-packed delta — the
//     MIN addition never happens;
//   - AGE conjuncts: evaluated on the already-computed age directly, with no
//     Env round trip; the upper bounds among them (<, <=) are not evaluated
//     at all, because the kernel's decode window ends at the bound.
//
// Conjuncts outside these shapes (Birth() references, OR trees, predicates
// on the RLE user column) stay on the generic expr.Pred path as a residual,
// evaluated only for rows that survive the encoded checks. A surviving
// conjunct set therefore decodes value columns only for rows that every
// pushed predicate admits.

// ExecStats counts decoder-level work during query execution. Workers fold
// per-chunk tallies in with atomic adds, so one ExecStats can be shared
// across the whole fan-out of a query's chunk schedule. The benchmark's
// pushdown-selectivity sweep gates ValueBytesDecoded against its baseline.
type ExecStats struct {
	// RowsScanned counts the rows of the chunk kernel's decode windows: for
	// each user that passes σb, the rows from the birth row up to the age
	// bound (the whole rest of the block when the query has none).
	RowsScanned atomic.Int64
	// RowsSkippedByAge counts the rows of those users' blocks past the age
	// bound — never decoded, because no pushed AGE conjunct admits them.
	RowsSkippedByAge atomic.Int64
	// ValueBytesDecoded counts bytes of column values materialized out of
	// the encoded domain, 8 per integer: the time values the kernel actually
	// reads (each selected row's, or the whole window's when the selection
	// is dense enough that one window decode is cheaper), the measure values
	// folded into aggregates and integers decoded for residual predicates,
	// plus the byte length of dictionary strings surfaced to residual
	// predicates. Conjunct codes read for the selection do not count: they
	// stay in the encoded domain, and that is the point.
	ValueBytesDecoded atomic.Int64
	// EncodedChecks counts predicate evaluations answered entirely in the
	// encoded domain: the birth search's code compares (on the scan that
	// builds a chunk's birth index only), σb's time range on the indexed
	// birth time, one per verdict-table entry (a string conjunct's kernel
	// runs once per chunk-id of the chunk when the chunk is bound), one per
	// integer-kernel call (σb's birth row, σg's selection), and the pushed
	// AGE verdicts the window cut does not imply, once per age span.
	EncodedChecks atomic.Int64
	// UsersSkippedByBirth counts the users of scanned chunks the birth index
	// rejects alone — never born, or born outside σb's pushed time range —
	// whose user run and block are never read (Figure 8's lever).
	UsersSkippedByBirth atomic.Int64
	// ChunksScanned / ChunksPruned count the post-pruning scan fan-out vs
	// the chunks skipped by birth-range pruning (Section 4.2).
	ChunksScanned atomic.Int64
	ChunksPruned  atomic.Int64
	// RunsEvaluated counts the age spans the kernel decides once for many
	// rows: maximal runs of selected rows of one age, off the sorted time
	// column.
	RunsEvaluated atomic.Int64
	// RowsBatched counts activity rows processed run-at-a-time by the chunk
	// kernel — every row of its decode windows, so it equals RowsScanned —
	// and RowsBatched/RunsEvaluated is the realized amortization factor.
	RowsBatched atomic.Int64
}

// ChunkStats is one chunk scan's decoder-level tallies. scanPinned returns
// them by value so each chunk task owns its counts; callers fold them into
// the shared ExecStats atomics, the process metrics and the trace — the
// per-task-with-merge shape that keeps the hot loop free of shared writes.
type ChunkStats struct {
	RowsScanned         int64
	RowsSkippedByAge    int64
	ValueBytesDecoded   int64
	EncodedChecks       int64
	UsersSkippedByBirth int64
	RunsEvaluated       int64
	RowsBatched         int64
}

// pushdown is the table-bound compiled form of a condition's pushable
// conjuncts plus the residual generic predicate (nil when fully pushed).
type pushdown struct {
	ageConds []func(int64) bool
	// ageChecks is the part of ageConds the chunk kernel evaluates per age
	// span: every AGE conjunct but the upper bounds (<, <=), which the
	// decode window's cut at maxAge already enforces exactly.
	ageChecks []func(int64) bool
	colConds  []colCond
	residual  expr.Pred
	// maxAge is the tightest upper age bound the pushed AGE conjuncts imply
	// (they are AND-ed, so every one bounds the age); hasMaxAge is false when
	// none does. An AGE reference left in the residual implies nothing.
	maxAge    int64
	hasMaxAge bool
}

// boundAge records that every admitted age is at most m.
func (pd *pushdown) boundAge(m int64) {
	if !pd.hasMaxAge || m < pd.maxAge {
		pd.maxAge, pd.hasMaxAge = m, true
	}
}

// addAge appends one pushed AGE conjunct; implied reports that maxAge alone
// enforces it, so the kernel never evaluates it per span.
func (pd *pushdown) addAge(f func(int64) bool, implied bool) {
	pd.ageConds = append(pd.ageConds, f)
	if !implied {
		pd.ageChecks = append(pd.ageChecks, f)
	}
}

// colCond is one pushable column conjunct. bindCode resolves it against a
// chunk's dictionaries/frames into a verdict function over the column's raw
// codes — chunk-ids for string columns, frame-of-reference deltas for
// integer columns — or a chunk-constant verdict (nil kernel) when the chunk's
// dictionary/range settles the conjunct outright.
type colCond struct {
	col      int
	isString bool
	bindCode func(ch *storage.Chunk) (kernel func(code uint64) bool, verdict bool)
	// rng is the admitted value range of a range-shaped integer conjunct
	// (comparisons but !=, BETWEEN), nil for every other shape.
	rng *valRange
}

// vecCond is one column conjunct bound to a chunk. A string conjunct is a
// verdict table indexed by chunk-id, an integer conjunct a kernel over
// frame-of-reference deltas; both are nil when the chunk settles the
// conjunct, and then verdict applies to every row of the chunk.
type vecCond struct {
	col      int
	isString bool
	verdicts []bool
	kernel   func(code uint64) bool
	verdict  bool
}

// settled reports whether the chunk decides vc for every row alike.
func (vc *vecCond) settled() bool { return vc.verdicts == nil && vc.kernel == nil }

// boundVec is a pushdown bound to one chunk: the chunk kernel selects a
// decode window's rows with the column conjuncts, and σb applies them to
// the birth row alone (passRow).
type boundVec struct {
	ageConds []func(int64) bool
	cols     []vecCond
	residual expr.Pred
}

// bindVec binds pd to chunk ch. Each string conjunct the chunk does not
// settle becomes a verdict table of ChunkCardinality entries, one kernel
// call each, appended to tables; bindVec returns the grown arena, so the
// caller counts the entries and reuses its capacity chunk after chunk.
func (pd *pushdown) bindVec(ch *storage.Chunk, tables []bool) (boundVec, []bool) {
	bv := boundVec{ageConds: pd.ageConds, residual: pd.residual}
	if len(pd.colConds) > 0 {
		bv.cols = make([]vecCond, len(pd.colConds))
		for i, cc := range pd.colConds {
			k, verdict := cc.bindCode(ch)
			vc := vecCond{col: cc.col, isString: cc.isString, kernel: k, verdict: verdict}
			if k != nil && cc.isString {
				start := len(tables)
				for id, n := uint64(0), uint64(ch.ChunkCardinality(cc.col)); id < n; id++ {
					tables = append(tables, k(id))
				}
				vc.verdicts, vc.kernel = tables[start:len(tables):len(tables)], nil
			}
			bv.cols[i] = vc
		}
	}
	return bv, tables
}

// passAges evaluates AGE conjuncts for one age value.
func passAges(conds []func(int64) bool, age int64) bool {
	for _, f := range conds {
		if !f(age) {
			return false
		}
	}
	return true
}

// passRow evaluates the encoded-domain conjuncts on one row's codes; the
// caller evaluates the residual (if any) only when this passes.
func (bv *boundVec) passRow(ch *storage.Chunk, row int, age int64) bool {
	if !passAges(bv.ageConds, age) {
		return false
	}
	for i := range bv.cols {
		vc := &bv.cols[i]
		switch {
		case vc.verdicts != nil:
			if !vc.verdicts[ch.ChunkID(vc.col, row)] {
				return false
			}
		case vc.kernel != nil:
			if !vc.kernel(ch.Ints(vc.col).Raw(row)) {
				return false
			}
		case !vc.verdict:
			return false
		}
	}
	return true
}

// compilePushdown splits cond into pushable conjuncts and a residual. It
// returns nil when nothing is pushable (the caller keeps the plain compiled
// predicate, zero overhead) or when the residual unexpectedly fails to
// compile (cond as a whole already compiled, so this is purely defensive).
func compilePushdown(cond expr.Expr, schema *activity.Schema, tbl *storage.Table) *pushdown {
	if cond == nil {
		return nil
	}
	var pd pushdown
	var residual []expr.Expr
	for _, conj := range expr.Conjuncts(cond) {
		if !pd.addConjunct(conj, schema, tbl) {
			residual = append(residual, conj)
		}
	}
	if len(pd.ageConds) == 0 && len(pd.colConds) == 0 {
		return nil
	}
	if r := expr.AndAll(residual); r != nil {
		p, err := expr.Compile(r, schema)
		if err != nil {
			return nil
		}
		pd.residual = p
	}
	return &pd
}

// addConjunct recognizes one pushable conjunct shape and appends its
// compiled form, reporting false for everything else. The shapes mirror
// expr.Compile exactly — including the string-literal-to-time coercion — and
// the pushdown fuzz target pins the two evaluations to identical verdicts.
func (pd *pushdown) addConjunct(conj expr.Expr, schema *activity.Schema, tbl *storage.Table) bool {
	switch x := conj.(type) {
	case expr.Cmp:
		l, op, lit, ok := normalizeCmp(x)
		if !ok {
			return false
		}
		if _, isAge := l.(expr.Age); isAge {
			if lit.Kind != expr.KindInt {
				return false
			}
			v := lit.Int
			switch {
			case op == expr.OpLt && v > math.MinInt64:
				pd.boundAge(v - 1)
			case op == expr.OpLt, op == expr.OpLe, op == expr.OpEq:
				pd.boundAge(v) // AGE < MinInt64 admits nothing; v bounds it too
			}
			pd.addAge(func(age int64) bool { return intCmpHolds(op, age, v) }, op == expr.OpLt || op == expr.OpLe)
			return true
		}
		col, okCol := l.(expr.Col)
		if !okCol {
			return false
		}
		idx := schema.ColIndex(col.Name)
		if idx < 0 || idx == schema.UserCol() {
			return false
		}
		if schema.IsStringCol(idx) {
			if lit.Kind != expr.KindString || (op != expr.OpEq && op != expr.OpNe) {
				return false
			}
			gid, present := tbl.LookupString(idx, lit.Str)
			eq := op == expr.OpEq
			pd.colConds = append(pd.colConds, colCond{col: idx, isString: true,
				bindCode: func(ch *storage.Chunk) (func(uint64) bool, bool) {
					if !present {
						return nil, !eq
					}
					cid, inChunk := ch.ChunkIDOf(idx, gid)
					if !inChunk {
						return nil, !eq
					}
					if eq {
						return func(code uint64) bool { return code == cid }, false
					}
					return func(code uint64) bool { return code != cid }, false
				}})
			return true
		}
		v, okLit := litIntFor(schema, idx, lit)
		if !okLit {
			return false
		}
		if op != expr.OpNe {
			pd.addRange(idx, cmpRange(op, v))
			return true
		}
		pd.colConds = append(pd.colConds, colCond{col: idx,
			bindCode: func(ch *storage.Chunk) (func(uint64) bool, bool) {
				d, below, above := ch.Ints(idx).DeltaOf(v)
				if below || above {
					return nil, true // no value of the chunk equals v
				}
				return func(code uint64) bool { return code != d }, false
			}})
		return true
	case expr.In:
		if _, isAge := x.L.(expr.Age); isAge {
			vals := make([]int64, 0, len(x.List))
			for _, v := range x.List {
				if v.Kind != expr.KindInt {
					return false
				}
				vals = append(vals, v.Int)
			}
			if len(vals) > 0 {
				pd.boundAge(slices.Max(vals))
			}
			pd.addAge(func(age int64) bool { return slices.Contains(vals, age) }, false)
			return true
		}
		col, okCol := x.L.(expr.Col)
		if !okCol {
			return false
		}
		idx := schema.ColIndex(col.Name)
		if idx < 0 || idx == schema.UserCol() {
			return false
		}
		if schema.IsStringCol(idx) {
			gids := make([]uint64, 0, len(x.List))
			for _, v := range x.List {
				if v.Kind != expr.KindString {
					return false
				}
				if gid, present := tbl.LookupString(idx, v.Str); present {
					gids = append(gids, gid)
				}
			}
			pd.colConds = append(pd.colConds, colCond{col: idx, isString: true,
				bindCode: func(ch *storage.Chunk) (func(uint64) bool, bool) {
					cids := make([]uint64, 0, len(gids))
					for _, gid := range gids {
						if cid, inChunk := ch.ChunkIDOf(idx, gid); inChunk {
							cids = append(cids, cid)
						}
					}
					switch len(cids) {
					case 0:
						return nil, false
					case 1:
						cid := cids[0]
						return func(code uint64) bool { return code == cid }, false
					default:
						return func(code uint64) bool {
							for _, cid := range cids {
								if code == cid {
									return true
								}
							}
							return false
						}, false
					}
				}})
			return true
		}
		vals := make([]int64, 0, len(x.List))
		for _, v := range x.List {
			iv, okLit := litIntFor(schema, idx, v)
			if !okLit {
				return false
			}
			vals = append(vals, iv)
		}
		pd.colConds = append(pd.colConds, colCond{col: idx,
			bindCode: func(ch *storage.Chunk) (func(uint64) bool, bool) {
				f := ch.Ints(idx)
				deltas := make([]uint64, 0, len(vals))
				for _, v := range vals {
					if d, below, above := f.DeltaOf(v); !below && !above {
						deltas = append(deltas, d)
					}
				}
				if len(deltas) == 0 {
					return nil, false
				}
				return func(code uint64) bool {
					for _, d := range deltas {
						if code == d {
							return true
						}
					}
					return false
				}, false
			}})
		return true
	case expr.Between:
		if _, isAge := x.L.(expr.Age); isAge {
			if x.Lo.Kind != expr.KindInt || x.Hi.Kind != expr.KindInt {
				return false
			}
			lo, hi := x.Lo.Int, x.Hi.Int
			pd.boundAge(hi)
			pd.addAge(func(age int64) bool { return age >= lo && age <= hi }, false)
			return true
		}
		col, okCol := x.L.(expr.Col)
		if !okCol {
			return false
		}
		idx := schema.ColIndex(col.Name)
		if idx < 0 || idx == schema.UserCol() || schema.IsStringCol(idx) {
			return false
		}
		lo, okLo := litIntFor(schema, idx, x.Lo)
		hi, okHi := litIntFor(schema, idx, x.Hi)
		if !okLo || !okHi {
			return false
		}
		pd.addRange(idx, valRange{lo, hi})
		return true
	default:
		return false
	}
}

// valRange is the inclusive range [lo, hi] of integer values a range-shaped
// conjunct admits; lo > hi admits none.
type valRange struct{ lo, hi int64 }

// cmpRange is the range of values v' with `v' op v`, for every op but OpNe.
func cmpRange(op expr.CmpOp, v int64) valRange {
	r := valRange{math.MinInt64, math.MaxInt64}
	switch op {
	case expr.OpEq:
		r = valRange{v, v}
	case expr.OpLt:
		if v == math.MinInt64 {
			return valRange{1, 0}
		}
		r.hi = v - 1
	case expr.OpLe:
		r.hi = v
	case expr.OpGt:
		if v == math.MaxInt64 {
			return valRange{1, 0}
		}
		r.lo = v + 1
	default: // OpGe
		r.lo = v
	}
	return r
}

// bindCodes translates r into chunk frame f's delta domain: a raw code
// admitted iff code-lo <= span. isConst reports that r settles every row of
// the chunk alike, with verdict as the answer.
func (r valRange) bindCodes(f *encoding.FrameOfRef) (lo, span uint64, verdict, isConst bool) {
	mn, mx := f.Min(), f.Max()
	if r.lo > r.hi || r.hi < mn || r.lo > mx {
		return 0, 0, false, true // the range misses the chunk entirely
	}
	if r.lo <= mn && r.hi >= mx {
		return 0, 0, true, true // the range covers the chunk entirely
	}
	lo = uint64(max(r.lo, mn)) - uint64(mn)
	return lo, uint64(min(r.hi, mx)) - uint64(mn) - lo, false, false
}

// addRange appends the range conjunct `r.lo <= col <= r.hi`; its kernel is
// one unsigned compare per code.
func (pd *pushdown) addRange(col int, r valRange) {
	pd.colConds = append(pd.colConds, colCond{col: col, rng: &r,
		bindCode: func(ch *storage.Chunk) (func(uint64) bool, bool) {
			lo, span, verdict, isConst := r.bindCodes(ch.Ints(col))
			if isConst {
				return nil, verdict
			}
			return func(code uint64) bool { return code-lo <= span }, false
		}})
}

// takeRange removes the range conjuncts on integer column col from pd and
// returns their intersection; ok is false when pd has none. σb takes its
// time range out this way so the kernel can test it on the birth index's
// time codes.
func (pd *pushdown) takeRange(col int) (r valRange, ok bool) {
	r = valRange{math.MinInt64, math.MaxInt64}
	kept := pd.colConds[:0]
	for _, cc := range pd.colConds {
		if cc.col != col || cc.rng == nil {
			kept = append(kept, cc)
			continue
		}
		r.lo, r.hi = max(r.lo, cc.rng.lo), min(r.hi, cc.rng.hi)
		ok = true
	}
	pd.colConds = kept
	return r, ok
}

// normalizeCmp rewrites a comparison into (scalar, op, literal) form,
// flipping the operator when the literal is on the left (`5 < gold` becomes
// `gold > 5`).
func normalizeCmp(x expr.Cmp) (expr.Expr, expr.CmpOp, expr.Value, bool) {
	if lit, ok := x.R.(expr.Lit); ok {
		return x.L, x.Op, lit.Val, true
	}
	if lit, ok := x.L.(expr.Lit); ok {
		return x.R, flipCmp(x.Op), lit.Val, true
	}
	return nil, 0, expr.Value{}, false
}

func flipCmp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.OpLt:
		return expr.OpGt
	case expr.OpLe:
		return expr.OpGe
	case expr.OpGt:
		return expr.OpLt
	case expr.OpGe:
		return expr.OpLe
	default: // Eq, Ne are symmetric
		return op
	}
}

// litIntFor coerces a literal for integer column idx, parsing date strings
// for time columns — the same coercion expr.Compile applies.
func litIntFor(schema *activity.Schema, idx int, v expr.Value) (int64, bool) {
	if v.Kind == expr.KindInt {
		return v.Int, true
	}
	if schema.Col(idx).Type == activity.TypeTime {
		if secs, err := activity.ParseTime(v.Str); err == nil {
			return secs, true
		}
	}
	return 0, false
}

func intCmpHolds(op expr.CmpOp, a, b int64) bool {
	switch op {
	case expr.OpEq:
		return a == b
	case expr.OpNe:
		return a != b
	case expr.OpLt:
		return a < b
	case expr.OpLe:
		return a <= b
	case expr.OpGt:
		return a > b
	case expr.OpGe:
		return a >= b
	default:
		return false
	}
}
