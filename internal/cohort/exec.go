package cohort

import (
	"encoding/binary"
	"fmt"

	"repro/internal/activity"
	"repro/internal/expr"
	"repro/internal/storage"
)

// Compiled is a cohort query bound to a specific compressed table: the birth
// action resolved to its global-id, conditions compiled to predicates, and
// cohort keys and measures resolved to column indices. A Compiled query is
// immutable and safe for concurrent chunk scans with distinct
// accumulators.
type Compiled struct {
	Query  *Query
	tbl    *storage.Table
	schema *activity.Schema

	birthGID uint64
	birthOK  bool // false if the birth action never occurs in the table

	birthPred expr.Pred // nil when no σb condition
	agePred   expr.Pred // nil when no σg condition

	// birthPush/agePush are the decoder-level pushdown forms of the two
	// conditions: the conjuncts answerable on encoded data plus a residual
	// predicate for the rest. nil when no conjunct is pushable — then the
	// plain compiled predicate above runs, at zero extra cost.
	birthPush *pushdown
	agePush   *pushdown
	// birthTime is the intersection of σb's pushed range conjuncts on the
	// time column, taken out of birthPush: the kernel tests it on the birth
	// index's time codes. nil when σb pushes no time range.
	birthTime *valRange

	keys []keySpec
	aggs []boundAgg
	unit Unit
}

type keySpec struct {
	col      int
	isString bool
	isTime   bool
	bin      Unit
}

type boundAgg struct {
	fn  AggFunc
	col int // -1 for Count/UserCount
}

// Compile validates and binds q against tbl.
func Compile(q *Query, tbl *storage.Table) (*Compiled, error) {
	schema := tbl.Schema()
	if err := q.Validate(schema); err != nil {
		return nil, err
	}
	c := &Compiled{Query: q, tbl: tbl, schema: schema, unit: q.AgeUnit}
	c.birthGID, c.birthOK = tbl.LookupString(schema.ActionCol(), q.BirthAction)
	var err error
	if q.BirthCond != nil {
		if c.birthPred, err = expr.Compile(q.BirthCond, schema); err != nil {
			return nil, err
		}
	}
	if q.AgeCond != nil {
		if c.agePred, err = expr.Compile(q.AgeCond, schema); err != nil {
			return nil, err
		}
	}
	c.birthPush = compilePushdown(q.BirthCond, schema, tbl)
	if c.birthPush != nil {
		if r, ok := c.birthPush.takeRange(schema.TimeCol()); ok {
			c.birthTime = &r
		}
	}
	c.agePush = compilePushdown(q.AgeCond, schema, tbl)
	c.keys, c.aggs = bindQuery(q, schema)
	return c, nil
}

// bindQuery resolves the cohort keys and aggregates of a validated query to
// schema column indices.
func bindQuery(q *Query, schema *activity.Schema) (keys []keySpec, aggs []boundAgg) {
	for _, k := range q.CohortBy {
		idx := schema.ColIndex(k.Col)
		ks := keySpec{col: idx, isString: schema.IsStringCol(idx), bin: k.Bin}
		ks.isTime = schema.Col(idx).Type == activity.TypeTime
		keys = append(keys, ks)
	}
	for _, a := range q.Aggs {
		ba := boundAgg{fn: a.Func, col: -1}
		if a.Func.NeedsCol() {
			ba.col = schema.ColIndex(a.Col)
		}
		aggs = append(aggs, ba)
	}
	return keys, aggs
}

// NumAggs returns the number of aggregates, used to size accumulators.
func (c *Compiled) NumAggs() int { return len(c.aggs) }

// chunkEnv adapts one chunk position to the expr.Env interface. The current
// row and the birth row are both inside the same user block, so Birth()
// lookups are plain row accesses — no join, the essence of COHANA.
type chunkEnv struct {
	tbl     *storage.Table
	ch      *storage.Chunk
	schema  *activity.Schema
	userGID uint64
	row     int
	birth   int
	age     int64
	// decoded, when non-nil, accumulates the bytes of column values this env
	// materializes for predicates (string length, 8 per integer) — the
	// quantity predicate pushdown exists to shrink.
	decoded *int64
}

func (e *chunkEnv) value(idx, row int) expr.Value {
	if idx == e.schema.UserCol() {
		v := e.tbl.UserString(e.ch, e.userGID)
		if e.decoded != nil {
			*e.decoded += int64(len(v))
		}
		return expr.S(v)
	}
	if e.schema.IsStringCol(idx) {
		v := e.tbl.Dict(idx).Value(e.ch.StringID(idx, row))
		if e.decoded != nil {
			*e.decoded += int64(len(v))
		}
		return expr.S(v)
	}
	if e.decoded != nil {
		*e.decoded += 8
	}
	return expr.I(e.ch.Int(idx, row))
}

func (e *chunkEnv) Col(idx int) expr.Value      { return e.value(idx, e.row) }
func (e *chunkEnv) BirthCol(idx int) expr.Value { return e.value(idx, e.birth) }
func (e *chunkEnv) Age() int64                  { return e.age }

// CanSkipChunk implements the chunk-pruning step of Section 4.2: a chunk is
// skipped when the birth action's global-id is absent from the chunk's
// action dictionary (no user in the chunk was ever born — users never span
// chunks), or when a conjunct of the birth condition provably fails for
// every tuple of the chunk (dictionary miss for string equality / IN, or a
// disjoint chunk range for integer comparisons). Age conditions must never
// prune a chunk: its users still contribute to cohort sizes.
//
// Pruning answers from the chunk handles' stats without touching the payload
// — on an opened table these come from the manifest, so a pruned chunk is
// never loaded, and the decision is independent of cache state (prune maps and
// result-cache fingerprints stay deterministic).
func (c *Compiled) CanSkipChunk(chunkIdx int) bool {
	if !c.birthOK {
		return true
	}
	if !c.tbl.ChunkMayHaveGID(chunkIdx, c.schema.ActionCol(), c.birthGID) {
		return true
	}
	for _, conj := range expr.Conjuncts(c.Query.BirthCond) {
		if c.conjunctImpossible(chunkIdx, conj) {
			return true
		}
	}
	return false
}

// PruneMap reports, chunk by chunk, whether CanSkipChunk prunes the chunk:
// the one pruning decision behind every schedule and EXPLAIN's prune lines.
func (c *Compiled) PruneMap() []bool {
	skip := make([]bool, c.tbl.NumChunks())
	for i := range skip {
		skip[i] = c.CanSkipChunk(i)
	}
	return skip
}

// conjunctImpossible conservatively decides whether conj is false for every
// tuple of the chunk. It recognizes the shapes that matter for the paper's
// workloads: equality / IN on dictionary columns and comparisons / BETWEEN
// on integer columns.
func (c *Compiled) conjunctImpossible(chunkIdx int, conj expr.Expr) bool {
	switch x := conj.(type) {
	case expr.Cmp:
		col, ok := x.L.(expr.Col)
		if !ok {
			return false
		}
		lit, ok := x.R.(expr.Lit)
		if !ok {
			return false
		}
		idx := c.schema.ColIndex(col.Name)
		if idx < 0 || idx == c.schema.UserCol() {
			return false
		}
		if c.schema.IsStringCol(idx) {
			if x.Op != expr.OpEq || lit.Val.Kind != expr.KindString {
				return false
			}
			gid, ok := c.tbl.LookupString(idx, lit.Val.Str)
			if !ok {
				return true // value nowhere in the table
			}
			return !c.tbl.ChunkMayHaveGID(chunkIdx, idx, gid)
		}
		v, ok := c.litInt(idx, lit.Val)
		if !ok {
			return false
		}
		mn, mx := c.tbl.ChunkIntRange(chunkIdx, idx)
		switch x.Op {
		case expr.OpEq:
			return v < mn || v > mx
		case expr.OpLt:
			return mn >= v
		case expr.OpLe:
			return mn > v
		case expr.OpGt:
			return mx <= v
		case expr.OpGe:
			return mx < v
		default:
			return false
		}
	case expr.In:
		col, ok := x.L.(expr.Col)
		if !ok {
			return false
		}
		idx := c.schema.ColIndex(col.Name)
		if idx < 0 || idx == c.schema.UserCol() || !c.schema.IsStringCol(idx) {
			return false
		}
		for _, v := range x.List {
			if v.Kind != expr.KindString {
				return false
			}
			if gid, ok := c.tbl.LookupString(idx, v.Str); ok && c.tbl.ChunkMayHaveGID(chunkIdx, idx, gid) {
				return false // some member may be present: cannot prune
			}
		}
		return true
	case expr.Between:
		col, ok := x.L.(expr.Col)
		if !ok {
			return false
		}
		idx := c.schema.ColIndex(col.Name)
		if idx < 0 || c.schema.IsStringCol(idx) {
			return false
		}
		lo, okLo := c.litInt(idx, x.Lo)
		hi, okHi := c.litInt(idx, x.Hi)
		if !okLo || !okHi {
			return false
		}
		mn, mx := c.tbl.ChunkIntRange(chunkIdx, idx)
		return hi < mn || lo > mx
	default:
		return false
	}
}

// litInt coerces a literal for integer column idx, parsing date strings for
// time columns (mirroring expr.Compile's coercion).
func (c *Compiled) litInt(idx int, v expr.Value) (int64, bool) {
	return litIntFor(c.schema, idx, v)
}

// appendKey encodes the cohort key of the user born at birthRow. String
// attributes are encoded by value (length-prefixed), not by dictionary id:
// the union executor scans the sealed table and the union table, which have
// separate dictionaries, and both scans must produce identical keys for the
// partial accumulators to merge a cohort into one group.
func (c *Compiled) appendKey(dst []byte, ch *storage.Chunk, birthRow int, birthTime int64) []byte {
	for _, k := range c.keys {
		switch {
		case k.isTime:
			dst = binary.AppendVarint(dst, TimeBinStart(birthTime, k.bin))
		case k.isString:
			dst = appendStringKey(dst, c.tbl.Dict(k.col).Value(ch.StringID(k.col, birthRow)))
		default:
			dst = binary.AppendVarint(dst, ch.Int(k.col, birthRow))
		}
	}
	return dst
}

// appendStringKey appends a self-delimiting string key component.
func appendStringKey(dst []byte, v string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

// displayKey renders the cohort key attributes for output rows.
func (c *Compiled) displayKey(ch *storage.Chunk, birthRow int, birthTime int64) []string {
	out := make([]string, len(c.keys))
	for i, k := range c.keys {
		switch {
		case k.isTime:
			out[i] = FormatTimeBin(TimeBinStart(birthTime, k.bin))
		case k.isString:
			out[i] = c.tbl.Dict(k.col).Value(ch.StringID(k.col, birthRow))
		default:
			out[i] = fmt.Sprintf("%d", ch.Int(k.col, birthRow))
		}
	}
	return out
}

// KeyColNames returns the display names of the cohort attributes.
func (c *Compiled) KeyColNames() []string {
	out := make([]string, len(c.Query.CohortBy))
	for i, k := range c.Query.CohortBy {
		out[i] = k.Col
	}
	return out
}
