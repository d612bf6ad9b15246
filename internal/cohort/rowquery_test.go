package cohort

import (
	"encoding/binary"
	"fmt"

	"repro/internal/activity"
	"repro/internal/expr"
)

// RowQuery is the chunk kernel's oracle: a cohort query compiled against a
// schema rather than a sealed table. It runs the σb → σg → γc pipeline row by
// row over a sorted, uncompressed activity table — no pruning, no encoded
// data — and folds into the same Accumulator, producing keys and display
// values byte-identical to the kernel's.
type RowQuery struct {
	Query  *Query
	schema *activity.Schema

	birthPred expr.Pred // nil when no σb condition
	agePred   expr.Pred // nil when no σg condition

	keys []keySpec
	aggs []boundAgg
	unit Unit
}

// CompileRows validates and binds q against schema for the row scan.
func CompileRows(q *Query, schema *activity.Schema) (*RowQuery, error) {
	if err := q.Validate(schema); err != nil {
		return nil, err
	}
	rq := &RowQuery{Query: q, schema: schema, unit: q.AgeUnit}
	var err error
	if q.BirthCond != nil {
		if rq.birthPred, err = expr.Compile(q.BirthCond, schema); err != nil {
			return nil, err
		}
	}
	if q.AgeCond != nil {
		if rq.agePred, err = expr.Compile(q.AgeCond, schema); err != nil {
			return nil, err
		}
	}
	rq.keys, rq.aggs = bindQuery(q, schema)
	return rq, nil
}

// rowEnv adapts one activity-table position to the expr.Env interface.
type rowEnv struct {
	t      *activity.Table
	schema *activity.Schema
	row    int
	birth  int
	age    int64
}

func (e *rowEnv) value(idx, row int) expr.Value {
	if e.schema.IsStringCol(idx) {
		return expr.S(e.t.Strings(idx)[row])
	}
	return expr.I(e.t.Ints(idx)[row])
}

func (e *rowEnv) Col(idx int) expr.Value      { return e.value(idx, e.row) }
func (e *rowEnv) BirthCol(idx int) expr.Value { return e.value(idx, e.birth) }
func (e *rowEnv) Age() int64                  { return e.age }

// Scan aggregates t — which must be sorted by (Au, At, Ae) — into acc, user
// block by user block, as the paper's Algorithms 1 and 2 state it.
func (rq *RowQuery) Scan(t *activity.Table, acc *Accumulator) {
	if t == nil || t.Len() == 0 {
		return
	}
	schema := rq.schema
	actions := t.Strings(schema.ActionCol())
	times := t.Ints(schema.TimeCol())
	env := &rowEnv{t: t, schema: schema}
	var keyBuf []byte
	t.UserBlocks(func(_ string, start, end int) {
		// GetBirthTuple: first tuple of the block performing the birth
		// action (time-ordering property).
		birthRow := -1
		for r := start; r < end; r++ {
			if actions[r] == rq.Query.BirthAction {
				birthRow = r
				break
			}
		}
		if birthRow < 0 {
			return
		}
		env.birth = birthRow
		if rq.birthPred != nil {
			env.row = birthRow
			env.age = 0
			if !rq.birthPred(env) {
				return
			}
		}
		birthTime := times[birthRow]
		keyBuf = rq.appendKey(keyBuf[:0], t, birthRow, birthTime)
		cs := acc.cohort(string(keyBuf), func() []string { return rq.displayKey(t, birthRow, birthTime) })
		cs.size++
		lastCountedAge := int64(-1)
		for row := start; row < end; row++ {
			age := AgeOf(times[row], birthTime, rq.unit)
			if age <= 0 {
				continue
			}
			if rq.agePred != nil {
				env.row = row
				env.age = age
				if !rq.agePred(env) {
					continue
				}
			}
			b := cs.bucket(age, len(rq.aggs))
			for k, agg := range rq.aggs {
				st := &b[k]
				switch agg.fn {
				case Count:
					st.cnt++
				case UserCount:
					if age != lastCountedAge {
						st.users++
					}
				default:
					v := t.Ints(agg.col)[row]
					st.sum += float64(v)
					st.cnt++
					if !st.has {
						st.min, st.max, st.has = v, v, true
					} else {
						if v < st.min {
							st.min = v
						}
						if v > st.max {
							st.max = v
						}
					}
				}
			}
			if age != lastCountedAge {
				lastCountedAge = age
			}
		}
	})
}

// appendKey encodes the cohort key of the user born at birthRow, matching
// Compiled.appendKey byte for byte.
func (rq *RowQuery) appendKey(dst []byte, t *activity.Table, birthRow int, birthTime int64) []byte {
	for _, k := range rq.keys {
		switch {
		case k.isTime:
			dst = binary.AppendVarint(dst, TimeBinStart(birthTime, k.bin))
		case k.isString:
			dst = appendStringKey(dst, t.Strings(k.col)[birthRow])
		default:
			dst = binary.AppendVarint(dst, t.Ints(k.col)[birthRow])
		}
	}
	return dst
}

// displayKey renders the cohort key attributes, matching Compiled.displayKey.
func (rq *RowQuery) displayKey(t *activity.Table, birthRow int, birthTime int64) []string {
	out := make([]string, len(rq.keys))
	for i, k := range rq.keys {
		switch {
		case k.isTime:
			out[i] = FormatTimeBin(TimeBinStart(birthTime, k.bin))
		case k.isString:
			out[i] = t.Strings(k.col)[birthRow]
		default:
			out[i] = fmt.Sprintf("%d", t.Ints(k.col)[birthRow])
		}
	}
	return out
}

// KeyColNames returns the display names of the cohort attributes.
func (rq *RowQuery) KeyColNames() []string {
	out := make([]string, len(rq.Query.CohortBy))
	for i, k := range rq.Query.CohortBy {
		out[i] = k.Col
	}
	return out
}
