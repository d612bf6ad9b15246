// Package relational is the baseline substrate for the paper's two
// non-intrusive cohort evaluation schemes (Section 2): a generic relational
// engine able to run the multi-join SQL plan of Figure 2 and the
// materialized-view plan of Figure 3. It provides two execution engines over
// the same storage —
//
//   - RowEngine: a Volcano-style tuple-at-a-time iterator engine standing in
//     for the row store ("PG" in the paper's experiments), paying per-tuple
//     iterator dispatch and row materialization costs;
//   - ColEngine: an operator-at-a-time columnar engine standing in for the
//     column store ("MONET"), processing whole columns with selection
//     vectors and late materialization.
//
// Both engines implement the same Engine interface with identical semantics,
// so the cross-engine equivalence tests can compare them against COHANA.
package relational

import (
	"fmt"

	"repro/internal/expr"
)

// Field describes one column of a relational table.
type Field struct {
	Name string
	Kind expr.Kind
}

// Table is a materialized relation stored column-wise (both engines share
// this storage; they differ in how operators traverse it).
type Table struct {
	fields []Field
	n      int
	strs   [][]string
	ints   [][]int64
}

// NewTable creates an empty table with the given fields.
func NewTable(fields []Field) *Table {
	t := &Table{fields: append([]Field(nil), fields...)}
	t.strs = make([][]string, len(fields))
	t.ints = make([][]int64, len(fields))
	for i, f := range fields {
		if f.Kind == expr.KindString {
			t.strs[i] = []string{}
		} else {
			t.ints[i] = []int64{}
		}
	}
	return t
}

// Fields returns the field list (shared; do not mutate).
func (t *Table) Fields() []Field { return t.fields }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.fields) }

// Len returns the number of rows.
func (t *Table) Len() int { return t.n }

// ColIndex resolves a field name, returning -1 when absent.
func (t *Table) ColIndex(name string) int {
	for i, f := range t.fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// MustCol resolves a field name and panics when absent; callers use it for
// statically-known plan columns.
func (t *Table) MustCol(name string) int {
	i := t.ColIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("relational: no column %q", name))
	}
	return i
}

// AppendRow appends values in field order.
func (t *Table) AppendRow(vals []expr.Value) {
	for i, f := range t.fields {
		if f.Kind == expr.KindString {
			t.strs[i] = append(t.strs[i], vals[i].Str)
		} else {
			t.ints[i] = append(t.ints[i], vals[i].Int)
		}
	}
	t.n++
}

// appendFrom appends row r of src projected through cols, used by operators.
func (t *Table) appendFrom(src *Table, r int, cols []int, into int) int {
	for _, c := range cols {
		if src.fields[c].Kind == expr.KindString {
			t.strs[into] = append(t.strs[into], src.strs[c][r])
		} else {
			t.ints[into] = append(t.ints[into], src.ints[c][r])
		}
		into++
	}
	return into
}

// Value returns the value at (row, col).
func (t *Table) Value(row, col int) expr.Value {
	if t.fields[col].Kind == expr.KindString {
		return expr.S(t.strs[col][row])
	}
	return expr.I(t.ints[col][row])
}

// Str returns a string cell.
func (t *Table) Str(row, col int) string { return t.strs[col][row] }

// Int returns an integer cell.
func (t *Table) Int(row, col int) int64 { return t.ints[col][row] }

// Row materializes row r as a value slice (row-engine currency).
func (t *Table) Row(r int) []expr.Value {
	out := make([]expr.Value, len(t.fields))
	for c := range t.fields {
		out[c] = t.Value(r, c)
	}
	return out
}

// AggKind is a relational aggregate function.
type AggKind uint8

// Relational aggregates. CountDistinct implements COUNT(DISTINCT col) — the
// cohort-size and retention (UserCount) computations of the SQL plans.
const (
	AggSum AggKind = iota
	AggCount
	AggMin
	AggMax
	AggCountDistinct
)

func (k AggKind) String() string {
	switch k {
	case AggSum:
		return "Sum"
	case AggCount:
		return "Count"
	case AggMin:
		return "Min"
	case AggMax:
		return "Max"
	case AggCountDistinct:
		return "CountDistinct"
	default:
		return fmt.Sprintf("AggKind(%d)", uint8(k))
	}
}

// AggDef is one aggregate output of a group-by: Kind applied to column Col
// (ignored for AggCount), emitted under Name. All aggregate outputs are
// integers; averages are computed downstream from Sum and Count.
type AggDef struct {
	Kind AggKind
	Col  int
	Name string
}

// Engine is the operator surface shared by the row and column engines. All
// operators materialize their output (operator-at-a-time at the API level);
// the engines differ in the per-tuple machinery underneath.
type Engine interface {
	// Name identifies the engine in benchmark output ("row" / "column").
	Name() string
	// Filter keeps rows satisfying pred.
	Filter(t *Table, pred func(t *Table, row int) bool) *Table
	// Extend appends a computed column.
	Extend(t *Table, f Field, fn func(t *Table, row int) expr.Value) *Table
	// Project keeps the given columns under new names.
	Project(t *Table, cols []int, names []string) *Table
	// HashJoin equi-joins l and r on the given key columns, emitting the
	// lProj columns of l followed by the rProj columns of r.
	HashJoin(l, r *Table, lKeys, rKeys, lProj, rProj []int) *Table
	// GroupBy groups by the key columns and computes aggs per group. The
	// output has the key columns (original names) followed by the aggregate
	// columns.
	GroupBy(t *Table, keys []int, aggs []AggDef) *Table
}

// joinKey encodes the key columns of row r into a hashable string.
func joinKey(buf []byte, t *Table, r int, keys []int) []byte {
	for _, c := range keys {
		if t.fields[c].Kind == expr.KindString {
			s := t.strs[c][r]
			buf = append(buf, byte(len(s)>>8), byte(len(s)))
			buf = append(buf, s...)
		} else {
			v := t.ints[c][r]
			for i := 0; i < 8; i++ {
				buf = append(buf, byte(v>>(8*i)))
			}
		}
	}
	return buf
}
