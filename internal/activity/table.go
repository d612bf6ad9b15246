package activity

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// SecondsPerDay is the default age granularity: the paper assumes "the
// granularity of g is a day" (Section 3.2).
const SecondsPerDay = 86400

// Table is an in-memory activity table held column-wise. Rows are appended
// in any order; SortByPK establishes the (Au, At, Ae) physical order that
// gives COHANA its clustering and time-ordering properties, and validates
// the primary-key constraint.
type Table struct {
	schema *Schema
	n      int
	strs   [][]string // string columns, nil entry for int columns
	ints   [][]int64  // int/time columns, nil entry for string columns
	sorted bool
}

// NewTable creates an empty table for schema.
func NewTable(schema *Schema) *Table {
	t := &Table{
		schema: schema,
		strs:   make([][]string, schema.NumCols()),
		ints:   make([][]int64, schema.NumCols()),
	}
	for i := 0; i < schema.NumCols(); i++ {
		if schema.IsStringCol(i) {
			t.strs[i] = []string{}
		} else {
			t.ints[i] = []int64{}
		}
	}
	return t
}

// Grow reserves room for n more tuples in every column, so that a caller
// which knows how many rows it is about to append — a chunk decode, a merge —
// allocates each column once instead of doubling its way there.
func (t *Table) Grow(n int) {
	for c := range t.strs {
		if t.schema.IsStringCol(c) {
			t.strs[c] = slices.Grow(t.strs[c], n)
		} else {
			t.ints[c] = slices.Grow(t.ints[c], n)
		}
	}
}

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns the number of activity tuples.
func (t *Table) Len() int { return t.n }

// Sorted reports whether SortByPK has been called since the last append.
func (t *Table) Sorted() bool { return t.sorted }

// AppendRow appends one tuple. strs and ints must supply a value for every
// string / integer column respectively, keyed by column index; values at
// indexes of the other type are ignored. Use the convenience Append for
// schema-ordered mixed values.
func (t *Table) AppendRow(strs []string, ints []int64) {
	for i := 0; i < t.schema.NumCols(); i++ {
		if t.schema.IsStringCol(i) {
			t.strs[i] = append(t.strs[i], strs[i])
		} else {
			t.ints[i] = append(t.ints[i], ints[i])
		}
	}
	t.n++
	t.sorted = false
}

// AppendRows bulk-appends rows [start, end) of src, which must share the
// schema. Column slices are copied wholesale, so moving a user block between
// tables costs a few memcpys instead of a per-row loop — the partitioning
// path of sharded builds depends on this.
func (t *Table) AppendRows(src *Table, start, end int) {
	if src.schema != t.schema && !src.schema.Equal(t.schema) {
		panic("activity: AppendRows across different schemas")
	}
	if start >= end {
		return
	}
	for c := 0; c < t.schema.NumCols(); c++ {
		if t.schema.IsStringCol(c) {
			t.strs[c] = append(t.strs[c], src.strs[c][start:end]...)
		} else {
			t.ints[c] = append(t.ints[c], src.ints[c][start:end]...)
		}
	}
	t.n += end - start
	t.sorted = false
}

// Append appends one tuple given values in schema order. String columns take
// string values, int and time columns take int64 or time.Time values.
func (t *Table) Append(values ...any) error {
	if len(values) != t.schema.NumCols() {
		return fmt.Errorf("activity: Append got %d values, schema has %d columns", len(values), t.schema.NumCols())
	}
	// Validate all values before mutating any column so a failed append
	// leaves the table consistent.
	strs := make([]string, len(values))
	ints := make([]int64, len(values))
	for i, v := range values {
		if t.schema.IsStringCol(i) {
			s, ok := v.(string)
			if !ok {
				return fmt.Errorf("activity: column %q wants string, got %T", t.schema.Col(i).Name, v)
			}
			strs[i] = s
			continue
		}
		switch x := v.(type) {
		case int64:
			ints[i] = x
		case int:
			ints[i] = int64(x)
		case time.Time:
			ints[i] = x.Unix()
		default:
			return fmt.Errorf("activity: column %q wants int64/time, got %T", t.schema.Col(i).Name, v)
		}
	}
	t.AppendRow(strs, ints)
	return nil
}

// Strings returns the backing slice of a string column. Callers must not
// mutate it.
func (t *Table) Strings(col int) []string { return t.strs[col] }

// Ints returns the backing slice of an int/time column. Callers must not
// mutate it.
func (t *Table) Ints(col int) []int64 { return t.ints[col] }

// User returns the user of row i.
func (t *Table) User(i int) string { return t.strs[t.schema.UserCol()][i] }

// Time returns the timestamp of row i.
func (t *Table) Time(i int) int64 { return t.ints[t.schema.TimeCol()][i] }

// Action returns the action of row i.
func (t *Table) Action(i int) string { return t.strs[t.schema.ActionCol()][i] }

// SortByPK sorts the table by (Au, At, Ae) and validates the primary-key
// constraint, returning an error naming the first duplicate triple found.
func (t *Table) SortByPK() error {
	u, ts, a := t.schema.UserCol(), t.schema.TimeCol(), t.schema.ActionCol()
	idx := make([]int, t.n)
	for i := range idx {
		idx[i] = i
	}
	us, tms, as := t.strs[u], t.ints[ts], t.strs[a]
	sort.SliceStable(idx, func(x, y int) bool {
		i, j := idx[x], idx[y]
		if us[i] != us[j] {
			return us[i] < us[j]
		}
		if tms[i] != tms[j] {
			return tms[i] < tms[j]
		}
		return as[i] < as[j]
	})
	for k := 1; k < t.n; k++ {
		i, j := idx[k-1], idx[k]
		if us[i] == us[j] && tms[i] == tms[j] && as[i] == as[j] {
			return fmt.Errorf("activity: primary key violation: user %q performed %q twice at %d", us[i], as[i], tms[i])
		}
	}
	t.permute(idx)
	t.sorted = true
	return nil
}

// permute reorders every column by idx.
func (t *Table) permute(idx []int) {
	for c := 0; c < t.schema.NumCols(); c++ {
		if t.schema.IsStringCol(c) {
			src := t.strs[c]
			dst := make([]string, len(src))
			for k, i := range idx {
				dst[k] = src[i]
			}
			t.strs[c] = dst
		} else {
			src := t.ints[c]
			dst := make([]int64, len(src))
			for k, i := range idx {
				dst[k] = src[i]
			}
			t.ints[c] = dst
		}
	}
}

// AssertSortedByPK verifies in one linear pass that the rows are already in
// strict (Au, At, Ae) order — no duplicates — and marks the table sorted.
// Decoders that produce rows in storage order use it instead of SortByPK to
// avoid an O(n log n) re-sort of already-sorted data.
func (t *Table) AssertSortedByPK() error {
	u, ts, a := t.schema.UserCol(), t.schema.TimeCol(), t.schema.ActionCol()
	us, tms, as := t.strs[u], t.ints[ts], t.strs[a]
	for k := 1; k < t.n; k++ {
		switch {
		case us[k-1] != us[k]:
			if us[k-1] > us[k] {
				return fmt.Errorf("activity: rows %d-%d out of user order", k-1, k)
			}
		case tms[k-1] != tms[k]:
			if tms[k-1] > tms[k] {
				return fmt.Errorf("activity: rows %d-%d out of time order", k-1, k)
			}
		case as[k-1] < as[k]:
		case as[k-1] > as[k]:
			return fmt.Errorf("activity: rows %d-%d out of action order", k-1, k)
		default:
			return fmt.Errorf("activity: primary key violation: user %q performed %q twice at %d", us[k], as[k], tms[k])
		}
	}
	t.sorted = true
	return nil
}

// MergeSorted merges two tables already sorted by primary key into a new
// sorted table over the same schema, validating the primary-key constraint
// across both inputs. It is the streaming-append path's alternative to
// re-sorting a growing table on every batch: O(len(a)+len(b)) instead of a
// full sort.
func MergeSorted(a, b *Table) (*Table, error) {
	if a.schema != b.schema && !a.schema.Equal(b.schema) {
		return nil, fmt.Errorf("activity: MergeSorted inputs have different schemas")
	}
	if !a.Sorted() || !b.Sorted() {
		return nil, fmt.Errorf("activity: MergeSorted inputs must be sorted")
	}
	u, ts, ac := a.schema.UserCol(), a.schema.TimeCol(), a.schema.ActionCol()
	// cmp orders (Au, At, Ae) across the two tables; 0 is a PK violation.
	cmp := func(i, j int) int {
		switch {
		case a.strs[u][i] != b.strs[u][j]:
			if a.strs[u][i] < b.strs[u][j] {
				return -1
			}
			return 1
		case a.ints[ts][i] != b.ints[ts][j]:
			if a.ints[ts][i] < b.ints[ts][j] {
				return -1
			}
			return 1
		case a.strs[ac][i] != b.strs[ac][j]:
			if a.strs[ac][i] < b.strs[ac][j] {
				return -1
			}
			return 1
		default:
			return 0
		}
	}
	out := NewTable(a.schema)
	out.Grow(a.n + b.n)
	strs := make([]string, a.schema.NumCols())
	ints := make([]int64, a.schema.NumCols())
	take := func(t *Table, r int) {
		for c := 0; c < t.schema.NumCols(); c++ {
			if t.schema.IsStringCol(c) {
				strs[c] = t.strs[c][r]
			} else {
				ints[c] = t.ints[c][r]
			}
		}
		out.AppendRow(strs, ints)
	}
	i, j := 0, 0
	for i < a.n && j < b.n {
		switch cmp(i, j) {
		case -1:
			take(a, i)
			i++
		case 1:
			take(b, j)
			j++
		default:
			return nil, fmt.Errorf("activity: primary key violation: user %q performed %q twice at %d",
				a.strs[u][i], a.strs[ac][i], a.ints[ts][i])
		}
	}
	for ; i < a.n; i++ {
		take(a, i)
	}
	for ; j < b.n; j++ {
		take(b, j)
	}
	out.sorted = true
	return out, nil
}

// UserBlocks calls fn once per user with the half-open row range [start, end)
// of that user's tuples. The table must be sorted.
func (t *Table) UserBlocks(fn func(user string, start, end int)) {
	if t.n == 0 {
		return
	}
	us := t.strs[t.schema.UserCol()]
	start := 0
	for i := 1; i <= t.n; i++ {
		if i == t.n || us[i] != us[start] {
			fn(us[start], start, i)
			start = i
		}
	}
}

// NumUsers returns the number of distinct users. The table must be sorted.
func (t *Table) NumUsers() int {
	n := 0
	t.UserBlocks(func(string, int, int) { n++ })
	return n
}
