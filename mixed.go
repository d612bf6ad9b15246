package cohana

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/expr"
	"repro/internal/parser"
)

// MixedResult is the relation produced by a mixed query's outer SQL query
// (Section 3.5): plain columns over the cohort sub-query's output.
type MixedResult struct {
	Cols []string
	Rows [][]string
}

// String renders the result as an aligned text table.
func (m *MixedResult) String() string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(m.Cols, "\t"))
	for _, r := range m.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	return sb.String()
}

// resultCols enumerates the addressable columns of a cohort result: the
// cohort attributes, AGE, COHORTSIZE, and each aggregate (by alias or
// canonical name).
type resultCols struct {
	res *Result
}

// colKind classifies outer-query columns.
type outerKind uint8

const (
	outerKey outerKind = iota
	outerAge
	outerSize
	outerAgg
)

type outerCol struct {
	kind outerKind
	idx  int // key index or aggregate index
	name string
}

func (rc resultCols) resolve(name string) (outerCol, error) {
	switch strings.ToLower(name) {
	case "age":
		return outerCol{kind: outerAge, name: "AGE"}, nil
	case "cohortsize":
		return outerCol{kind: outerSize, name: "COHORTSIZE"}, nil
	}
	for i, k := range rc.res.KeyCols {
		if strings.EqualFold(k, name) {
			return outerCol{kind: outerKey, idx: i, name: k}, nil
		}
	}
	for i, a := range rc.res.AggNames {
		if strings.EqualFold(a, name) {
			return outerCol{kind: outerAgg, idx: i, name: a}, nil
		}
	}
	return outerCol{}, fmt.Errorf("cohana: outer query references unknown column %q", name)
}

// outerValue is a string-or-number value of the outer query.
type outerValue struct {
	isStr bool
	str   string
	num   float64
}

func (rc resultCols) value(r Row, c outerCol) outerValue {
	switch c.kind {
	case outerKey:
		return outerValue{isStr: true, str: r.Cohort[c.idx]}
	case outerAge:
		return outerValue{num: float64(r.Age)}
	case outerSize:
		return outerValue{num: float64(r.Size)}
	default:
		return outerValue{num: r.Aggs[c.idx]}
	}
}

func (v outerValue) display() string {
	if v.isStr {
		return v.str
	}
	if v.num == math.Trunc(v.num) && math.Abs(v.num) < 1e15 {
		return fmt.Sprintf("%d", int64(v.num))
	}
	return fmt.Sprintf("%.2f", v.num)
}

func (v outerValue) compare(o outerValue) (int, error) {
	if v.isStr != o.isStr {
		return 0, fmt.Errorf("cohana: outer query compares string with number")
	}
	if v.isStr {
		return strings.Compare(v.str, o.str), nil
	}
	switch {
	case v.num < o.num:
		return -1, nil
	case v.num > o.num:
		return 1, nil
	default:
		return 0, nil
	}
}

// outerPred is a compiled outer WHERE predicate.
type outerPred func(Row) (bool, error)

// compileOuter compiles the restricted expression language over result
// columns. Birth() and bare attribute coercions do not apply here: the
// outer query sees a plain relation.
func compileOuter(e expr.Expr, rc resultCols) (outerPred, error) {
	valueFn := func(e expr.Expr) (func(Row) outerValue, error) {
		switch x := e.(type) {
		case expr.Col:
			c, err := rc.resolve(x.Name)
			if err != nil {
				return nil, err
			}
			return func(r Row) outerValue { return rc.value(r, c) }, nil
		case expr.Age:
			return func(r Row) outerValue { return outerValue{num: float64(r.Age)} }, nil
		case expr.Lit:
			v := toOuter(x.Val)
			return func(Row) outerValue { return v }, nil
		case expr.Birth:
			return nil, fmt.Errorf("cohana: Birth() is not available in the outer query")
		default:
			return nil, fmt.Errorf("cohana: unsupported outer scalar %s", e)
		}
	}
	switch x := e.(type) {
	case expr.And:
		l, err := compileOuter(x.L, rc)
		if err != nil {
			return nil, err
		}
		r, err := compileOuter(x.R, rc)
		if err != nil {
			return nil, err
		}
		return func(row Row) (bool, error) {
			lv, err := l(row)
			if err != nil || !lv {
				return false, err
			}
			return r(row)
		}, nil
	case expr.Or:
		l, err := compileOuter(x.L, rc)
		if err != nil {
			return nil, err
		}
		r, err := compileOuter(x.R, rc)
		if err != nil {
			return nil, err
		}
		return func(row Row) (bool, error) {
			lv, err := l(row)
			if err != nil || lv {
				return lv, err
			}
			return r(row)
		}, nil
	case expr.Not:
		p, err := compileOuter(x.E, rc)
		if err != nil {
			return nil, err
		}
		return func(row Row) (bool, error) {
			v, err := p(row)
			return !v, err
		}, nil
	case expr.Cmp:
		l, err := valueFn(x.L)
		if err != nil {
			return nil, err
		}
		r, err := valueFn(x.R)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return func(row Row) (bool, error) {
			c, err := l(row).compare(r(row))
			if err != nil {
				return false, err
			}
			return cmpHolds(op, c), nil
		}, nil
	case expr.In:
		l, err := valueFn(x.L)
		if err != nil {
			return nil, err
		}
		list := make([]outerValue, len(x.List))
		for i, v := range x.List {
			list[i] = toOuter(v)
		}
		return func(row Row) (bool, error) {
			v := l(row)
			for _, w := range list {
				c, err := v.compare(w)
				if err != nil {
					return false, err
				}
				if c == 0 {
					return true, nil
				}
			}
			return false, nil
		}, nil
	case expr.Between:
		l, err := valueFn(x.L)
		if err != nil {
			return nil, err
		}
		lo, hi := toOuter(x.Lo), toOuter(x.Hi)
		return func(row Row) (bool, error) {
			v := l(row)
			cl, err := v.compare(lo)
			if err != nil {
				return false, err
			}
			ch, err := v.compare(hi)
			if err != nil {
				return false, err
			}
			return cl >= 0 && ch <= 0, nil
		}, nil
	default:
		return nil, fmt.Errorf("cohana: unsupported outer condition %s", e)
	}
}

func toOuter(v expr.Value) outerValue {
	if v.Kind == expr.KindString {
		return outerValue{isStr: true, str: v.Str}
	}
	return outerValue{num: float64(v.Int)}
}

func cmpHolds(op expr.CmpOp, c int) bool {
	switch op {
	case expr.OpEq:
		return c == 0
	case expr.OpNe:
		return c != 0
	case expr.OpLt:
		return c < 0
	case expr.OpLe:
		return c <= 0
	case expr.OpGt:
		return c > 0
	case expr.OpGe:
		return c >= 0
	default:
		return false
	}
}

// runOuter applies the outer WHERE / projection / ORDER BY / LIMIT to the
// inner result.
func runOuter(m *parser.MixedStmt, inner *Result) (*MixedResult, error) {
	rc := resultCols{res: inner}
	cols := make([]outerCol, len(m.Cols))
	for i, name := range m.Cols {
		c, err := rc.resolve(name)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	var pred outerPred
	if m.Where != nil {
		var err error
		if pred, err = compileOuter(m.Where, rc); err != nil {
			return nil, err
		}
	}
	rows := make([]Row, 0, len(inner.Rows))
	for _, r := range inner.Rows {
		if pred != nil {
			ok, err := pred(r)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		rows = append(rows, r)
	}
	if m.Order != nil {
		oc, err := rc.resolve(m.Order.Col)
		if err != nil {
			return nil, err
		}
		desc := m.Order.Desc
		var sortErr error
		sort.SliceStable(rows, func(i, j int) bool {
			c, err := rc.value(rows[i], oc).compare(rc.value(rows[j], oc))
			if err != nil {
				sortErr = err
			}
			if desc {
				return c > 0
			}
			return c < 0
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}
	if m.Limit >= 0 && len(rows) > m.Limit {
		rows = rows[:m.Limit]
	}
	out := &MixedResult{}
	for _, c := range cols {
		out.Cols = append(out.Cols, c.name)
	}
	for _, r := range rows {
		disp := make([]string, len(cols))
		for i, c := range cols {
			disp[i] = rc.value(r, c).display()
		}
		out.Rows = append(out.Rows, disp)
	}
	return out, nil
}
