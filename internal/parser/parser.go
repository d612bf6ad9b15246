package parser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cohort"
	"repro/internal/expr"
)

// SelectItem is one entry of the SELECT list.
type SelectItem struct {
	// Kind discriminates the item.
	Kind SelectKind
	// Name is the attribute name (KindAttr) or output alias (aggregates).
	Name string
	// Agg is set for KindAgg.
	Agg cohort.AggSpec
}

// SelectKind classifies SELECT list entries.
type SelectKind uint8

// Select item kinds: a cohort attribute, the COHORTSIZE keyword, the AGE
// keyword, or an aggregate call.
const (
	KindAttr SelectKind = iota
	KindCohortSize
	KindAge
	KindAgg
)

// CohortStmt is a parsed cohort query (Section 3.4 syntax).
type CohortStmt struct {
	Select []SelectItem
	From   string
	Query  *cohort.Query
}

// OrderBy is the outer ORDER BY of a mixed query.
type OrderBy struct {
	Col  string
	Desc bool
}

// MixedStmt is a parsed mixed query (Section 3.5): a cohort sub-query under
// WITH, consumed by a plain SQL outer query. Per the paper's rules the
// outermost query is SQL and the cohort query is evaluated first.
type MixedStmt struct {
	Alias string      // WITH <alias> AS (...)
	Inner *CohortStmt // the cohort sub-query
	// Outer parts. Cols lists projected result columns (nil = all).
	Cols  []string
	Where expr.Expr // condition over result columns (may be nil)
	Order *OrderBy  // may be nil
	Limit int       // -1 when absent
}

// Stmt is a parsed statement: exactly one of Cohort or Mixed is non-nil.
// Explain marks an EXPLAIN prefix, and Analyze an EXPLAIN ANALYZE one.
type Stmt struct {
	Cohort  *CohortStmt
	Mixed   *MixedStmt
	Explain bool
	Analyze bool
}

// Inner is the statement's cohort query: the query itself, or the WITH
// sub-query of a mixed query.
func (s *Stmt) Inner() *CohortStmt {
	if s.Mixed != nil {
		return s.Mixed.Inner
	}
	return s.Cohort
}

// Parse parses a cohort query or a mixed query, either optionally prefixed
// with EXPLAIN or EXPLAIN ANALYZE.
func Parse(src string) (*Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt := &Stmt{}
	if p.peekKeyword("EXPLAIN") {
		p.advance()
		stmt.Explain = true
		if p.peekKeyword("ANALYZE") {
			p.advance()
			stmt.Analyze = true
		}
	}
	if p.peekKeyword("WITH") {
		if stmt.Mixed, err = p.parseMixed(); err != nil {
			return nil, err
		}
	} else if stmt.Cohort, err = p.parseCohort(); err != nil {
		return nil, err
	}
	if !p.at(tokEOF) {
		return nil, p.errf("unexpected %q after end of query", p.cur().text)
	}
	return stmt, nil
}

// ParseCohort parses a plain cohort query.
func ParseCohort(src string) (*CohortStmt, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if stmt.Cohort == nil || stmt.Explain {
		return nil, fmt.Errorf("parser: expected a cohort query")
	}
	return stmt.Cohort, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token        { return p.toks[p.pos] }
func (p *parser) at(k tokKind) bool { return p.cur().kind == k }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("parser: %s (at offset %d)", fmt.Sprintf(format, args...), p.cur().pos)
}

func (p *parser) advance() token {
	t := p.cur()
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// peekKeyword reports whether the current token is the given keyword.
func (p *parser) peekKeyword(kw string) bool {
	return p.at(tokIdent) && strings.EqualFold(p.cur().text, kw)
}

// peekKeyword2 reports whether the current and next tokens are the given
// keywords.
func (p *parser) peekKeyword2(kw1, kw2 string) bool {
	if !p.peekKeyword(kw1) {
		return false
	}
	n := p.toks[p.pos+1]
	return n.kind == tokIdent && strings.EqualFold(n.text, kw2)
}

func (p *parser) expectKeyword(kw string) error {
	if !p.peekKeyword(kw) {
		return p.errf("expected %s, got %q", kw, p.cur().text)
	}
	p.advance()
	return nil
}

func (p *parser) expect(k tokKind) (token, error) {
	if !p.at(k) {
		return token{}, p.errf("expected %s, got %q", k, p.cur().text)
	}
	return p.advance(), nil
}

// aggFuncs maps function names to aggregate kinds.
var aggFuncs = map[string]cohort.AggFunc{
	"sum":       cohort.Sum,
	"count":     cohort.Count,
	"avg":       cohort.Avg,
	"min":       cohort.Min,
	"max":       cohort.Max,
	"usercount": cohort.UserCount,
}

// units maps unit names for COHORT BY time bins and AGE UNIT.
var units = map[string]cohort.Unit{
	"day": cohort.Day, "days": cohort.Day,
	"week": cohort.Week, "weeks": cohort.Week,
	"month": cohort.Month, "months": cohort.Month,
}

// parseCohort parses SELECT ... FROM t BIRTH FROM ... [AGE ACTIVITIES IN
// ...] COHORT BY ... [AGE UNIT u]. The BIRTH FROM / AGE ACTIVITIES clauses
// may appear in either order (Section 3.4).
func (p *parser) parseCohort() (*CohortStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &CohortStmt{Query: &cohort.Query{}}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Select = append(stmt.Select, item)
		if item.Kind == KindAgg {
			stmt.Query.Aggs = append(stmt.Query.Aggs, item.Agg)
		}
		if !p.at(tokComma) {
			break
		}
		p.advance()
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	stmt.From = from.text
	var sawBirth, sawAge, sawCohort bool
	for {
		switch {
		case p.peekKeyword2("BIRTH", "FROM"):
			if sawBirth {
				return nil, p.errf("duplicate BIRTH FROM clause")
			}
			sawBirth = true
			p.advance()
			p.advance()
			if err := p.parseBirthClause(stmt.Query); err != nil {
				return nil, err
			}
		case p.peekKeyword2("AGE", "ACTIVITIES"):
			if sawAge {
				return nil, p.errf("duplicate AGE ACTIVITIES clause")
			}
			sawAge = true
			p.advance()
			p.advance()
			if err := p.expectKeyword("IN"); err != nil {
				return nil, err
			}
			cond, err := p.parseCondition()
			if err != nil {
				return nil, err
			}
			stmt.Query.AgeCond = cond
		case p.peekKeyword2("COHORT", "BY"):
			if sawCohort {
				return nil, p.errf("duplicate COHORT BY clause")
			}
			sawCohort = true
			p.advance()
			p.advance()
			if err := p.parseCohortBy(stmt.Query); err != nil {
				return nil, err
			}
		case p.peekKeyword2("AGE", "UNIT"):
			p.advance()
			p.advance()
			u, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			unit, ok := units[strings.ToLower(u.text)]
			if !ok {
				return nil, p.errf("unknown age unit %q", u.text)
			}
			stmt.Query.AgeUnit = unit
		default:
			if !sawBirth {
				return nil, p.errf("missing BIRTH FROM clause")
			}
			if !sawCohort {
				return nil, p.errf("missing COHORT BY clause")
			}
			return stmt, nil
		}
	}
}

// parseSelectItem parses one SELECT entry.
func (p *parser) parseSelectItem() (SelectItem, error) {
	id, err := p.expect(tokIdent)
	if err != nil {
		return SelectItem{}, err
	}
	lower := strings.ToLower(id.text)
	switch lower {
	case "cohortsize":
		return SelectItem{Kind: KindCohortSize}, nil
	case "age":
		return SelectItem{Kind: KindAge}, nil
	}
	if fn, ok := aggFuncs[lower]; ok && p.at(tokLParen) {
		p.advance()
		spec := cohort.AggSpec{Func: fn}
		if p.at(tokIdent) {
			col := p.advance()
			spec.Col = col.text
		}
		if _, err := p.expect(tokRParen); err != nil {
			return SelectItem{}, err
		}
		item := SelectItem{Kind: KindAgg, Agg: spec}
		if p.peekKeyword("AS") {
			p.advance()
			alias, err := p.expect(tokIdent)
			if err != nil {
				return SelectItem{}, err
			}
			item.Agg.As = alias.text
			item.Name = alias.text
		}
		return item, nil
	}
	return SelectItem{Kind: KindAttr, Name: id.text}, nil
}

// parseBirthClause parses `action = "e" [AND condition]`: the syntax of
// Section 3.4 requires the birth action as the first equality; the remainder
// is the σb condition.
func (p *parser) parseBirthClause(q *cohort.Query) error {
	cond, err := p.parseCondition()
	if err != nil {
		return err
	}
	conjs := expr.Conjuncts(cond)
	first, ok := conjs[0].(expr.Cmp)
	if !ok || first.Op != expr.OpEq {
		return fmt.Errorf("parser: BIRTH FROM must start with action = \"<birth action>\"")
	}
	col, okL := first.L.(expr.Col)
	lit, okR := first.R.(expr.Lit)
	if !okL || !okR || lit.Val.Kind != expr.KindString {
		return fmt.Errorf("parser: BIRTH FROM must start with action = \"<birth action>\"")
	}
	q.BirthActionAttr = col.Name
	q.BirthAction = lit.Val.Str
	q.BirthCond = expr.AndAll(conjs[1:])
	return nil
}

// parseCohortBy parses the COHORT BY list: attr or attr(unit) for time-bin
// cohorts (e.g. time(week)).
func (p *parser) parseCohortBy(q *cohort.Query) error {
	for {
		id, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		key := cohort.CohortKey{Col: id.text}
		if p.at(tokLParen) {
			p.advance()
			u, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			unit, ok := units[strings.ToLower(u.text)]
			if !ok {
				return fmt.Errorf("parser: unknown time bin %q", u.text)
			}
			key.Bin = unit
			if _, err := p.expect(tokRParen); err != nil {
				return err
			}
		}
		q.CohortBy = append(q.CohortBy, key)
		if !p.at(tokComma) {
			return nil
		}
		p.advance()
	}
}

// Condition grammar: OR-chains of AND-chains of possibly negated primaries.

func (p *parser) parseCondition() (expr.Expr, error) {
	return p.parseOr()
}

func (p *parser) parseOr() (expr.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peekKeyword("OR") {
		p.advance()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = expr.Or{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.peekKeyword("AND") {
		p.advance()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = expr.And{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.peekKeyword("NOT") {
		p.advance()
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return expr.Not{E: inner}, nil
	}
	return p.parsePrimary()
}

// parsePrimary parses parenthesized conditions and comparisons.
func (p *parser) parsePrimary() (expr.Expr, error) {
	if p.at(tokLParen) {
		p.advance()
		inner, err := p.parseCondition()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return inner, nil
	}
	operand, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	switch {
	case p.peekKeyword("BETWEEN"):
		p.advance()
		lo, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return expr.Between{L: operand, Lo: lo, Hi: hi}, nil
	case p.peekKeyword("IN"):
		p.advance()
		list, err := p.parseLiteralList()
		if err != nil {
			return nil, err
		}
		return expr.In{L: operand, List: list}, nil
	case p.peekKeyword("NOT"):
		p.advance()
		if err := p.expectKeyword("IN"); err != nil {
			return nil, err
		}
		list, err := p.parseLiteralList()
		if err != nil {
			return nil, err
		}
		return expr.Not{E: expr.In{L: operand, List: list}}, nil
	}
	var op expr.CmpOp
	switch p.cur().kind {
	case tokEq:
		op = expr.OpEq
	case tokNe:
		op = expr.OpNe
	case tokLt:
		op = expr.OpLt
	case tokLe:
		op = expr.OpLe
	case tokGt:
		op = expr.OpGt
	case tokGe:
		op = expr.OpGe
	default:
		return nil, p.errf("expected a comparison operator, got %q", p.cur().text)
	}
	p.advance()
	right, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return expr.Cmp{Op: op, L: operand, R: right}, nil
}

// parseOperand parses AGE, Birth(attr), attribute references and literals.
func (p *parser) parseOperand() (expr.Expr, error) {
	switch p.cur().kind {
	case tokString:
		t := p.advance()
		return expr.Lit{Val: expr.S(t.text)}, nil
	case tokNumber:
		t := p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return expr.Lit{Val: expr.I(n)}, nil
	case tokIdent:
		id := p.advance()
		if strings.EqualFold(id.text, "AGE") {
			return expr.Age{}, nil
		}
		if strings.EqualFold(id.text, "Birth") && p.at(tokLParen) {
			p.advance()
			attr, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return expr.Birth{Name: attr.text}, nil
		}
		return expr.Col{Name: id.text}, nil
	default:
		return nil, p.errf("expected an operand, got %q", p.cur().text)
	}
}

func (p *parser) parseLiteral() (expr.Value, error) {
	switch p.cur().kind {
	case tokString:
		return expr.S(p.advance().text), nil
	case tokNumber:
		t := p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return expr.Value{}, p.errf("bad number %q", t.text)
		}
		return expr.I(n), nil
	default:
		return expr.Value{}, p.errf("expected a literal, got %q", p.cur().text)
	}
}

func (p *parser) parseLiteralList() ([]expr.Value, error) {
	if _, err := p.expect(tokLBracket); err != nil {
		return nil, err
	}
	var list []expr.Value
	for {
		v, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		list = append(list, v)
		if p.at(tokComma) {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(tokRBracket); err != nil {
		return nil, err
	}
	return list, nil
}

// parseMixed parses WITH alias AS ( cohortQuery ) SELECT ... FROM alias
// [WHERE cond] [ORDER BY col [DESC]] [LIMIT n].
func (p *parser) parseMixed() (*MixedStmt, error) {
	if err := p.expectKeyword("WITH"); err != nil {
		return nil, err
	}
	alias, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	inner, err := p.parseCohort()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	m := &MixedStmt{Alias: alias.text, Inner: inner, Limit: -1}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	for {
		id, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		m.Cols = append(m.Cols, id.text)
		if !p.at(tokComma) {
			break
		}
		p.advance()
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if !strings.EqualFold(from.text, m.Alias) {
		return nil, fmt.Errorf("parser: outer query must read the cohort sub-query %q, got %q (cohort sub-queries may not reference other tables, Section 3.5)", m.Alias, from.text)
	}
	if p.peekKeyword("WHERE") {
		p.advance()
		cond, err := p.parseCondition()
		if err != nil {
			return nil, err
		}
		m.Where = cond
	}
	if p.peekKeyword2("ORDER", "BY") {
		p.advance()
		p.advance()
		col, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		m.Order = &OrderBy{Col: col.text}
		if p.peekKeyword("DESC") {
			p.advance()
			m.Order.Desc = true
		} else if p.peekKeyword("ASC") {
			p.advance()
		}
	}
	if p.peekKeyword("LIMIT") {
		p.advance()
		n, err := p.expect(tokNumber)
		if err != nil {
			return nil, err
		}
		lim, err := strconv.Atoi(n.text)
		if err != nil || lim < 0 {
			return nil, p.errf("bad LIMIT %q", n.text)
		}
		m.Limit = lim
	}
	return m, nil
}
