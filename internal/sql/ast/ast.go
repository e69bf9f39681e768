// Package ast defines the abstract syntax tree produced by the SQL parser.
// Expression nodes render themselves back to SQL text via String; the
// prompt generator relies on this to turn plan conditions into natural
// language fragments.
package ast

import (
	"strings"

	"repro/internal/value"
)

// Expr is any SQL expression node.
type Expr interface {
	String() string
	exprNode()
}

// ColumnRef references a column, optionally qualified: Table.Name.
type ColumnRef struct {
	Table string
	Name  string
}

func (c *ColumnRef) exprNode() {}

// String renders the (possibly qualified) reference.
func (c *ColumnRef) String() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Literal is a constant value.
type Literal struct {
	Val value.Value
}

func (l *Literal) exprNode() {}

// String renders the SQL literal form.
func (l *Literal) String() string { return l.Val.SQLLiteral() }

// Star is the * in SELECT * or COUNT(*); Table is set for t.*.
type Star struct {
	Table string
}

func (s *Star) exprNode() {}

// String renders "*" or "t.*".
func (s *Star) String() string {
	if s.Table == "" {
		return "*"
	}
	return s.Table + ".*"
}

// Binary is a binary operation. Op is one of
// = != < <= > >= + - * / % AND OR.
type Binary struct {
	Op    string
	Left  Expr
	Right Expr
}

func (b *Binary) exprNode() {}

// String renders the infix form, parenthesizing logical operands.
func (b *Binary) String() string {
	l, r := b.Left.String(), b.Right.String()
	if b.Op == "AND" || b.Op == "OR" {
		if _, ok := b.Left.(*Binary); ok {
			if lb := b.Left.(*Binary); lb.Op == "AND" || lb.Op == "OR" {
				l = "(" + l + ")"
			}
		}
		if _, ok := b.Right.(*Binary); ok {
			if rb := b.Right.(*Binary); rb.Op == "AND" || rb.Op == "OR" {
				r = "(" + r + ")"
			}
		}
	}
	return l + " " + b.Op + " " + r
}

// Unary is NOT expr or -expr.
type Unary struct {
	Op   string // "NOT" or "-"
	Expr Expr
}

func (u *Unary) exprNode() {}

// String renders the prefix form.
func (u *Unary) String() string {
	if u.Op == "NOT" {
		return "NOT (" + u.Expr.String() + ")"
	}
	return u.Op + u.Expr.String()
}

// FuncCall is a function application; aggregates (COUNT, SUM, AVG, MIN,
// MAX) and scalar functions share this node. Distinct marks
// COUNT(DISTINCT x).
type FuncCall struct {
	Name     string // upper-cased
	Distinct bool
	Args     []Expr
}

func (f *FuncCall) exprNode() {}

// String renders name(args).
func (f *FuncCall) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	inner := strings.Join(parts, ", ")
	if f.Distinct {
		inner = "DISTINCT " + inner
	}
	return f.Name + "(" + inner + ")"
}

// IsAggregate reports whether the call is one of the five SQL aggregates
// or the engine-internal FIRST (the any-value aggregate implicit GROUP BY
// columns compile to).
func (f *FuncCall) IsAggregate() bool {
	switch f.Name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX", "FIRST":
		return true
	}
	return false
}

// InList is expr [NOT] IN (e1, e2, ...).
type InList struct {
	Expr Expr
	List []Expr
	Not  bool
}

func (i *InList) exprNode() {}

// String renders the IN form.
func (i *InList) String() string {
	parts := make([]string, len(i.List))
	for j, e := range i.List {
		parts[j] = e.String()
	}
	op := "IN"
	if i.Not {
		op = "NOT IN"
	}
	return i.Expr.String() + " " + op + " (" + strings.Join(parts, ", ") + ")"
}

// Between is expr [NOT] BETWEEN lo AND hi.
type Between struct {
	Expr Expr
	Lo   Expr
	Hi   Expr
	Not  bool
}

func (b *Between) exprNode() {}

// String renders the BETWEEN form.
func (b *Between) String() string {
	op := "BETWEEN"
	if b.Not {
		op = "NOT BETWEEN"
	}
	return b.Expr.String() + " " + op + " " + b.Lo.String() + " AND " + b.Hi.String()
}

// Like is expr [NOT] LIKE pattern.
type Like struct {
	Expr    Expr
	Pattern Expr
	Not     bool
}

func (l *Like) exprNode() {}

// String renders the LIKE form.
func (l *Like) String() string {
	op := "LIKE"
	if l.Not {
		op = "NOT LIKE"
	}
	return l.Expr.String() + " " + op + " " + l.Pattern.String()
}

// IsNull is expr IS [NOT] NULL.
type IsNull struct {
	Expr Expr
	Not  bool
}

func (i *IsNull) exprNode() {}

// String renders the IS NULL form.
func (i *IsNull) String() string {
	if i.Not {
		return i.Expr.String() + " IS NOT NULL"
	}
	return i.Expr.String() + " IS NULL"
}

// CaseWhen is one WHEN cond THEN result arm.
type CaseWhen struct {
	Cond   Expr
	Result Expr
}

// Case is CASE WHEN ... [ELSE ...] END (searched form only).
type Case struct {
	Whens []CaseWhen
	Else  Expr
}

func (c *Case) exprNode() {}

// String renders the CASE form.
func (c *Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		b.WriteString(" WHEN ")
		b.WriteString(w.Cond.String())
		b.WriteString(" THEN ")
		b.WriteString(w.Result.String())
	}
	if c.Else != nil {
		b.WriteString(" ELSE ")
		b.WriteString(c.Else.String())
	}
	b.WriteString(" END")
	return b.String()
}

// SelectItem is one output column of a SELECT: an expression with an
// optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// String renders "expr AS alias".
func (s SelectItem) String() string {
	if s.Alias == "" {
		return s.Expr.String()
	}
	return s.Expr.String() + " AS " + s.Alias
}

// JoinType distinguishes the FROM-clause join forms.
type JoinType uint8

// Join kinds. Comma-separated FROM items parse as JoinCross.
const (
	JoinNone JoinType = iota // first FROM item
	JoinCross
	JoinInner
	JoinLeft
)

// String names the join kind.
func (j JoinType) String() string {
	switch j {
	case JoinCross:
		return "CROSS JOIN"
	case JoinInner:
		return "JOIN"
	case JoinLeft:
		return "LEFT JOIN"
	default:
		return ""
	}
}

// TableRef is one FROM item. Source optionally names the engine the table
// binds to ("LLM" or "DB", from LLM.country-style qualification); empty
// means resolve via the default binding.
type TableRef struct {
	Source string // "" | "LLM" | "DB"
	Table  string
	Alias  string
	Join   JoinType
	On     Expr // nil for JoinNone/JoinCross
}

// Binding returns the alias if present, else the table name: the name by
// which columns reference this relation.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// String renders the FROM item.
func (t TableRef) String() string {
	var b strings.Builder
	if t.Join != JoinNone && t.Join != JoinCross {
		b.WriteString(t.Join.String())
		b.WriteByte(' ')
	}
	if t.Source != "" {
		b.WriteString(t.Source)
		b.WriteByte('.')
	}
	b.WriteString(t.Table)
	if t.Alias != "" {
		b.WriteByte(' ')
		b.WriteString(t.Alias)
	}
	if t.On != nil {
		b.WriteString(" ON ")
		b.WriteString(t.On.String())
	}
	return b.String()
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Statement is any parsed SQL statement.
type Statement interface{ stmtNode() }

// Select is a SELECT statement.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
	Offset   int // 0 when absent
}

func (s *Select) stmtNode() {}

// String renders the statement back to SQL.
func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.String())
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, f := range s.From {
			if i > 0 {
				if f.Join == JoinCross {
					b.WriteString(", ")
				} else {
					b.WriteByte(' ')
				}
			}
			b.WriteString(f.String())
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		b.WriteString(s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		b.WriteString(" LIMIT ")
		b.WriteString(itoa(s.Limit))
	}
	if s.Offset > 0 {
		b.WriteString(" OFFSET ")
		b.WriteString(itoa(s.Offset))
	}
	return b.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       value.Kind
	PrimaryKey bool
}

// CreateTable is a CREATE TABLE statement.
type CreateTable struct {
	Name    string
	Columns []ColumnDef
}

func (c *CreateTable) stmtNode() {}

// Insert is INSERT INTO t [(cols)] VALUES (...), (...).
type Insert struct {
	Table   string
	Columns []string // empty = positional
	Rows    [][]Expr
}

func (i *Insert) stmtNode() {}

// Explain is EXPLAIN [ANALYZE] SELECT ...: show the optimizer's chosen
// plan with its cost estimates; ANALYZE additionally executes the query
// and annotates the plan with actual per-operator prompt and row counts.
type Explain struct {
	Analyze bool
	Stmt    *Select
}

func (e *Explain) stmtNode() {}

// String renders the statement back to SQL.
func (e *Explain) String() string {
	if e.Analyze {
		return "EXPLAIN ANALYZE " + e.Stmt.String()
	}
	return "EXPLAIN " + e.Stmt.String()
}

// Walk visits e and every sub-expression in depth-first order. The visitor
// returns false to prune the subtree.
func Walk(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch n := e.(type) {
	case *Binary:
		Walk(n.Left, visit)
		Walk(n.Right, visit)
	case *Unary:
		Walk(n.Expr, visit)
	case *FuncCall:
		for _, a := range n.Args {
			Walk(a, visit)
		}
	case *InList:
		Walk(n.Expr, visit)
		for _, a := range n.List {
			Walk(a, visit)
		}
	case *Between:
		Walk(n.Expr, visit)
		Walk(n.Lo, visit)
		Walk(n.Hi, visit)
	case *Like:
		Walk(n.Expr, visit)
		Walk(n.Pattern, visit)
	case *IsNull:
		Walk(n.Expr, visit)
	case *Case:
		for _, w := range n.Whens {
			Walk(w.Cond, visit)
			Walk(w.Result, visit)
		}
		if n.Else != nil {
			Walk(n.Else, visit)
		}
	}
}

// ColumnRefs returns every column reference in e, in visit order.
func ColumnRefs(e Expr) []*ColumnRef {
	var refs []*ColumnRef
	Walk(e, func(x Expr) bool {
		if c, ok := x.(*ColumnRef); ok {
			refs = append(refs, c)
		}
		return true
	})
	return refs
}

// HasAggregate reports whether e contains an aggregate function call.
func HasAggregate(e Expr) bool {
	found := false
	Walk(e, func(x Expr) bool {
		if f, ok := x.(*FuncCall); ok && f.IsAggregate() {
			found = true
			return false
		}
		return true
	})
	return found
}

// Conjuncts flattens a predicate into its AND-ed conjuncts, left to
// right.
func Conjuncts(e Expr) []Expr { return appendConjuncts(nil, e) }

func appendConjuncts(dst []Expr, e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return appendConjuncts(appendConjuncts(dst, b.Left), b.Right)
	}
	return append(dst, e)
}

// And re-ANDs a conjunct list left-deep, the inverse of Conjuncts; nil
// for an empty list.
func And(cs []Expr) Expr {
	if len(cs) == 0 {
		return nil
	}
	e := cs[0]
	for _, c := range cs[1:] {
		e = &Binary{Op: "AND", Left: e, Right: c}
	}
	return e
}
