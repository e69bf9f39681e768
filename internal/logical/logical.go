// Package logical defines the logical query plan Galois builds from a
// parsed SELECT. The plan doubles as the chain-of-thought decomposition of
// the query (Section 4 of the paper): each node is a simple step that either
// the LLM (via prompts) or the traditional engine can execute.
//
// Plans are trees of Node values. Scans carry the source binding ("DB" or
// "LLM"); the optimizer package lowers LLM-bound subtrees by injecting
// FetchAttr and LLMFilter nodes before operators that need attributes not
// yet retrieved.
package logical

import (
	"fmt"
	"strings"

	"repro/internal/schema"
	"repro/internal/sql/ast"
	"repro/internal/value"
)

// Node is one operator of the logical plan.
type Node interface {
	// Schema is the output schema of the operator.
	Schema() *schema.Schema
	// Children returns the input operators.
	Children() []Node
	// Describe renders the operator line for EXPLAIN.
	Describe() string
}

// Scan reads a base relation. For Source "DB" it produces every column;
// for Source "LLM" it produces only the key attribute (the paper's leaf
// retrieval), with other attributes fetched lazily by FetchAttr nodes.
// PushedFilter holds a selection merged into the retrieval prompt by the
// pushdown optimization; it is nil by default.
type Scan struct {
	Table        *schema.TableDef
	Binding      string // alias used in the query ("c" for "city c")
	Source       string // "DB" or "LLM"
	PushedFilter ast.Expr
	out          *schema.Schema
}

// NewScan builds a scan node. For LLM sources the output schema contains
// only the key column.
func NewScan(def *schema.TableDef, binding, source string) *Scan {
	s := &Scan{Table: def, Binding: binding, Source: source}
	if source == "LLM" {
		ki := def.KeyIndex()
		if ki < 0 {
			ki = 0
		}
		kc := def.Schema.Columns[ki]
		s.out = schema.New(schema.Column{Table: binding, Name: kc.Name, Type: kc.Type})
	} else {
		cols := make([]schema.Column, len(def.Schema.Columns))
		for i, c := range def.Schema.Columns {
			cols[i] = schema.Column{Table: binding, Name: c.Name, Type: c.Type}
		}
		s.out = schema.New(cols...)
	}
	return s
}

// Schema implements Node.
func (s *Scan) Schema() *schema.Schema { return s.out }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Describe implements Node.
func (s *Scan) Describe() string {
	var b strings.Builder
	if s.Source == "LLM" {
		fmt.Fprintf(&b, "LLMKeyScan %s AS %s (key=%s)", s.Table.Name, s.Binding, s.Table.KeyColumn)
	} else {
		fmt.Fprintf(&b, "Scan %s AS %s", s.Table.Name, s.Binding)
	}
	if s.PushedFilter != nil {
		fmt.Fprintf(&b, " [pushed: %s]", s.PushedFilter.String())
	}
	return b.String()
}

// FetchAttr retrieves one additional attribute of an LLM-bound relation for
// every input tuple ("Get the current mayor of c.name", Section 4). It is
// injected right before the operator that needs the attribute.
type FetchAttr struct {
	Input   Node
	Table   *schema.TableDef
	Binding string
	Attr    string
	KeyCol  int // index of the relation's key column in the input schema
	out     *schema.Schema
}

// NewFetchAttr builds a fetch node appending Attr to the input schema.
func NewFetchAttr(input Node, def *schema.TableDef, binding, attr string, keyCol int) (*FetchAttr, error) {
	var kind value.Kind
	found := false
	for _, c := range def.Schema.Columns {
		if strings.EqualFold(c.Name, attr) {
			kind = c.Type
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("logical: relation %s has no attribute %s", def.Name, attr)
	}
	out := input.Schema().Clone()
	out.Columns = append(out.Columns, schema.Column{Table: binding, Name: attr, Type: kind})
	return &FetchAttr{Input: input, Table: def, Binding: binding, Attr: attr, KeyCol: keyCol, out: out}, nil
}

// Schema implements Node.
func (f *FetchAttr) Schema() *schema.Schema { return f.out }

// Children implements Node.
func (f *FetchAttr) Children() []Node { return []Node{f.Input} }

// Describe implements Node.
func (f *FetchAttr) Describe() string {
	return fmt.Sprintf("LLMFetchAttr %s.%s (per key %s.%s)", f.Binding, f.Attr, f.Binding, f.Table.KeyColumn)
}

// LLMFilter filters tuples of an LLM-bound relation with one boolean prompt
// per key ("Has city c.name more than 1M population?"). Cond references
// exactly one non-key attribute of the relation compared to a literal.
type LLMFilter struct {
	Input   Node
	Table   *schema.TableDef
	Binding string
	Cond    *ast.Binary // attr op literal
	KeyCol  int
}

// Schema implements Node.
func (f *LLMFilter) Schema() *schema.Schema { return f.Input.Schema() }

// Children implements Node.
func (f *LLMFilter) Children() []Node { return []Node{f.Input} }

// Describe implements Node.
func (f *LLMFilter) Describe() string {
	return fmt.Sprintf("LLMFilter %s (per key %s.%s)", f.Cond.String(), f.Binding, f.Table.KeyColumn)
}

// Filter keeps tuples satisfying Cond; executed by the traditional engine.
type Filter struct {
	Input Node
	Cond  ast.Expr
}

// Schema implements Node.
func (f *Filter) Schema() *schema.Schema { return f.Input.Schema() }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Input} }

// Describe implements Node.
func (f *Filter) Describe() string { return "Filter " + f.Cond.String() }

// Join combines two inputs. On is nil for cross joins.
type Join struct {
	Left  Node
	Right Node
	Type  ast.JoinType
	On    ast.Expr
	out   *schema.Schema
}

// NewJoin builds a join node with the concatenated schema.
func NewJoin(left, right Node, jt ast.JoinType, on ast.Expr) *Join {
	return &Join{Left: left, Right: right, Type: jt, On: on,
		out: left.Schema().Concat(right.Schema())}
}

// Schema implements Node.
func (j *Join) Schema() *schema.Schema { return j.out }

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// Describe implements Node.
func (j *Join) Describe() string {
	if j.On == nil {
		return j.name()
	}
	return j.name() + " ON " + j.On.String()
}

// name names the join kind.
func (j *Join) name() string {
	switch j.Type {
	case ast.JoinCross:
		return "CrossJoin"
	case ast.JoinLeft:
		return "LeftJoin"
	}
	return "Join"
}

// AggSpec is one aggregate computed by an Aggregate node.
type AggSpec struct {
	Call *ast.FuncCall
	Name string // output column name = Call.String()
}

// Aggregate groups the input by GroupBy and computes Aggs. Its output
// schema is the group-by columns followed by one column per aggregate.
type Aggregate struct {
	Input   Node
	GroupBy []ast.Expr
	Aggs    []AggSpec
	out     *schema.Schema
}

// NewAggregate builds an aggregate node, inferring output column types
// against the input's runtime schema.
func NewAggregate(input Node, groupBy []ast.Expr, aggs []AggSpec) (*Aggregate, error) {
	return NewAggregateTyped(input, groupBy, aggs, input.Schema())
}

// NewAggregateTyped builds an aggregate node, inferring types against an
// explicit typing schema. The builder passes the full declared schema of
// every FROM table here, because before LLM lowering the runtime schema of
// an LLM scan holds only the key attribute.
func NewAggregateTyped(input Node, groupBy []ast.Expr, aggs []AggSpec, in *schema.Schema) (*Aggregate, error) {
	var cols []schema.Column
	for _, g := range groupBy {
		kind, err := InferType(g, in)
		if err != nil {
			return nil, err
		}
		if ref, ok := g.(*ast.ColumnRef); ok {
			cols = append(cols, schema.Column{Table: ref.Table, Name: ref.Name, Type: kind})
		} else {
			cols = append(cols, schema.Column{Name: g.String(), Type: kind})
		}
	}
	for _, a := range aggs {
		kind, err := aggType(a.Call, in)
		if err != nil {
			return nil, err
		}
		cols = append(cols, schema.Column{Name: a.Name, Type: kind})
	}
	return &Aggregate{Input: input, GroupBy: groupBy, Aggs: aggs, out: schema.New(cols...)}, nil
}

func aggType(call *ast.FuncCall, in *schema.Schema) (value.Kind, error) {
	switch call.Name {
	case "COUNT":
		// COUNT(expr) still requires the argument to resolve.
		if len(call.Args) == 1 {
			if _, isStar := call.Args[0].(*ast.Star); !isStar {
				if _, err := InferType(call.Args[0], in); err != nil {
					return value.KindNull, err
				}
			}
		}
		return value.KindInt, nil
	case "SUM", "AVG":
		return value.KindFloat, nil
	case "MIN", "MAX", "FIRST":
		if len(call.Args) != 1 {
			return value.KindNull, fmt.Errorf("logical: %s expects one argument", call.Name)
		}
		return InferType(call.Args[0], in)
	default:
		return value.KindNull, fmt.Errorf("logical: unknown aggregate %s", call.Name)
	}
}

// Schema implements Node.
func (a *Aggregate) Schema() *schema.Schema { return a.out }

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Input} }

// Describe implements Node.
func (a *Aggregate) Describe() string {
	var parts []string
	for _, s := range a.Aggs {
		parts = append(parts, s.Name)
	}
	d := "Aggregate [" + strings.Join(parts, ", ") + "]"
	if len(a.GroupBy) > 0 {
		var gs []string
		for _, g := range a.GroupBy {
			gs = append(gs, g.String())
		}
		d += " GROUP BY " + strings.Join(gs, ", ")
	}
	return d
}

// Project evaluates Items over each input tuple. Hidden marks trailing
// items added only to support ORDER BY; a final StripProject removes them.
type Project struct {
	Input  Node
	Items  []ast.SelectItem
	Hidden int // number of trailing hidden items
	out    *schema.Schema
}

// NewProject builds a projection node, naming output columns by alias,
// column reference, or rendered expression. Types are inferred against the
// input's runtime schema.
func NewProject(input Node, items []ast.SelectItem, hidden int) (*Project, error) {
	return NewProjectTyped(input, items, hidden, input.Schema())
}

// NewProjectTyped is NewProject with an explicit typing schema (see
// NewAggregateTyped).
func NewProjectTyped(input Node, items []ast.SelectItem, hidden int, in *schema.Schema) (*Project, error) {
	cols := make([]schema.Column, len(items))
	for i, it := range items {
		kind, err := InferType(it.Expr, in)
		if err != nil {
			return nil, err
		}
		switch {
		case it.Alias != "":
			cols[i] = schema.Column{Name: it.Alias, Type: kind}
		default:
			if ref, ok := it.Expr.(*ast.ColumnRef); ok {
				cols[i] = schema.Column{Table: ref.Table, Name: ref.Name, Type: kind}
			} else {
				cols[i] = schema.Column{Name: it.Expr.String(), Type: kind}
			}
		}
	}
	return &Project{Input: input, Items: items, Hidden: hidden, out: schema.New(cols...)}, nil
}

// Schema implements Node.
func (p *Project) Schema() *schema.Schema { return p.out }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Input} }

// Describe implements Node.
func (p *Project) Describe() string {
	parts := make([]string, 0, len(p.Items))
	for i, it := range p.Items {
		if i >= len(p.Items)-p.Hidden {
			parts = append(parts, it.String()+" (hidden)")
		} else {
			parts = append(parts, it.String())
		}
	}
	return "Project " + strings.Join(parts, ", ")
}

// StripProject drops the trailing Hidden columns after sorting.
type StripProject struct {
	Input Node
	Keep  int
	out   *schema.Schema
}

// NewStripProject keeps the first keep columns of the input.
func NewStripProject(input Node, keep int) *StripProject {
	idx := make([]int, keep)
	for i := range idx {
		idx[i] = i
	}
	return &StripProject{Input: input, Keep: keep, out: input.Schema().Project(idx)}
}

// Schema implements Node.
func (s *StripProject) Schema() *schema.Schema { return s.out }

// Children implements Node.
func (s *StripProject) Children() []Node { return []Node{s.Input} }

// Describe implements Node.
func (s *StripProject) Describe() string {
	return fmt.Sprintf("Project (first %d columns)", s.Keep)
}

// Distinct removes duplicate tuples, considering only the first KeyCols
// columns (all columns when KeyCols is 0).
type Distinct struct {
	Input   Node
	KeyCols int
}

// Schema implements Node.
func (d *Distinct) Schema() *schema.Schema { return d.Input.Schema() }

// Children implements Node.
func (d *Distinct) Children() []Node { return []Node{d.Input} }

// Describe implements Node.
func (d *Distinct) Describe() string { return "Distinct" }

// Sort orders tuples by the given items.
type Sort struct {
	Input Node
	Items []ast.OrderItem
}

// Schema implements Node.
func (s *Sort) Schema() *schema.Schema { return s.Input.Schema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Input} }

// Describe implements Node.
func (s *Sort) Describe() string {
	parts := make([]string, len(s.Items))
	for i, it := range s.Items {
		parts[i] = it.Expr.String()
		if it.Desc {
			parts[i] += " DESC"
		}
	}
	return "Sort " + strings.Join(parts, ", ")
}

// Limit keeps at most N tuples after skipping Offset.
type Limit struct {
	Input  Node
	N      int
	Offset int
}

// Schema implements Node.
func (l *Limit) Schema() *schema.Schema { return l.Input.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Input} }

// Describe implements Node.
func (l *Limit) Describe() string {
	if l.Offset > 0 {
		return fmt.Sprintf("Limit %d OFFSET %d", l.N, l.Offset)
	}
	return fmt.Sprintf("Limit %d", l.N)
}

// Explain renders the plan as an indented tree, the format the CLI's
// -explain flag and the Figure 3 golden test use.
func Explain(n Node) string {
	var b strings.Builder
	explain(&b, n, 0)
	return b.String()
}

func explain(b *strings.Builder, n Node, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Describe())
	b.WriteByte('\n')
	for _, c := range n.Children() {
		explain(b, c, depth+1)
	}
}

// InferType computes the static type of e against s. It errs on the side
// of FLOAT for arithmetic so LLM-sourced numeric strings stay comparable.
func InferType(e ast.Expr, s *schema.Schema) (value.Kind, error) {
	switch n := e.(type) {
	case *ast.Literal:
		if n.Val.IsNull() {
			return value.KindString, nil
		}
		return n.Val.Kind(), nil
	case *ast.ColumnRef:
		i, err := s.Resolve(n.Table, n.Name)
		if err != nil {
			return value.KindNull, err
		}
		return s.Columns[i].Type, nil
	case *ast.Binary:
		switch n.Op {
		case "AND", "OR", "=", "!=", "<", "<=", ">", ">=":
			return value.KindBool, nil
		case "+", "-", "*":
			lt, err := InferType(n.Left, s)
			if err != nil {
				return value.KindNull, err
			}
			rt, err := InferType(n.Right, s)
			if err != nil {
				return value.KindNull, err
			}
			if lt == value.KindInt && rt == value.KindInt {
				return value.KindInt, nil
			}
			if lt == value.KindString && rt == value.KindString && n.Op == "+" {
				return value.KindString, nil
			}
			return value.KindFloat, nil
		default: // "/", "%"
			return value.KindFloat, nil
		}
	case *ast.Unary:
		if n.Op == "NOT" {
			return value.KindBool, nil
		}
		return InferType(n.Expr, s)
	case *ast.FuncCall:
		if n.IsAggregate() {
			return aggType(n, s)
		}
		switch n.Name {
		case "LENGTH":
			return value.KindInt, nil
		case "ABS", "ROUND":
			if len(n.Args) > 0 {
				return InferType(n.Args[0], s)
			}
			return value.KindFloat, nil
		default:
			return value.KindString, nil
		}
	case *ast.InList, *ast.Between, *ast.Like, *ast.IsNull:
		return value.KindBool, nil
	case *ast.Case:
		if len(n.Whens) > 0 {
			return InferType(n.Whens[0].Result, s)
		}
		return value.KindString, nil
	case *ast.Star:
		return value.KindNull, fmt.Errorf("logical: cannot type *")
	default:
		return value.KindNull, fmt.Errorf("logical: cannot type %T", e)
	}
}
