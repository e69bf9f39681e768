package ast

import (
	"testing"

	"repro/internal/value"
)

func TestExprString(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{&ColumnRef{Table: "c", Name: "name"}, "c.name"},
		{&ColumnRef{Name: "name"}, "name"},
		{&Literal{Val: value.Int(5)}, "5"},
		{&Literal{Val: value.Text("x")}, "'x'"},
		{&Star{}, "*"},
		{&Star{Table: "t"}, "t.*"},
		{&Binary{Op: ">", Left: &ColumnRef{Name: "a"}, Right: &Literal{Val: value.Int(1)}}, "a > 1"},
		{&Unary{Op: "NOT", Expr: &ColumnRef{Name: "a"}}, "NOT (a)"},
		{&Unary{Op: "-", Expr: &ColumnRef{Name: "a"}}, "-a"},
		{&FuncCall{Name: "COUNT", Args: []Expr{&Star{}}}, "COUNT(*)"},
		{&FuncCall{Name: "COUNT", Distinct: true, Args: []Expr{&ColumnRef{Name: "x"}}}, "COUNT(DISTINCT x)"},
		{&InList{Expr: &ColumnRef{Name: "a"}, List: []Expr{&Literal{Val: value.Int(1)}}, Not: true}, "a NOT IN (1)"},
		{&Between{Expr: &ColumnRef{Name: "a"}, Lo: &Literal{Val: value.Int(1)}, Hi: &Literal{Val: value.Int(2)}}, "a BETWEEN 1 AND 2"},
		{&Like{Expr: &ColumnRef{Name: "a"}, Pattern: &Literal{Val: value.Text("x%")}}, "a LIKE 'x%'"},
		{&IsNull{Expr: &ColumnRef{Name: "a"}}, "a IS NULL"},
		{&IsNull{Expr: &ColumnRef{Name: "a"}, Not: true}, "a IS NOT NULL"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestLogicalParenthesization(t *testing.T) {
	// (a OR b) AND c must keep parentheses on the OR.
	e := &Binary{
		Op:    "AND",
		Left:  &Binary{Op: "OR", Left: &ColumnRef{Name: "a"}, Right: &ColumnRef{Name: "b"}},
		Right: &ColumnRef{Name: "c"},
	}
	if got := e.String(); got != "(a OR b) AND c" {
		t.Errorf("String() = %q", got)
	}
}

func TestWalkAndColumnRefs(t *testing.T) {
	e := &Binary{
		Op:    "AND",
		Left:  &Binary{Op: ">", Left: &ColumnRef{Table: "c", Name: "population"}, Right: &Literal{Val: value.Int(1)}},
		Right: &Like{Expr: &ColumnRef{Table: "c", Name: "name"}, Pattern: &Literal{Val: value.Text("a%")}},
	}
	refs := ColumnRefs(e)
	if len(refs) != 2 || refs[0].Name != "population" || refs[1].Name != "name" {
		t.Errorf("ColumnRefs = %v", refs)
	}

	visited := 0
	Walk(e, func(Expr) bool { visited++; return true })
	if visited != 7 {
		t.Errorf("Walk visited %d nodes, want 7", visited)
	}

	// Pruning stops descent.
	visited = 0
	Walk(e, func(x Expr) bool {
		visited++
		_, isBinary := x.(*Binary)
		return isBinary
	})
	if visited != 5 {
		t.Errorf("pruned walk visited %d, want 5", visited)
	}
}

func TestHasAggregate(t *testing.T) {
	agg := &FuncCall{Name: "AVG", Args: []Expr{&ColumnRef{Name: "x"}}}
	if !HasAggregate(&Binary{Op: ">", Left: agg, Right: &Literal{Val: value.Int(1)}}) {
		t.Error("nested aggregate not found")
	}
	if HasAggregate(&ColumnRef{Name: "x"}) {
		t.Error("plain column is not an aggregate")
	}
	if !(&FuncCall{Name: "FIRST", Args: []Expr{&ColumnRef{Name: "x"}}}).IsAggregate() {
		t.Error("FIRST is an (internal) aggregate")
	}
	if (&FuncCall{Name: "UPPER"}).IsAggregate() {
		t.Error("UPPER is not an aggregate")
	}
}

func TestSelectString(t *testing.T) {
	sel := &Select{
		Distinct: true,
		Items:    []SelectItem{{Expr: &ColumnRef{Table: "c", Name: "name"}, Alias: "n"}},
		From: []TableRef{
			{Table: "city", Alias: "c"},
			{Table: "mayor", Alias: "m", Join: JoinInner, On: &Binary{Op: "=", Left: &ColumnRef{Table: "c", Name: "mayor"}, Right: &ColumnRef{Table: "m", Name: "name"}}},
		},
		Where:   &Binary{Op: ">", Left: &ColumnRef{Table: "c", Name: "population"}, Right: &Literal{Val: value.Int(10)}},
		OrderBy: []OrderItem{{Expr: &ColumnRef{Name: "n"}, Desc: true}},
		Limit:   5,
	}
	want := "SELECT DISTINCT c.name AS n FROM city c JOIN mayor m ON c.mayor = m.name WHERE c.population > 10 ORDER BY n DESC LIMIT 5"
	if got := sel.String(); got != want {
		t.Errorf("Select.String()\n got %q\nwant %q", got, want)
	}
}

func TestTableRefString(t *testing.T) {
	r := TableRef{Source: "LLM", Table: "country", Alias: "c"}
	if got := r.String(); got != "LLM.country c" {
		t.Errorf("TableRef.String() = %q", got)
	}
	if r.Binding() != "c" {
		t.Errorf("Binding = %q", r.Binding())
	}
	r2 := TableRef{Table: "city"}
	if r2.Binding() != "city" {
		t.Errorf("unaliased Binding = %q", r2.Binding())
	}
}

func TestCaseString(t *testing.T) {
	c := &Case{
		Whens: []CaseWhen{{Cond: &Binary{Op: ">", Left: &ColumnRef{Name: "a"}, Right: &Literal{Val: value.Int(1)}}, Result: &Literal{Val: value.Text("big")}}},
		Else:  &Literal{Val: value.Text("small")},
	}
	want := "CASE WHEN a > 1 THEN 'big' ELSE 'small' END"
	if got := c.String(); got != want {
		t.Errorf("Case.String() = %q", got)
	}
}

// TestConjunctsAnd: Conjuncts flattens every AND, whatever its nesting,
// left to right and keeps an OR whole; And rebuilds left-deep.
func TestConjunctsAnd(t *testing.T) {
	ref := func(n string) Expr { return &ColumnRef{Name: n} }
	e := &Binary{Op: "AND",
		Left:  ref("a"),
		Right: &Binary{Op: "AND", Left: &Binary{Op: "OR", Left: ref("b"), Right: ref("c")}, Right: ref("d")},
	}
	cs := Conjuncts(e)
	var got []string
	for _, c := range cs {
		got = append(got, c.String())
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "b OR c" || got[2] != "d" {
		t.Fatalf("Conjuncts = %q", got)
	}
	if s := And(cs).String(); s != "(a AND (b OR c)) AND d" {
		t.Errorf("And = %q", s)
	}
	if And(nil) != nil || len(Conjuncts(ref("x"))) != 1 {
		t.Error("And(nil) or a lone conjunct")
	}
}
