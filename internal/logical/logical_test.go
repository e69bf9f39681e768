package logical

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
	"repro/internal/value"
)

// fakeResolver serves two tables: city (LLM) and employees (DB).
type fakeResolver struct{}

func cityDef() *schema.TableDef {
	return &schema.TableDef{
		Name:      "city",
		KeyColumn: "name",
		Schema: schema.New(
			schema.Column{Name: "name", Type: value.KindString},
			schema.Column{Name: "country", Type: value.KindString},
			schema.Column{Name: "population", Type: value.KindInt},
		),
	}
}

func employeesDef() *schema.TableDef {
	return &schema.TableDef{
		Name:      "employees",
		KeyColumn: "id",
		Schema: schema.New(
			schema.Column{Name: "id", Type: value.KindInt},
			schema.Column{Name: "countryCode", Type: value.KindString},
			schema.Column{Name: "salary", Type: value.KindFloat},
		),
	}
}

func (fakeResolver) ResolveTable(name, explicit string) (*schema.TableDef, string, error) {
	switch strings.ToLower(name) {
	case "city":
		return cityDef(), "LLM", nil
	case "employees":
		return employeesDef(), "DB", nil
	}
	return nil, "", fmt.Errorf("no table %s", name)
}

func build(t *testing.T, sql string) Node {
	t.Helper()
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(sel, fakeResolver{})
	if err != nil {
		t.Fatalf("Build(%q): %v", sql, err)
	}
	return n
}

func TestScanSchemas(t *testing.T) {
	llm := NewScan(cityDef(), "c", "LLM")
	if llm.Schema().Len() != 1 || llm.Schema().Columns[0].Name != "name" {
		t.Errorf("LLM scan exposes only the key: %v", llm.Schema())
	}
	db := NewScan(employeesDef(), "e", "DB")
	if db.Schema().Len() != 3 {
		t.Errorf("DB scan exposes all columns: %v", db.Schema())
	}
	if db.Schema().Columns[0].Table != "e" {
		t.Error("scan columns must be qualified by binding")
	}
}

func TestBuildSimple(t *testing.T) {
	n := build(t, "SELECT countryCode FROM employees")
	proj, ok := n.(*Project)
	if !ok {
		t.Fatalf("root = %T", n)
	}
	if _, ok := proj.Input.(*Scan); !ok {
		t.Fatalf("input = %T", proj.Input)
	}
}

func TestBuildWhere(t *testing.T) {
	n := build(t, "SELECT id FROM employees WHERE salary > 50000")
	proj := n.(*Project)
	if _, ok := proj.Input.(*Filter); !ok {
		t.Fatalf("expected Filter below Project, got %T", proj.Input)
	}
}

func TestBuildTypesLLMColumnsBeforeLowering(t *testing.T) {
	// population is not in the LLM scan's runtime schema, but typing must
	// succeed from the declared schema.
	n := build(t, "SELECT name, population FROM city")
	cols := n.Schema().Columns
	if cols[1].Type != value.KindInt {
		t.Errorf("population typed %v", cols[1].Type)
	}
}

func TestBuildAggregate(t *testing.T) {
	n := build(t, "SELECT countryCode, COUNT(*), AVG(salary) FROM employees GROUP BY countryCode")
	proj := n.(*Project)
	agg, ok := proj.Input.(*Aggregate)
	if !ok {
		t.Fatalf("expected Aggregate, got %T", proj.Input)
	}
	if len(agg.Aggs) != 2 {
		t.Fatalf("aggs = %d", len(agg.Aggs))
	}
	out := n.Schema()
	if out.Columns[1].Type != value.KindInt || out.Columns[2].Type != value.KindFloat {
		t.Errorf("agg output types = %v", out)
	}
}

func TestBuildHaving(t *testing.T) {
	n := build(t, "SELECT countryCode FROM employees GROUP BY countryCode HAVING COUNT(*) > 2")
	proj := n.(*Project)
	if _, ok := proj.Input.(*Filter); !ok {
		t.Fatalf("HAVING should become a Filter above the Aggregate, got %T", proj.Input)
	}
}

func TestImplicitFirstAggregate(t *testing.T) {
	// The paper's hybrid query selects a non-grouped column.
	n := build(t, "SELECT salary, COUNT(*) FROM employees GROUP BY countryCode")
	proj := n.(*Project)
	agg := proj.Input.(*Aggregate)
	found := false
	for _, spec := range agg.Aggs {
		if spec.Call.Name == "FIRST" {
			found = true
		}
	}
	if !found {
		t.Error("non-grouped column should compile to FIRST()")
	}
	// The output column keeps the user-visible name.
	if n.Schema().Columns[0].Name != "salary" {
		t.Errorf("output column = %q", n.Schema().Columns[0].Name)
	}
}

func TestUngroupedAggregateMixRejected(t *testing.T) {
	sel, err := parser.ParseSelect("SELECT COUNT(zzz) FROM employees")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(sel, fakeResolver{}); err == nil {
		t.Error("aggregate over unknown column must fail")
	}
}

func TestOrderByHiddenColumn(t *testing.T) {
	// ORDER BY references a column that is not projected.
	n := build(t, "SELECT countryCode FROM employees ORDER BY salary DESC LIMIT 1")
	strip, ok := n.(*StripProject)
	if !ok {
		t.Fatalf("root should strip the hidden sort column, got %T", n)
	}
	if strip.Schema().Len() != 1 || strip.Schema().Columns[0].Name != "countryCode" {
		t.Errorf("final schema = %v", strip.Schema())
	}
	lim, ok := strip.Input.(*Limit)
	if !ok {
		t.Fatalf("below strip = %T", strip.Input)
	}
	if _, ok := lim.Input.(*Sort); !ok {
		t.Fatalf("below limit = %T", lim.Input)
	}
}

func TestOrderByProjectedAlias(t *testing.T) {
	n := build(t, "SELECT salary AS s FROM employees ORDER BY s")
	if _, ok := n.(*Sort); !ok {
		t.Fatalf("ORDER BY alias needs no hidden column, got %T", n)
	}
}

func TestDistinct(t *testing.T) {
	n := build(t, "SELECT DISTINCT countryCode FROM employees")
	if _, ok := n.(*Distinct); !ok {
		t.Fatalf("root = %T", n)
	}
}

func TestStarExpansion(t *testing.T) {
	n := build(t, "SELECT * FROM employees")
	if n.Schema().Len() != 3 {
		t.Errorf("star over employees = %v", n.Schema())
	}
	// LLM star expands to the declared columns, not just the key.
	n = build(t, "SELECT * FROM city")
	if n.Schema().Len() != 3 {
		t.Errorf("star over LLM city = %v", n.Schema())
	}
}

func TestJoins(t *testing.T) {
	n := build(t, "SELECT c.name, e.salary FROM city c, employees e WHERE c.country = e.countryCode")
	proj := n.(*Project)
	filter, ok := proj.Input.(*Filter)
	if !ok {
		t.Fatalf("WHERE over the join = %T", proj.Input)
	}
	join, ok := filter.Input.(*Join)
	if !ok {
		t.Fatalf("join = %T", filter.Input)
	}
	if join.Type.String() != "CROSS JOIN" {
		t.Errorf("comma join is cross before optimization, got %v", join.Type)
	}
}

func TestExplain(t *testing.T) {
	n := build(t, "SELECT countryCode FROM employees WHERE salary > 1")
	out := Explain(n)
	for _, want := range []string{"Project", "Filter", "Scan employees"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// Indentation reflects depth.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if !strings.HasPrefix(lines[1], "  ") {
		t.Errorf("child not indented:\n%s", out)
	}
}

func TestNoFromRejected(t *testing.T) {
	sel, err := parser.ParseSelect("SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(sel, fakeResolver{}); err == nil {
		t.Error("SELECT without FROM must be rejected")
	}
}

func TestFetchAttrNode(t *testing.T) {
	scan := NewScan(cityDef(), "c", "LLM")
	fa, err := NewFetchAttr(scan, cityDef(), "c", "population", 0)
	if err != nil {
		t.Fatal(err)
	}
	if fa.Schema().Len() != 2 || fa.Schema().Columns[1].Type != value.KindInt {
		t.Errorf("FetchAttr schema = %v", fa.Schema())
	}
	if !strings.Contains(fa.Describe(), "LLMFetchAttr") {
		t.Errorf("Describe = %q", fa.Describe())
	}
	if _, err := NewFetchAttr(scan, cityDef(), "c", "zzz", 0); err == nil {
		t.Error("unknown attribute must fail")
	}
}

func TestInferType(t *testing.T) {
	s := schema.New(
		schema.Column{Name: "a", Type: value.KindInt},
		schema.Column{Name: "f", Type: value.KindFloat},
		schema.Column{Name: "s", Type: value.KindString},
	)
	cases := []struct {
		src  string
		want value.Kind
	}{
		{"a + a", value.KindInt},
		{"a + f", value.KindFloat},
		{"a / a", value.KindFloat},
		{"s + s", value.KindString},
		{"a > 1", value.KindBool},
		{"a IN (1)", value.KindBool},
		{"LENGTH(s)", value.KindInt},
		{"UPPER(s)", value.KindString},
	}
	for _, c := range cases {
		sel, err := parser.ParseSelect("SELECT " + c.src + " FROM t")
		if err != nil {
			t.Fatal(err)
		}
		got, err := InferType(sel.Items[0].Expr, s)
		if err != nil {
			t.Errorf("InferType(%s): %v", c.src, err)
			continue
		}
		if got != c.want {
			t.Errorf("InferType(%s) = %v, want %v", c.src, got, c.want)
		}
	}
}

// TestAccessorsDoNotAllocate pins the plan accessors at zero
// allocations: Walk over a built join plan, and Inputs on every node
// kind.
func TestAccessorsDoNotAllocate(t *testing.T) {
	plan := build(t, "SELECT DISTINCT c.name FROM city c JOIN employees e ON c.country = e.countryCode WHERE e.salary > 1.5 ORDER BY e.salary LIMIT 3")
	agg := build(t, "SELECT country, COUNT(*) FROM city GROUP BY country")
	var nodes []Node
	for _, n := range []Node{plan, agg} {
		Walk(n, func(n Node) bool {
			nodes = append(nodes, n)
			return true
		})
	}
	scan := NewScan(cityDef(), "c", "LLM")
	fetch, err := NewFetchAttr(scan, cityDef(), "c", "population", 0)
	if err != nil {
		t.Fatal(err)
	}
	cond := &ast.Binary{Op: ">", Left: &ast.ColumnRef{Name: "population"}, Right: &ast.Literal{Val: value.Int(1)}}
	nodes = append(nodes, fetch, &LLMFilter{Input: scan, Table: cityDef(), Binding: "c", Cond: NewConjunct(cond)},
		NewCachedScan("city", "fp", "stamp", 1, scan.Schema()))
	kinds := map[string]bool{}
	for _, n := range nodes {
		kinds[fmt.Sprintf("%T", n)] = true
	}
	if len(kinds) != 12 {
		t.Fatalf("want all 12 node kinds, got %v", kinds)
	}

	count := 0
	if allocs := testing.AllocsPerRun(100, func() {
		Walk(plan, func(Node) bool {
			count++
			return true
		})
	}); allocs != 0 || count == 0 {
		t.Errorf("Walk: %v allocs over %d visits, want 0", allocs, count)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, n := range nodes {
			Inputs(n)
		}
	}); allocs != 0 {
		t.Errorf("Inputs: %v allocs, want 0", allocs)
	}
}
