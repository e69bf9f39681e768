package physical

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/logical"
	"repro/internal/schema"
	"repro/internal/sql/parser"
	"repro/internal/value"
)

// fixture tables

func peopleDef() *schema.TableDef {
	return &schema.TableDef{
		Name:      "people",
		KeyColumn: "name",
		Schema: schema.New(
			schema.Column{Name: "name", Type: value.KindString},
			schema.Column{Name: "city", Type: value.KindString},
			schema.Column{Name: "age", Type: value.KindInt},
		),
	}
}

func citiesDef() *schema.TableDef {
	return &schema.TableDef{
		Name:      "cities",
		KeyColumn: "name",
		Schema: schema.New(
			schema.Column{Name: "name", Type: value.KindString},
			schema.Column{Name: "population", Type: value.KindInt},
		),
	}
}

func peopleRows() *schema.Relation {
	r := schema.NewRelation(peopleDef().Schema.Clone())
	for _, p := range []struct {
		name, city string
		age        int64
	}{
		{"Ann", "Rome", 34},
		{"Bob", "Paris", 58},
		{"Cid", "Rome", 41},
		{"Dee", "Oslo", 29},
		{"Eve", "Paris", 41},
	} {
		r.Append(schema.Tuple{value.Text(p.name), value.Text(p.city), value.Int(p.age)})
	}
	return r
}

func cityRows() *schema.Relation {
	r := schema.NewRelation(citiesDef().Schema.Clone())
	for _, c := range []struct {
		name string
		pop  int64
	}{
		{"Rome", 2873000},
		{"Paris", 2161000},
		{"Tiny", 900},
	} {
		r.Append(schema.Tuple{value.Text(c.name), value.Int(c.pop)})
	}
	return r
}

type fixture struct{}

func (fixture) ResolveTable(name, explicit string) (*schema.TableDef, string, error) {
	switch strings.ToLower(name) {
	case "people":
		return peopleDef(), "DB", nil
	case "cities":
		return citiesDef(), "DB", nil
	}
	return nil, "", fmt.Errorf("no table %s", name)
}

func fixtureEnv() *Env {
	return &Env{Data: func(table string) (*schema.Relation, error) {
		switch strings.ToLower(table) {
		case "people":
			return peopleRows(), nil
		case "cities":
			return cityRows(), nil
		}
		return nil, fmt.Errorf("no data for %s", table)
	}}
}

// runSQL compiles and runs a DB-only query over the fixtures.
func runSQL(t *testing.T, sql string) *schema.Relation {
	t.Helper()
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := logical.Build(sel, fixture{})
	if err != nil {
		t.Fatal(err)
	}
	op, err := Compile(plan, fixtureEnv())
	if err != nil {
		t.Fatal(err)
	}
	rel, err := Run(&Context{}, op)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	return rel
}

func cell(t *testing.T, rel *schema.Relation, row, col int) value.Value {
	t.Helper()
	if row >= rel.Cardinality() {
		t.Fatalf("relation has %d rows, wanted row %d:\n%s", rel.Cardinality(), row, rel.String())
	}
	return rel.Rows[row][col]
}

func TestScanProjectFilter(t *testing.T) {
	rel := runSQL(t, "SELECT name FROM people WHERE age > 40")
	if rel.Cardinality() != 3 {
		t.Fatalf("rows = %d:\n%s", rel.Cardinality(), rel.String())
	}
	rel.SortRows()
	if cell(t, rel, 0, 0).AsString() != "Bob" {
		t.Errorf("first = %v", rel.Rows[0])
	}
}

func TestProjectionExpressions(t *testing.T) {
	rel := runSQL(t, "SELECT name, age * 2 AS dbl FROM people WHERE name = 'Ann'")
	if cell(t, rel, 0, 1).AsInt() != 68 {
		t.Errorf("dbl = %v", rel.Rows[0][1])
	}
	if rel.Schema.Columns[1].Name != "dbl" {
		t.Errorf("alias column = %q", rel.Schema.Columns[1].Name)
	}
}

func TestHashJoin(t *testing.T) {
	rel := runSQL(t, "SELECT p.name, c.population FROM people p, cities c WHERE p.city = c.name")
	// Dee lives in Oslo, which is not in the cities table.
	if rel.Cardinality() != 4 {
		t.Fatalf("join rows = %d:\n%s", rel.Cardinality(), rel.String())
	}
	rel.SortRows()
	if cell(t, rel, 0, 0).AsString() != "Ann" || cell(t, rel, 0, 1).AsInt() != 2873000 {
		t.Errorf("row 0 = %v", rel.Rows[0])
	}
}

func TestLeftJoin(t *testing.T) {
	rel := runSQL(t, "SELECT c.name, p.name FROM cities c LEFT JOIN people p ON p.city = c.name")
	// Tiny has no inhabitants → padded with NULL.
	found := false
	for _, row := range rel.Rows {
		if row[0].AsString() == "Tiny" {
			found = true
			if !row[1].IsNull() {
				t.Errorf("Tiny should pair with NULL, got %v", row[1])
			}
		}
	}
	if !found {
		t.Fatalf("left row missing:\n%s", rel.String())
	}
	if rel.Cardinality() != 5 {
		t.Errorf("rows = %d", rel.Cardinality())
	}
}

func TestCrossJoin(t *testing.T) {
	rel := runSQL(t, "SELECT p.name, c.name FROM people p CROSS JOIN cities c")
	if rel.Cardinality() != 15 {
		t.Errorf("cross rows = %d", rel.Cardinality())
	}
}

func TestNonEquiJoin(t *testing.T) {
	rel := runSQL(t, "SELECT p.name FROM people p JOIN cities c ON p.age > c.population")
	if rel.Cardinality() != 0 {
		t.Errorf("no one is older than a population: %d", rel.Cardinality())
	}
	rel = runSQL(t, "SELECT p.name, c.name FROM people p JOIN cities c ON c.population < p.age * 100")
	// Tiny (900) < age*100 for ages > 9 → every person matches Tiny only.
	if rel.Cardinality() != 5 {
		t.Errorf("rows = %d:\n%s", rel.Cardinality(), rel.String())
	}
}

func TestAggregates(t *testing.T) {
	rel := runSQL(t, "SELECT COUNT(*), SUM(age), AVG(age), MIN(age), MAX(age) FROM people")
	row := rel.Rows[0]
	if row[0].AsInt() != 5 {
		t.Errorf("count = %v", row[0])
	}
	if f, _ := row[1].Numeric(); f != 203 {
		t.Errorf("sum = %v", row[1])
	}
	if f, _ := row[2].Numeric(); f != 40.6 {
		t.Errorf("avg = %v", row[2])
	}
	if f, _ := row[3].Numeric(); f != 29 {
		t.Errorf("min = %v", row[3])
	}
	if f, _ := row[4].Numeric(); f != 58 {
		t.Errorf("max = %v", row[4])
	}
}

func TestGroupBy(t *testing.T) {
	rel := runSQL(t, "SELECT city, COUNT(*) FROM people GROUP BY city ORDER BY city")
	if rel.Cardinality() != 3 {
		t.Fatalf("groups = %d", rel.Cardinality())
	}
	if cell(t, rel, 0, 0).AsString() != "Oslo" || cell(t, rel, 0, 1).AsInt() != 1 {
		t.Errorf("group 0 = %v", rel.Rows[0])
	}
	if cell(t, rel, 2, 0).AsString() != "Rome" || cell(t, rel, 2, 1).AsInt() != 2 {
		t.Errorf("group 2 = %v", rel.Rows[2])
	}
}

func TestCountDistinct(t *testing.T) {
	rel := runSQL(t, "SELECT COUNT(DISTINCT city) FROM people")
	if cell(t, rel, 0, 0).AsInt() != 3 {
		t.Errorf("count distinct = %v", rel.Rows[0][0])
	}
}

func TestHaving(t *testing.T) {
	rel := runSQL(t, "SELECT city, COUNT(*) FROM people GROUP BY city HAVING COUNT(*) > 1 ORDER BY city")
	if rel.Cardinality() != 2 {
		t.Fatalf("having groups = %d:\n%s", rel.Cardinality(), rel.String())
	}
}

func TestGlobalAggregateOverEmptyInput(t *testing.T) {
	rel := runSQL(t, "SELECT COUNT(*), MAX(age) FROM people WHERE age > 1000")
	if rel.Cardinality() != 1 {
		t.Fatalf("global aggregate always yields one row, got %d", rel.Cardinality())
	}
	if cell(t, rel, 0, 0).AsInt() != 0 || !rel.Rows[0][1].IsNull() {
		t.Errorf("empty aggregate = %v", rel.Rows[0])
	}
}

func TestSortAndLimit(t *testing.T) {
	rel := runSQL(t, "SELECT name FROM people ORDER BY age DESC LIMIT 2")
	if rel.Cardinality() != 2 {
		t.Fatalf("rows = %d", rel.Cardinality())
	}
	if cell(t, rel, 0, 0).AsString() != "Bob" {
		t.Errorf("oldest first: %v", rel.Rows)
	}
	if rel.Schema.Len() != 1 {
		t.Errorf("hidden sort column must be stripped: %v", rel.Schema)
	}
}

func TestSortStability(t *testing.T) {
	// Cid and Eve share age 41; input order must be preserved.
	rel := runSQL(t, "SELECT name FROM people WHERE age = 41 ORDER BY age")
	if cell(t, rel, 0, 0).AsString() != "Cid" || cell(t, rel, 1, 0).AsString() != "Eve" {
		t.Errorf("stability broken: %v", rel.Rows)
	}
}

func TestOffset(t *testing.T) {
	rel := runSQL(t, "SELECT name FROM people ORDER BY name LIMIT 2 OFFSET 1")
	if rel.Cardinality() != 2 || cell(t, rel, 0, 0).AsString() != "Bob" {
		t.Errorf("offset window = %v", rel.Rows)
	}
}

func TestDistinctOp(t *testing.T) {
	rel := runSQL(t, "SELECT DISTINCT city FROM people ORDER BY city")
	if rel.Cardinality() != 3 {
		t.Errorf("distinct cities = %d", rel.Cardinality())
	}
}

// pullCountingOp counts how often its input stream is pulled.
type pullCountingOp struct {
	inner Operator
	pulls int
}

func (p *pullCountingOp) Schema() *schema.Schema { return p.inner.Schema() }
func (p *pullCountingOp) Open(c *Context) error  { return p.inner.Open(c) }
func (p *pullCountingOp) Close() error           { return p.inner.Close() }
func (p *pullCountingOp) Next() (schema.Tuple, error) {
	p.pulls++
	return p.inner.Next()
}

// TestLimitZeroNeverPullsInput: LIMIT 0 must return io.EOF without
// pulling — or skipping OFFSET rows of — its input.
func TestLimitZeroNeverPullsInput(t *testing.T) {
	probe := &pullCountingOp{inner: NewMemScan(peopleDef().Schema, peopleRows())}
	op := &limitOp{input: probe, n: 0, offset: 2}
	rel, err := Run(&Context{}, op)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 0 {
		t.Errorf("LIMIT 0 returned %d rows", rel.Cardinality())
	}
	if probe.pulls != 0 {
		t.Errorf("LIMIT 0 pulled its input %d times, want 0", probe.pulls)
	}
}

// TestLimitZeroSQL: the end-to-end LIMIT 0 path through the compiler.
func TestLimitZeroSQL(t *testing.T) {
	rel := runSQL(t, "SELECT name FROM people LIMIT 0")
	if rel.Cardinality() != 0 {
		t.Errorf("LIMIT 0 = %d rows", rel.Cardinality())
	}
}

func TestOrderByNullsLast(t *testing.T) {
	rel := runSQL(t, "SELECT c.name, p.name FROM cities c LEFT JOIN people p ON p.city = c.name ORDER BY p.name")
	last := rel.Rows[rel.Cardinality()-1]
	if !last[1].IsNull() {
		t.Errorf("NULLs must sort last: %v", rel.Rows)
	}
}

func TestImplicitFirstExecution(t *testing.T) {
	rel := runSQL(t, "SELECT age, COUNT(*) FROM people GROUP BY city ORDER BY city")
	if rel.Cardinality() != 3 {
		t.Fatalf("groups = %d", rel.Cardinality())
	}
	// Oslo group: first (only) age is 29.
	if cell(t, rel, 0, 0).AsInt() != 29 {
		t.Errorf("FIRST(age) for Oslo = %v", rel.Rows[0][0])
	}
}
