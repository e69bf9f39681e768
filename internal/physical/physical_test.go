package physical

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/llm"
	"repro/internal/logical"
	"repro/internal/schema"
	"repro/internal/sql/ast"
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

func fixtureData(table string) (*schema.Relation, error) {
	switch strings.ToLower(table) {
	case "people":
		return peopleRows(), nil
	case "cities":
		return cityRows(), nil
	}
	return nil, fmt.Errorf("no data for %s", table)
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
	op, err := Compile(plan, fixtureData)
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

// TestLeftJoinResidual: an unmatched left row is padded whether the
// bucket is keyed (equality plus a residual) or shared (no equality).
func TestLeftJoinResidual(t *testing.T) {
	rel := runSQL(t, "SELECT c.name, p.name FROM cities c LEFT JOIN people p ON p.city = c.name AND p.age > 40")
	// Rome keeps Cid, Paris keeps Bob and Eve, Tiny is padded.
	if rel.Cardinality() != 4 {
		t.Fatalf("rows = %d:\n%s", rel.Cardinality(), rel.String())
	}
	rel = runSQL(t, "SELECT c.name, p.name FROM cities c LEFT JOIN people p ON p.age > c.population")
	if rel.Cardinality() != 3 {
		t.Fatalf("rows = %d:\n%s", rel.Cardinality(), rel.String())
	}
	for _, row := range rel.Rows {
		if !row[1].IsNull() {
			t.Errorf("no person is older than a population: %v", row)
		}
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

// vtScan replays rows stamped with fixed virtual times.
type vtScan struct {
	out  *schema.Schema
	rows []schema.Tuple
	vts  []llm.VTime
	next int
}

func (s *vtScan) Schema() *schema.Schema { return s.out }
func (s *vtScan) Open(*Context) error    { s.next = 0; return nil }
func (s *vtScan) Close() error           { return nil }
func (s *vtScan) Next() (schema.Tuple, llm.VTime, error) {
	if s.next >= len(s.rows) {
		return nil, 0, io.EOF
	}
	s.next++
	return s.rows[s.next-1], s.vts[s.next-1], nil
}

// intScan builds a one-column vtScan over keys (nil is NULL).
func intScan(table string, keys []any, vts ...llm.VTime) *vtScan {
	s := &vtScan{out: schema.New(schema.Column{Table: table, Name: "k", Type: value.KindInt}), vts: vts}
	for _, k := range keys {
		v := value.Null()
		if k != nil {
			v = value.Int(int64(k.(int)))
		}
		s.rows = append(s.rows, schema.Tuple{v})
	}
	return s
}

// joinOf compiles a join of two scans the way Compile does.
func joinOf(t *testing.T, left, right *vtScan, typ ast.JoinType, on ast.Expr) Operator {
	t.Helper()
	node := logical.NewJoin(logical.NewCachedScan("l", "", "", 0, left.out), logical.NewCachedScan("r", "", "", 0, right.out), typ, on)
	op, err := buildJoin(node, left, right)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// TestJoinRows: NULL keys never match, an inner join drops them, a left
// join pads them, and a keyless join pairs every row with every row.
func TestJoinRows(t *testing.T) {
	on := &ast.Binary{Op: "=", Left: &ast.ColumnRef{Table: "l", Name: "k"}, Right: &ast.ColumnRef{Table: "r", Name: "k"}}
	for _, c := range []struct {
		name string
		typ  ast.JoinType
		on   ast.Expr
		want string
	}{
		{"inner", ast.JoinInner, on, "[1 1]"},
		{"left", ast.JoinLeft, on, "[1 1] [NULL NULL] [2 NULL]"},
		{"cross", ast.JoinCross, nil, "[1 1] [1 NULL] [NULL 1] [NULL NULL] [2 1] [2 NULL]"},
	} {
		op := joinOf(t, intScan("l", []any{1, nil, 2}, 0, 0, 0), intScan("r", []any{1, nil}, 0, 0), c.typ, c.on)
		rel, err := Run(&Context{}, op)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, row := range rel.Rows {
			got = append(got, fmt.Sprint(row))
		}
		if g := strings.Join(got, " "); g != c.want {
			t.Errorf("%s join = %s, want %s", c.name, g, c.want)
		}
	}
}

// TestJoinProbeAllocs: a hash-join probe appends its key into the
// operator's buffer and looks its bucket up without a key string, so
// each matched left row allocates only its output row. The key spans an
// INTEGER against a FLOAT column, which share numeric keys, and a TEXT
// column.
func TestJoinProbeAllocs(t *testing.T) {
	const n = 200
	side := func(table string, kind value.Kind) *vtScan {
		s := &vtScan{out: schema.New(
			schema.Column{Table: table, Name: "k", Type: kind},
			schema.Column{Table: table, Name: "s", Type: value.KindString},
		)}
		for i := range n {
			k := value.Int(int64(i) * 1_000_003)
			if kind == value.KindFloat {
				k = value.Float(float64(i) * 1_000_003)
			}
			s.rows = append(s.rows, schema.Tuple{k, value.Text(fmt.Sprintf("town %d", i))})
			s.vts = append(s.vts, 0)
		}
		return s
	}
	eq := func(col string) ast.Expr {
		return &ast.Binary{Op: "=", Left: &ast.ColumnRef{Table: "l", Name: col}, Right: &ast.ColumnRef{Table: "r", Name: col}}
	}
	op := joinOf(t, side("l", value.KindInt), side("r", value.KindFloat), ast.JoinInner, ast.And([]ast.Expr{eq("k"), eq("s")}))
	if err := op.Open(&Context{}); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	rows := 0
	allocs := testing.AllocsPerRun(n-1, func() {
		if row, _, err := op.Next(); err != nil || len(row) != 4 {
			t.Fatalf("probe %d: row %v, %v", rows, row, err)
		}
		rows++
	})
	if allocs > 1 {
		t.Errorf("a hash-join probe allocates %.0f times per matched row, want 1 (its output row)", allocs)
	}
}

// TestJoinVirtualTime: a joined row — padded or matched, keyed bucket or
// shared — is available once both the whole build side and its left row
// are.
func TestJoinVirtualTime(t *testing.T) {
	for _, c := range []struct {
		name string
		on   ast.Expr
	}{
		{"hash", &ast.Binary{Op: "=", Left: &ast.ColumnRef{Table: "l", Name: "k"}, Right: &ast.ColumnRef{Table: "r", Name: "k"}}},
		{"nested loop", &ast.Binary{Op: "<=", Left: &ast.ColumnRef{Table: "l", Name: "k"}, Right: &ast.ColumnRef{Table: "r", Name: "k"}}},
	} {
		op := joinOf(t, intScan("l", []any{1, 2, 3}, 10, 50, 90), intScan("r", []any{1, 2}, 40, 20), ast.JoinLeft, c.on)
		if err := op.Open(&Context{}); err != nil {
			t.Fatal(err)
		}
		var vts []llm.VTime
		for {
			_, vt, err := op.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			vts = append(vts, vt)
		}
		op.Close()
		// Left rows 1, 2 and 3 (padded) surface at max(40, their own time).
		want := []llm.VTime{40, 40, 50, 90}
		if c.name == "hash" {
			want = []llm.VTime{40, 50, 90}
		}
		if fmt.Sprint(vts) != fmt.Sprint(want) {
			t.Errorf("%s join row times = %v, want %v", c.name, vts, want)
		}
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
func (p *pullCountingOp) Next() (schema.Tuple, llm.VTime, error) {
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
