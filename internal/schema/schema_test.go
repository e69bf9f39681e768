package schema

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/value"
)

func citySchema() *Schema {
	return New(
		Column{Table: "c", Name: "name", Type: value.KindString},
		Column{Table: "c", Name: "population", Type: value.KindInt},
		Column{Table: "m", Name: "name", Type: value.KindString},
	)
}

func TestResolve(t *testing.T) {
	s := citySchema()
	if i, err := s.Resolve("c", "population"); err != nil || i != 1 {
		t.Errorf("Resolve(c.population) = %d, %v", i, err)
	}
	if i, err := s.Resolve("", "population"); err != nil || i != 1 {
		t.Errorf("unqualified unique resolve = %d, %v", i, err)
	}
	if i, err := s.Resolve("C", "POPULATION"); err != nil || i != 1 {
		t.Errorf("case-insensitive resolve = %d, %v", i, err)
	}
	if _, err := s.Resolve("", "name"); !errors.Is(err, ErrAmbiguous) {
		t.Errorf("ambiguous name should fail with ErrAmbiguous, got %v", err)
	}
	if _, err := s.Resolve("c", "mayor"); !errors.Is(err, ErrNoColumn) {
		t.Errorf("missing column should fail with ErrNoColumn, got %v", err)
	}
	if i := s.IndexOf("m", "name"); i != 2 {
		t.Errorf("IndexOf(m.name) = %d", i)
	}
	if i := s.IndexOf("x", "y"); i != -1 {
		t.Errorf("IndexOf missing = %d", i)
	}
	if i := s.IndexOf("", "name"); i != -1 {
		t.Errorf("IndexOf ambiguous = %d", i)
	}
	for _, c := range []struct{ table, name, want string }{
		{"", "name", "ambiguous column reference: name"},
		{"c", "mayor", "no such column: c.mayor"},
		{"", "mayor", "no such column: mayor"},
	} {
		if _, err := s.Resolve(c.table, c.name); err == nil || err.Error() != c.want {
			t.Errorf("Resolve(%q, %q) error = %v, want %q", c.table, c.name, err, c.want)
		}
	}
}

// TestIndexOfMissingAllocatesNothing: the optimizer probes columns it
// expects to be missing, so a miss must not build an error.
func TestIndexOfMissingAllocatesNothing(t *testing.T) {
	s := citySchema()
	if allocs := testing.AllocsPerRun(100, func() {
		if s.IndexOf("c", "mayor") != -1 || s.IndexOf("", "name") != -1 {
			t.Fatal("unresolved column resolved")
		}
	}); allocs != 0 {
		t.Errorf("IndexOf of an unresolved column allocates %v times", allocs)
	}
}

func TestConcatProjectClone(t *testing.T) {
	a := New(Column{Name: "x", Type: value.KindInt})
	b := New(Column{Name: "y", Type: value.KindString})
	ab := a.Concat(b)
	if ab.Len() != 2 || ab.Columns[0].Name != "x" || ab.Columns[1].Name != "y" {
		t.Errorf("Concat = %v", ab)
	}
	p := ab.Project([]int{1})
	if p.Len() != 1 || p.Columns[0].Name != "y" {
		t.Errorf("Project = %v", p)
	}
	c := ab.Clone()
	c.Columns[0].Name = "z"
	if ab.Columns[0].Name != "x" {
		t.Error("Clone must deep-copy columns")
	}
	if !ab.Equal(a.Concat(b)) {
		t.Error("Equal should hold for identical schemas")
	}
	if ab.Equal(a) {
		t.Error("Equal should fail for different schemas")
	}
}

func TestSchemaString(t *testing.T) {
	s := New(Column{Table: "t", Name: "a", Type: value.KindInt})
	if got := s.String(); got != "(t.a INTEGER)" {
		t.Errorf("String = %q", got)
	}
}

func TestTupleOps(t *testing.T) {
	tp := Tuple{value.Int(1), value.Text("a")}
	cl := tp.Clone()
	cl[0] = value.Int(9)
	if tp[0].AsInt() != 1 {
		t.Error("Clone must not alias")
	}
	cat := tp.Concat(Tuple{value.Bool(true)})
	if len(cat) != 3 {
		t.Errorf("Concat len = %d", len(cat))
	}
	k1 := Tuple{value.Int(2)}.Key()
	k2 := Tuple{value.Float(2)}.Key()
	if k1 != k2 {
		t.Error("numeric-equal tuples should share keys")
	}
}

func TestRelation(t *testing.T) {
	r := NewRelation(New(Column{Name: "n", Type: value.KindInt}))
	r.Append(Tuple{value.Int(2)})
	r.Append(Tuple{value.Int(1)})
	if r.Cardinality() != 2 {
		t.Fatalf("Cardinality = %d", r.Cardinality())
	}
	r.SortRows()
	if r.Rows[0][0].AsInt() != 1 {
		t.Errorf("SortRows order wrong: %v", r.Rows)
	}
	cl := r.Clone()
	cl.Rows[0][0] = value.Int(99)
	if r.Rows[0][0].AsInt() != 1 {
		t.Error("Clone must deep-copy rows")
	}
	out := r.String()
	if !strings.Contains(out, "n") || !strings.Contains(out, "2") {
		t.Errorf("String rendering missing content:\n%s", out)
	}
}

func TestAppendPanicsOnArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Append with wrong arity must panic")
		}
	}()
	r := NewRelation(New(Column{Name: "n", Type: value.KindInt}))
	r.Append(Tuple{value.Int(1), value.Int(2)})
}

func TestTableDefKeyIndex(t *testing.T) {
	def := &TableDef{
		Name:      "city",
		KeyColumn: "Name",
		Schema: New(
			Column{Name: "id", Type: value.KindInt},
			Column{Name: "name", Type: value.KindString},
		),
	}
	if i := def.KeyIndex(); i != 1 {
		t.Errorf("KeyIndex = %d (case-insensitive match expected)", i)
	}
	def.KeyColumn = "missing"
	if i := def.KeyIndex(); i != -1 {
		t.Errorf("KeyIndex for missing column = %d", i)
	}
}
