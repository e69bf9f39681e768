package optimizer

import (
	"testing"

	"repro/internal/logical"
	"repro/internal/sql/parser"
)

func templateOf(t *testing.T, sql string) (*Template, bool) {
	t.Helper()
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := logical.Build(sel, resolver{})
	if err != nil {
		t.Fatal(err)
	}
	return NewTemplate(plan, "")
}

// TestTemplateKey: statements share a template exactly when they differ
// only in the literals of column-op-literal conjuncts of the same kind;
// a statement with a repeated literal has none.
func TestTemplateKey(t *testing.T) {
	const base = `SELECT c.name FROM city c, mayor m WHERE c.mayor = m.name AND c.population > 1000000 AND m.age < 40`
	ref, ok := templateOf(t, base)
	if !ok {
		t.Fatal("no template")
	}
	if len(ref.slots) != 2 || ref.slots[0].lit != "1000000" || ref.slots[1].key != "m.age < 40" {
		t.Fatalf("slots %+v", ref.slots)
	}
	for _, tc := range []struct {
		sql  string
		same bool
	}{
		{`SELECT c.name FROM city c, mayor m WHERE c.mayor = m.name AND c.population > 5 AND m.age < 61`, true},
		{`SELECT c.name FROM city c, mayor m WHERE c.mayor = m.name AND c.population > 1.5 AND m.age < 61`, false}, // kind
		{`SELECT c.name FROM city c, mayor m WHERE c.mayor = m.name AND c.population >= 5 AND m.age < 61`, false},  // operator
		{`SELECT c.name FROM city c, mayor m WHERE c.mayor = m.name AND 5 < c.population AND m.age < 61`, false},   // orientation
		{`SELECT c.name FROM city c, mayor m WHERE c.mayor = m.name AND c.population > 5 AND m.age < 61 LIMIT 3`, false},
		{`SELECT c.name, 1 FROM city c, mayor m WHERE c.mayor = m.name AND c.population > 5 AND m.age < 61`, false},
		{`SELECT c.name FROM city c, mayor m WHERE c.mayor = m.name AND c.population > 5 AND (m.age < 61 OR m.age > 70)`, false},
	} {
		got, ok := templateOf(t, tc.sql)
		if !ok {
			t.Errorf("%s: no template", tc.sql)
			continue
		}
		if (got.Key() == ref.Key()) != tc.same {
			t.Errorf("%s: shares the template of %s = %v, want %v", tc.sql, base, !tc.same, tc.same)
		}
	}
	for _, sql := range []string{
		`SELECT c.name FROM city c, mayor m WHERE c.mayor = m.name AND c.population > 40 AND m.age < 40`,
		`SELECT name FROM city WHERE country = 'France' AND mayor = 'FRANCE'`,
	} {
		if _, ok := templateOf(t, sql); ok {
			t.Errorf("%s: a statement repeating a literal has a template", sql)
		}
	}
}
