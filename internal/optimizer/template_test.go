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
	tpl := TemplateOf(logical.Canonicalize(plan), "")
	return tpl, tpl.Distinct()
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
	if len(ref.slots) != 2 || ref.slots[0].LitText != "1000000" || ref.slots[1].Key != "m.age < 40" {
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
	// The same literals under another join kind, with or without
	// DISTINCT, or in a comma join instead of JOIN … ON: another plan.
	for _, pair := range [][2]string{
		{`SELECT c.name FROM city c LEFT JOIN mayor m ON c.mayor = m.name WHERE m.age < 40`,
			`SELECT c.name FROM city c JOIN mayor m ON c.mayor = m.name WHERE m.age < 40`},
		{`SELECT DISTINCT c.country FROM city c WHERE c.population > 5`,
			`SELECT c.country FROM city c WHERE c.population > 5`},
		{`SELECT c.name FROM city c, mayor m WHERE c.mayor = m.name AND m.age < 40`,
			`SELECT c.name FROM city c JOIN mayor m ON c.mayor = m.name AND m.age < 40`},
	} {
		a, okA := templateOf(t, pair[0])
		b, okB := templateOf(t, pair[1])
		if !okA || !okB {
			t.Errorf("%s / %s: no template", pair[0], pair[1])
			continue
		}
		if a.Key() == b.Key() {
			t.Errorf("%s shares the template of %s", pair[0], pair[1])
		}
	}
}

// TestTemplateBind: a template bound to a statement of its shape, under
// another prefix, is the one TemplateOf renders for it, and a bound
// template whose literals repeat is not distinct.
func TestTemplateBind(t *testing.T) {
	build := func(sql string) logical.Node {
		t.Helper()
		sel, err := parser.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := logical.Build(sel, resolver{})
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	raw := TemplateOf(logical.Canonicalize(build(`SELECT name FROM city WHERE population > 40 AND elevation < 40`)), "a|")
	if raw.Distinct() {
		t.Fatal("a template repeating a literal is distinct")
	}
	for _, prefix := range []string{"a|", "other prefix|"} {
		built := logical.Canonicalize(build(`SELECT name FROM city WHERE population > 5 AND elevation < 7`))
		got := raw.Bind(built, prefix)
		want := TemplateOf(built, prefix)
		if !got.Distinct() || got.Key() != want.Key() || len(got.slots) != len(want.slots) {
			t.Fatalf("prefix %q: bound %+v, want %+v", prefix, got, want)
		}
		for i := range got.slots {
			if got.slots[i].LitText != want.slots[i].LitText || got.slots[i].Key != want.slots[i].Key {
				t.Errorf("prefix %q: slot %d = %q %q, want %q %q", prefix, i, got.slots[i].LitText, got.slots[i].Key, want.slots[i].LitText, want.slots[i].Key)
			}
		}
	}
	if raw.Bind(logical.Canonicalize(build(`SELECT name FROM city WHERE population > 9 AND elevation < 9`)), "a|").Distinct() {
		t.Error("a bind repeating a literal is distinct")
	}
}
