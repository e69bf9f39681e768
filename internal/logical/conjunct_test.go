package logical_test

import (
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/logical"
	"repro/internal/spider"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
	"repro/internal/value"
	"repro/internal/world"
)

func TestNewConjunct(t *testing.T) {
	pop := &ast.ColumnRef{Table: "c", Name: "Population"}
	five := &ast.Literal{Val: value.Int(5)}
	italy := &ast.Literal{Val: value.Text("Italy")}
	country := &ast.ColumnRef{Name: "country"}
	for _, tc := range []struct {
		e                        ast.Expr
		op, lit, key, comparison string
		mirrored, columnLiteral  bool
	}{
		{e: &ast.Binary{Op: ">", Left: pop, Right: five}, op: ">", lit: "5", key: "c.population > 5", comparison: "c.Population > 5", columnLiteral: true},
		{e: &ast.Binary{Op: "<", Left: five, Right: pop}, op: ">", lit: "5", key: "c.population > 5", comparison: "c.Population > 5", mirrored: true, columnLiteral: true},
		{e: &ast.Binary{Op: "=", Left: country, Right: italy}, op: "=", lit: "Italy", key: "country = 'italy'", comparison: "country = 'Italy'", columnLiteral: true},
		{e: &ast.Binary{Op: "=", Left: italy, Right: country}, op: "=", lit: "Italy", key: "country = 'italy'", comparison: "country = 'Italy'", mirrored: true, columnLiteral: true},
		{e: &ast.Binary{Op: "=", Left: country, Right: pop}},
		{e: &ast.Binary{Op: "+", Left: pop, Right: five}},
		{e: &ast.Binary{Op: "OR", Left: &ast.Binary{Op: ">", Left: pop, Right: five}, Right: &ast.Binary{Op: "=", Left: country, Right: italy}}},
		{e: &ast.InList{Expr: country, List: []ast.Expr{italy}}},
	} {
		c := logical.NewConjunct(tc.e)
		if c.Expr != tc.e || c.Text != tc.e.String() {
			t.Errorf("%s: expression %v, text %q", tc.e, c.Expr, c.Text)
		}
		if (c.Col != nil) != tc.columnLiteral {
			t.Errorf("%s: column-literal %t, want %t", tc.e, c.Col != nil, tc.columnLiteral)
			continue
		}
		if !tc.columnLiteral {
			continue
		}
		if c.Op != tc.op || c.LitText != tc.lit || c.Key != tc.key || c.Mirrored != tc.mirrored || c.Comparison() != tc.comparison {
			t.Errorf("%s: op %q lit %q key %q mirrored %t comparison %q", tc.e, c.Op, c.LitText, c.Key, c.Mirrored, c.Comparison())
		}
	}
}

// TestConjunctKeysAreOptionKeys pins the per-conjunct option keys to
// what callers outside the engine write into Options.DisableLLMFilter:
// for every WHERE conjunct `column op literal` of the corpus and of the
// differential generator's statements, the built Filter's conjunct of
// the same text has the key strings.ToLower(conjunct.String()), the
// formula benchmark/oracle.go enumerates plans with.
func TestConjunctKeysAreOptionKeys(t *testing.T) {
	var sqls []string
	for _, q := range spider.Queries() {
		sqls = append(sqls, q.SQL)
	}
	for seed := int64(1); seed <= 4; seed++ {
		gen := difftest.New(seed)
		for range 50 {
			p := gen.Pair()
			sqls = append(sqls, gen.Query().SQL, gen.Adhoc().SQL, p.Parent, p.Child)
		}
	}
	r := worldResolver{w: world.Build()}
	checked := 0
	for _, sql := range sqls {
		sel, err := parser.ParseSelect(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if sel.Where == nil {
			continue
		}
		built, err := logical.Build(sel, r)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		keys := map[string]string{}
		logical.Walk(built, func(n logical.Node) bool {
			if f, ok := n.(*logical.Filter); ok {
				for _, c := range f.Conjuncts() {
					keys[c.Text] = c.Key
				}
			}
			return true
		})
		for _, c := range ast.Conjuncts(sel.Where) {
			bin, ok := c.(*ast.Binary)
			if !ok {
				continue
			}
			_, col := bin.Left.(*ast.ColumnRef)
			_, lit := bin.Right.(*ast.Literal)
			if !col || !lit {
				continue
			}
			key, found := keys[bin.String()]
			if want := strings.ToLower(bin.String()); !found || key != want {
				t.Errorf("%s: conjunct %s has key %q (found %t), want %q", sql, bin, key, found, want)
			}
			checked++
		}
	}
	if checked < 500 {
		t.Fatalf("checked %d conjuncts, want the corpus and generator to give at least 500", checked)
	}
}
