package logical

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
	"repro/internal/value"
)

func fpTableDef(name, key string) *schema.TableDef {
	return &schema.TableDef{
		Name:      name,
		KeyColumn: key,
		Schema: schema.New(
			schema.Column{Name: "name", Type: value.KindString},
			schema.Column{Name: "population", Type: value.KindInt},
		),
	}
}

func popFilter(in Node, n int64) *Filter {
	return NewFilter(in, &ast.Binary{
		Op:    ">",
		Left:  &ast.ColumnRef{Table: "c", Name: "population"},
		Right: &ast.Literal{Val: value.Int(n)},
	})
}

func TestFingerprintDeterministicAndDistinct(t *testing.T) {
	def := fpTableDef("city", "name")

	a := popFilter(NewScan(def, "c", "LLM"), 1000000)
	b := popFilter(NewScan(def, "c", "LLM"), 1000000)
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("identical plans produced different fingerprints")
	}

	// Literals are kept: a different constant is a different result.
	c := popFilter(NewScan(def, "c", "LLM"), 500000)
	if Fingerprint(a) == Fingerprint(c) {
		t.Error("different literals collided")
	}

	// The resolved source is folded in: an LLM scan and a DB scan of the
	// same table never collide.
	if Fingerprint(NewScan(def, "c", "LLM")) == Fingerprint(NewScan(def, "c", "DB")) {
		t.Error("LLM and DB scans collided")
	}

	// Table bindings are folded in: rebinding the same name with a
	// different schema or key changes the fingerprint.
	def2 := fpTableDef("city", "population")
	if Fingerprint(NewScan(def, "c", "LLM")) == Fingerprint(NewScan(def2, "c", "LLM")) {
		t.Error("bindings with different key columns collided")
	}
	def3 := fpTableDef("city", "name")
	def3.Schema = schema.New(schema.Column{Name: "name", Type: value.KindString})
	if Fingerprint(NewScan(def, "c", "LLM")) == Fingerprint(NewScan(def3, "c", "LLM")) {
		t.Error("bindings with different schemas collided")
	}

	// Distinct key-column prefixes are result-relevant.
	d1 := &Distinct{Input: NewScan(def, "c", "DB"), KeyCols: 0}
	d2 := &Distinct{Input: NewScan(def, "c", "DB"), KeyCols: 1}
	if Fingerprint(d1) == Fingerprint(d2) {
		t.Error("Distinct with different key prefixes collided")
	}

	// Structure is parenthesized: nesting order matters.
	if fp := Fingerprint(a); !strings.Contains(fp, "(") || !strings.Contains(fp, "LLMKeyScan") {
		t.Errorf("fingerprint misses structure: %q", fp)
	}
}

// TestComponentsSortedAndDistinct pins the order result-cache stamps
// rely on: the runtime serializes epochs in exactly the order Components
// returns, without sorting again, so the components must come back
// sorted and deduplicated whatever order the FROM clause reads them in.
func TestComponentsSortedAndDistinct(t *testing.T) {
	n := build(t, "SELECT c.name FROM city c, employees e, city d")
	got := strings.Join(Components(n), ",")
	if want := ComponentDB + "," + ComponentLLM("city"); got != want {
		t.Errorf("Components = %q, want %q", got, want)
	}
}

// TestSubsumesResidual: the shape keeps each base conjunct once, in plan
// order, as its Filter classified it; a residual plan filters the cached
// relation by the very conjuncts it is given, AND-ed left-deep, under
// the shape's upper chain, and adds no Filter for an empty residual.
func TestSubsumesResidual(t *testing.T) {
	built := build(t, "SELECT name FROM city WHERE population > 5 AND name < 'M' AND population > 5")
	sh := Decompose(built)
	var filter *Filter
	Walk(built, func(n Node) bool {
		if f, ok := n.(*Filter); ok {
			filter = f
		}
		return filter == nil
	})
	if fc := filter.Conjuncts(); len(sh.Conjuncts) != 2 || sh.Conjuncts[0].Expr != fc[0].Expr || sh.Conjuncts[1].Expr != fc[1].Expr {
		t.Fatalf("conjuncts %+v: want the filter's first two, deduplicated by text", sh.Conjuncts)
	}
	cs := NewCachedScan(sh.FromLabel, "producer", "s", 3, sh.From.Schema())
	plan, err := BuildResidual(sh, cs, sh.Conjuncts)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := plan.(*Project).Input.(*Filter)
	if !ok || &f.Conjuncts()[0] != &sh.Conjuncts[0] || f.Input != cs {
		t.Fatalf("residual plan:\n%s: want a Filter on the shape's conjuncts over the cached scan", Explain(plan))
	}
	if got, want := f.Cond.String(), "population > 5 AND name < 'M'"; got != want {
		t.Errorf("residual condition %q, want %q", got, want)
	}
	plan, err = BuildResidual(sh, cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if in := plan.(*Project).Input; in != cs {
		t.Errorf("empty residual: %s under the projection, want the cached scan", in.Describe())
	}
}

// FuzzCanonical: whatever statement builds against the two-table
// resolver, its one rendering is deterministic and agrees with every
// separate derivation — a reference renderer that writes each predicate
// whole (ast.Binary.String) gives the same bytes, each slot's span reads
// its literal's rendering and every column-op-literal conjunct of a
// Filter or a Join is a slot, the FROM key is the FROM tree's own
// fingerprint, and the components equal a separate Components walk.
func FuzzCanonical(f *testing.F) {
	for _, sql := range []string{
		"SELECT name FROM city WHERE population > 1000000",
		"SELECT DISTINCT c.country FROM city c, employees e WHERE c.country = e.countryCode AND e.salary < 5.5",
		"SELECT c.name FROM city c LEFT JOIN employees e ON c.name = e.countryCode AND 3 < e.id ORDER BY c.name DESC LIMIT 2 OFFSET 1",
		"SELECT country, COUNT(*) FROM LLM.city GROUP BY country HAVING COUNT(*) > 2",
		"SELECT e.id FROM DB.employees e CROSS JOIN city c WHERE e.id IN (1, 2) AND c.name LIKE 'R%' OR c.population IS NULL",
		"SELECT name FROM city WHERE population > 5 AND (country = 'Italy' AND name < 'M')",
		"SELECT name FROM city WHERE (population > 5 OR country = 'Italy') AND name < 'M'",
		"SELECT name FROM city WHERE 5 < population",
		"SELECT name FROM city WHERE name != 'O''Brien' AND population > -3",
		"SELECT country, COUNT(*) FROM city GROUP BY country HAVING country = 'Italy'",
	} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		sel, err := parser.ParseSelect(sql)
		if err != nil {
			return
		}
		n, err := Build(sel, fakeResolver{})
		if err != nil {
			return
		}
		c := Canonicalize(n)
		if again := Canonicalize(n); again.Fingerprint != c.Fingerprint {
			t.Fatalf("%s: two renders differ:\n%s\n%s", sql, c.Fingerprint, again.Fingerprint)
		}
		var b strings.Builder
		referenceRender(&b, n)
		if b.String() != c.Fingerprint {
			t.Fatalf("%s: reference %q, Canonicalize %q", sql, b.String(), c.Fingerprint)
		}
		for _, s := range c.Slots {
			if got := c.Fingerprint[s.Start:s.End]; got != s.Lit.String() {
				t.Fatalf("%s: slot %q spans %q", sql, s.Text, got)
			}
		}
		slots := 0
		Walk(n, func(m Node) bool {
			var cs []Conjunct
			switch node := m.(type) {
			case *Filter:
				cs = node.conjs
			case *Join:
				cs = node.conjs
			}
			for i := range cs {
				if cs[i].Col != nil {
					slots++
				}
			}
			return true
		})
		if len(c.Slots) != slots {
			t.Fatalf("%s: %d slots, want one per column-op-literal conjunct, %d", sql, len(c.Slots), slots)
		}
		if c.Shape != nil {
			if want := Fingerprint(c.Shape.From); c.Shape.FromKey != want {
				t.Fatalf("%s: FromKey %q, want %q", sql, c.Shape.FromKey, want)
			}
		}
		if want := Components(n); !slices.Equal(c.Components, want) {
			t.Fatalf("%s: components %v, want %v", sql, c.Components, want)
		}
	})
}

// referenceRender writes n's canonical form as one recursive pass whose
// predicates are written whole, e.String().
func referenceRender(b *strings.Builder, n Node) {
	b.WriteByte('(')
	switch node := n.(type) {
	case *Filter:
		b.WriteString("Filter " + node.Cond.String())
	case *Join:
		b.WriteString(node.name())
		if node.On != nil {
			b.WriteString(" ON " + node.On.String())
		}
	case *Scan:
		b.WriteString(node.Describe() + "|src=" + node.Source + "|key=" + node.Table.KeyColumn + "|cols=")
		for _, c := range node.Table.Schema.Columns {
			b.WriteString(c.Name + ":" + c.Type.String() + ",")
		}
	case *Distinct:
		b.WriteString("Distinct|keycols=" + strconv.Itoa(node.KeyCols))
	case *CachedScan:
		b.WriteString(node.Describe() + "|src=" + node.Source + "|stamp=" + node.Stamp)
	default:
		b.WriteString(n.Describe())
	}
	left, right := Inputs(n)
	if left != nil {
		referenceRender(b, left)
	}
	if right != nil {
		referenceRender(b, right)
	}
	b.WriteByte(')')
}
