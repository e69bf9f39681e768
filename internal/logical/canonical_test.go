package logical

import (
	"slices"
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
// order; a producer whose conjuncts the consumer's contain answers it with
// the consumer's other conjuncts as the residual, while one with a
// conjunct the consumer lacks, or over another FROM tree, does not — and
// a rejection allocates nothing.
func TestSubsumesResidual(t *testing.T) {
	sh := Decompose(build(t, "SELECT name FROM city WHERE population > 5 AND name < 'M' AND population > 5"))
	if len(sh.Texts) != 2 || len(sh.Exprs) != 2 || sh.Texts[0] != sh.Exprs[0].String() {
		t.Fatalf("conjuncts %q, %d expressions: want 2, deduplicated and index for index", sh.Texts, len(sh.Exprs))
	}
	if residual, ok := Subsumes(sh, sh.FromKey, sh.Texts[1:]); !ok || len(residual) != 1 || residual[0] != sh.Exprs[0] {
		t.Errorf("weaker producer: residual %v, ok %v; want the first conjunct", residual, ok)
	}
	if residual, ok := Subsumes(sh, sh.FromKey, nil); !ok || len(residual) != 2 {
		t.Errorf("unfiltered producer: residual %v, ok %v; want both conjuncts", residual, ok)
	}
	stricter := []string{sh.Texts[0], "city.population > 6"}
	if _, ok := Subsumes(sh, sh.FromKey, stricter); ok {
		t.Error("a producer with a conjunct the consumer lacks subsumed it")
	}
	if _, ok := Subsumes(sh, "other", nil); ok {
		t.Error("a producer over another FROM tree subsumed it")
	}
	if allocs := testing.AllocsPerRun(100, func() { Subsumes(sh, sh.FromKey, stricter) }); allocs != 0 {
		t.Errorf("rejected Subsumes: %.0f allocs, want 0", allocs)
	}
}

// FuzzCanonical: whatever statement builds against the two-table
// resolver, its one rendering is deterministic and agrees with every
// separate derivation — Render with the verbatim predicate writes the
// same bytes, the FROM key is the FROM tree's own fingerprint, and the
// components equal a separate Components walk.
func FuzzCanonical(f *testing.F) {
	for _, sql := range []string{
		"SELECT name FROM city WHERE population > 1000000",
		"SELECT DISTINCT c.country FROM city c, employees e WHERE c.country = e.countryCode AND e.salary < 5.5",
		"SELECT c.name FROM city c LEFT JOIN employees e ON c.name = e.countryCode AND 3 < e.id ORDER BY c.name DESC LIMIT 2 OFFSET 1",
		"SELECT country, COUNT(*) FROM LLM.city GROUP BY country HAVING COUNT(*) > 2",
		"SELECT e.id FROM DB.employees e CROSS JOIN city c WHERE e.id IN (1, 2) AND c.name LIKE 'R%' OR c.population IS NULL",
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
		Render(&b, n, verbatim)
		if b.String() != c.Fingerprint {
			t.Fatalf("%s: Render %q, Canonicalize %q", sql, b.String(), c.Fingerprint)
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
