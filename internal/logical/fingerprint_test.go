package logical

import (
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/sql/ast"
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
	return &Filter{Input: in, Cond: &ast.Binary{
		Op:    ">",
		Left:  &ast.ColumnRef{Table: "c", Name: "population"},
		Right: &ast.Literal{Val: value.Int(n)},
	}}
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
