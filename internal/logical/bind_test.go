package logical

import (
	"strings"
	"testing"

	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
	"repro/internal/value"
)

// TestSkeletonFromKeyInProjection: a projected string literal whose text
// is the FROM key is rendered before the FROM tree, so a skeleton that
// looked for the key's text would cut its FROM span from the projection.
// A bind of the WHERE literal must give what building and rendering the
// bound statement gives, FROM span included.
func TestSkeletonFromKeyInProjection(t *testing.T) {
	fromKey := Canonicalize(build(t, `SELECT name FROM city WHERE population > 5`)).Shape.FromKey
	sql := `SELECT name, '` + strings.ReplaceAll(fromKey, "'", "''") + `' AS k FROM city WHERE population > %s`
	stmt, lits, err := parser.ParseLiterals(strings.Replace(sql, "%s", "5", 1))
	if err != nil {
		t.Fatal(err)
	}
	built, err := Build(stmt.(*ast.Select), fakeResolver{})
	if err != nil {
		t.Fatal(err)
	}
	canon := Canonicalize(built)
	if strings.Index(canon.Fingerprint, fromKey) >= canon.from[0] {
		t.Fatalf("the projected literal is not rendered before the FROM tree: %s", canon.Fingerprint)
	}
	sk := NewSkeleton(built, canon, lits)
	if sk == nil || len(sk.Slots()) != 1 {
		t.Fatalf("skeleton %+v, want one slot", sk)
	}
	vals := literalValues(lits)
	vals[sk.Slots()[0]] = value.Int(123456)
	_, got := sk.Bind(vals)
	want := Canonicalize(build(t, strings.Replace(sql, "%s", "123456", 1)))
	if got.Fingerprint != want.Fingerprint || got.from != want.from || got.Shape.FromKey != fromKey {
		t.Errorf("bound fingerprint %q, FROM span %v\nbuilt fingerprint %q, FROM span %v", got.Fingerprint, got.from, want.Fingerprint, want.from)
	}
	if len(got.Slots) != 1 || got.Fingerprint[got.Slots[0].Start:got.Slots[0].End] != "123456" {
		t.Errorf("bound slots %+v", got.Slots)
	}
}
