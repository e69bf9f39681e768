package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/rescache"
	"repro/internal/schema"
	"repro/internal/sql/ast"
	"repro/internal/sql/lexer"
	"repro/internal/sql/parser"
	"repro/internal/value"
)

// FuzzDecodeEntry feeds arbitrary payloads to the persisted-entry
// decoder. Decoding never panics, and an entry it accepts is a fixpoint
// of the codec: encoding it and decoding the result gives back the same
// key, plan, tables, producer, schema and cells.
func FuzzDecodeEntry(f *testing.F) {
	rel := schema.NewRelation(schema.New(
		schema.Column{Table: "city", Name: "name", Type: value.KindString},
		schema.Column{Name: "population", Type: value.KindInt},
		schema.Column{Name: "area", Type: value.KindFloat},
		schema.Column{Name: "capital", Type: value.KindBool},
		schema.Column{Name: "founded", Type: value.KindDate},
	))
	rel.Append(schema.Tuple{value.Text(" New York "), value.Int(8804190), value.Float(783.8), value.Bool(false), value.Date(1624, 1, 1)})
	rel.Append(schema.Tuple{value.Text("NULL"), value.Null(), value.Float(-0.1), value.Bool(true), value.Date(1066, 10, 14)})
	payload, err := encodeEntry(rescache.Key{Fingerprint: "fp", Stamp: "llm:city=1;"}, &rescache.Entry{
		Rel:    rel,
		Plan:   "Project(name)\n  LLMScan(city)",
		Tables: []string{"llm:city"},
		Prod:   &rescache.Producer{Opts: "o", FromKey: "city", FromLabel: "city", Conjuncts: []string{"population > 1000000"}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	for _, seed := range []string{
		`{"fp":"fp","stamp":"","tables":null,"cols":[{"n":"x","y":2}],"rows":[[{"k":2,"v":"NaN"}]]}`,
		`{"fp":"fp","stamp":"","tables":[],"cols":[{"n":"x","y":1},{"n":"y","y":1}],"rows":[[{"k":1,"v":"1"}]]}`,
		`{"fp":"fp","stamp":"","tables":[],"cols":[{"n":"x","y":1}],"rows":[[{"k":42,"v":"1"}]]}`,
		`{"fp":"fp","stamp":"","tables":[],"cols":[{"n":"x","y":4}],"rows":[[{"k":4,"v":"yes"}]]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		key, e, err := decodeEntry(payload)
		if err != nil {
			return
		}
		again, err := encodeEntry(key, e)
		if err != nil {
			t.Fatalf("accepted entry does not encode: %v", err)
		}
		key2, e2, err := decodeEntry(again)
		if err != nil {
			t.Fatalf("re-encoded entry does not decode: %v\n%s", err, again)
		}
		if key2 != key || e2.Plan != e.Plan || !slices.Equal(e2.Tables, e.Tables) {
			t.Fatalf("key, plan or tables changed: %+v %q %q -> %+v %q %q", key, e.Plan, e.Tables, key2, e2.Plan, e2.Tables)
		}
		if (e.Prod == nil) != (e2.Prod == nil) || e.Prod != nil &&
			(e.Prod.Opts != e2.Prod.Opts || e.Prod.FromKey != e2.Prod.FromKey ||
				e.Prod.FromLabel != e2.Prod.FromLabel || !slices.Equal(e.Prod.Conjuncts, e2.Prod.Conjuncts)) {
			t.Fatalf("producer changed: %+v -> %+v", e.Prod, e2.Prod)
		}
		if !slices.Equal(e.Rel.Schema.Columns, e2.Rel.Schema.Columns) {
			t.Fatalf("schema changed: %v -> %v", e.Rel.Schema.Columns, e2.Rel.Schema.Columns)
		}
		if got, want := e2.Rel.String(), e.Rel.String(); got != want {
			t.Fatalf("relation changed:\n%s\nwant:\n%s", got, want)
		}
		for i, row := range e.Rel.Rows {
			for j, v := range row {
				if w := e2.Rel.Rows[i][j]; w.Kind() != v.Kind() || w.Key() != v.Key() {
					t.Fatalf("cell (%d,%d) changed: %v %s -> %v %s", i, j, v.Kind(), v.Key(), w.Kind(), w.Key())
				}
			}
		}
	})
}

// FuzzShape checks the shape memo's premise and its bind. Two statements
// with one shape key (lexer.Shape) — the input and the input with fresh
// literals — parse to trees that differ only in the literals: with the
// first one's literal values put into the second's tree, the trees are
// equal; and where only one parses, a literal of it is out of range. The
// second statement bound from the first one's shape entry carries what
// parsing, building, rendering and templating it give.
func FuzzShape(f *testing.F) {
	for i, sql := range shapeCorpus() {
		f.Add(sql, int64(i))
	}
	var rt *Runtime
	f.Fuzz(func(t *testing.T, sql string, seed int64) {
		shape, lits, err := lexer.Shape(sql)
		if err != nil {
			return
		}
		fresh := freshLiterals(sql, rand.New(rand.NewSource(seed)))
		shape2, lits2, err := lexer.Shape(fresh)
		if err != nil || shape2 != shape {
			return // the literal rewriter matched inside a name or a comment
		}
		stmt, plits, err := parser.ParseLiterals(sql)
		stmt2, plits2, err2 := parser.ParseLiterals(fresh)
		if (err == nil) != (err2 == nil) {
			if !outOfRange(lits) && !outOfRange(lits2) {
				t.Fatalf("%q parses (%v) where %q does not (%v)", sql, err, fresh, err2)
			}
			return
		}
		if err != nil || slices.Contains(plits, nil) || slices.Contains(plits2, nil) {
			return
		}
		for i := range plits2 {
			plits2[i].Val = plits[i].Val
		}
		if !reflect.DeepEqual(stmt, stmt2) {
			t.Fatalf("%q and %q share a shape but parse to trees that differ beyond their literals", sql, fresh)
		}

		sel, ok := stmt.(*ast.Select)
		if !ok {
			return
		}
		if rt == nil {
			rt = oracleRuntime(t)
		}
		s := rt.NewSession()
		q, err := s.prepare(sel)
		if err != nil {
			return
		}
		e := newShapeEntry(q, lits, plits)
		if e == nil {
			return
		}
		got := s.bind(e, lits2)
		if got == nil {
			if !fixedDiffers(e, lits2) && !outOfRange(lits2) {
				t.Fatalf("%q: not bound from %q", fresh, sql)
			}
			return
		}
		stmt2, _, _ = parser.ParseLiterals(fresh)
		want, err := s.prepare(stmt2.(*ast.Select))
		if err != nil {
			t.Fatalf("%q: bound from %q, but it does not build: %v", fresh, sql, err)
		}
		if g, w := describeQuery(got), describeQuery(want); g != w {
			t.Fatalf("%q bound from %q:\n%s\nparsed:\n%s", fresh, sql, g, w)
		}
	})
}

// outOfRange reports whether a literal of lits fails to parse.
func outOfRange(lits []lexer.Literal) bool {
	for _, l := range lits {
		if _, ok := parser.Value(l); !ok {
			return true
		}
	}
	return false
}
