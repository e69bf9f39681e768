package core

import (
	"slices"
	"testing"

	"repro/internal/rescache"
	"repro/internal/schema"
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
