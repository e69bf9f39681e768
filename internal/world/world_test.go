package world

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/value"
)

func TestBuildDeterministic(t *testing.T) {
	a, b := Build(), Build()
	if !reflect.DeepEqual(a.Tables(), b.Tables()) {
		t.Fatal("table sets differ between builds")
	}
	for _, name := range a.Tables() {
		ta, tb := a.Table(name), b.Table(name)
		if len(ta.Rows) != len(tb.Rows) {
			t.Fatalf("%s row counts differ", name)
		}
		for i := range ta.Rows {
			if !reflect.DeepEqual(ta.Rows[i], tb.Rows[i]) {
				t.Fatalf("%s row %d differs", name, i)
			}
		}
	}
}

func TestExpectedTables(t *testing.T) {
	w := Build()
	want := []string{"airport", "city", "country", "employees", "mayor", "mountain", "singer", "stadium"}
	if !reflect.DeepEqual(w.Tables(), want) {
		t.Errorf("Tables() = %v, want %v", w.Tables(), want)
	}
	sizes := map[string]int{
		"country": 48, "city": 65, "mayor": 65, "airport": 37,
		"singer": 26, "stadium": 22, "mountain": 24, "employees": 48,
	}
	for name, n := range sizes {
		if got := len(w.Table(name).Rows); got != n {
			t.Errorf("%s has %d rows, want %d", name, got, n)
		}
	}
}

func TestFacts(t *testing.T) {
	w := Build()
	v, ok := w.Fact("country", "Italy", "code")
	if !ok || v.AsString() != "ITA" {
		t.Errorf("Italy code = %v, %v", v, ok)
	}
	v, ok = w.Fact("country", "italy", "CODE") // case-insensitive
	if !ok || v.AsString() != "ITA" {
		t.Errorf("case-insensitive fact = %v, %v", v, ok)
	}
	if _, ok := w.Fact("country", "Atlantis", "code"); ok {
		t.Error("unknown entity must have no facts")
	}
	if _, ok := w.Fact("country", "Italy", "flavor"); ok {
		t.Error("unknown attribute must have no facts")
	}
}

// TestFactAgreesWithKey3: the buffer-built lookup finds exactly what the
// key3 string indexes, for every fact under mixed-case spellings and for
// a non-ASCII part, and an ASCII hit does not allocate.
func TestFactAgreesWithKey3(t *testing.T) {
	w := Build()
	mixed := func(s string) string {
		b := []byte(s)
		for i := 0; i < len(b); i += 2 {
			if 'a' <= b[i] && b[i] <= 'z' {
				b[i] -= 'a' - 'A'
			}
		}
		return string(b)
	}
	for _, name := range w.Tables() {
		tbl := w.Table(name)
		ki := tbl.Def.KeyIndex()
		for _, row := range tbl.Rows {
			k := row[ki].String()
			for _, c := range tbl.Def.Schema.Columns {
				rel, key, attr := strings.ToUpper(name), mixed(k), mixed(c.Name)
				want, wok := w.facts[key3(rel, key, attr)]
				got, ok := w.Fact(rel, key, attr)
				if ok != wok || !value.Equal(got, want) {
					t.Fatalf("Fact(%q, %q, %q) = %v, %v; key3 has %v, %v", rel, key, attr, got, ok, want, wok)
				}
			}
		}
	}

	w.facts[key3("country", "Türkiye", "code")] = value.Text("TUR")
	if v, ok := w.Fact("Country", "TÜRKIYE", "Code"); !ok || v.AsString() != "TUR" {
		t.Errorf("non-ASCII Fact = %v, %v; want TUR", v, ok)
	}
	if _, ok := w.Fact("country", "Türkei", "code"); ok {
		t.Error("unknown non-ASCII entity must have no facts")
	}

	if allocs := testing.AllocsPerRun(100, func() { w.Fact("Country", "Italy", "Code") }); allocs != 0 {
		t.Errorf("ASCII Fact hit allocates: %v allocs per run", allocs)
	}
}

func TestKeysByPopularity(t *testing.T) {
	w := Build()
	kps := w.KeysByPopularity("country")
	if len(kps) != 48 {
		t.Fatalf("countries = %d", len(kps))
	}
	if kps[0].Key != "United States" {
		t.Errorf("most popular country = %q", kps[0].Key)
	}
	for i := 1; i < len(kps); i++ {
		if kps[i].Pop > kps[i-1].Pop {
			t.Fatal("popularity must be non-increasing")
		}
	}
	if p := w.Popularity("country", "United States"); p != 1.0 {
		t.Errorf("top popularity = %v", p)
	}
	if p := w.Popularity("country", "Atlantis"); p != 0 {
		t.Errorf("unknown popularity = %v", p)
	}
}

func TestAltsAndAliases(t *testing.T) {
	w := Build()
	alt, ok := w.AltSurface("country", "Italy", "code")
	if !ok || alt != "IT" {
		t.Errorf("alpha-2 alt for Italy = %q, %v", alt, ok)
	}
	official, ok := w.EntityAlt("country", "Italy")
	if !ok || official != "Italian Republic" {
		t.Errorf("entity alt for Italy = %q, %v", official, ok)
	}
	aliases := w.Aliases()
	if aliases["it"] != "ITA" {
		t.Errorf("alias it → %q", aliases["it"])
	}
	if aliases["italian republic"] != "Italy" {
		t.Errorf("alias italian republic → %q", aliases["italian republic"])
	}
	if aliases["usa"] != "United States" {
		t.Errorf("alias usa → %q", aliases["usa"])
	}
	// Every city has a qualified alternate and every mayor an initialed
	// one.
	if _, ok := w.EntityAlt("city", "Paris"); !ok {
		t.Error("city alt missing")
	}
	mayorKeys := w.KeysByPopularity("mayor")
	alt2, ok := w.EntityAlt("mayor", mayorKeys[0].Key)
	if !ok || !strings.Contains(alt2, ". ") {
		t.Errorf("mayor alt = %q, %v", alt2, ok)
	}
}

// TestAliasAgreesWithAliases: the in-place lookup answers exactly what the
// copied table holds, entry by entry and on a miss.
func TestAliasAgreesWithAliases(t *testing.T) {
	w := Build()
	aliases := w.Aliases()
	if len(aliases) == 0 {
		t.Fatal("no aliases")
	}
	for k, want := range aliases {
		if got, ok := w.Alias(k); !ok || got != want {
			t.Errorf("Alias(%q) = %q, %v; Aliases() has %q", k, got, ok, want)
		}
	}
	if got, ok := w.Alias("atlantis"); ok {
		t.Errorf("Alias(atlantis) = %q, want a miss", got)
	}
}

func TestRefTargets(t *testing.T) {
	w := Build()
	cases := map[[2]string]string{
		{"city", "country"}:     "country",
		{"city", "mayor"}:       "mayor",
		{"airport", "city"}:     "city",
		{"mountain", "country"}: "country",
	}
	for k, want := range cases {
		got, ok := w.RefTarget(k[0], k[1])
		if !ok || got != want {
			t.Errorf("RefTarget(%s, %s) = %q, %v", k[0], k[1], got, ok)
		}
	}
	if _, ok := w.RefTarget("city", "population"); ok {
		t.Error("population is not a reference")
	}
}

func TestFindRelationAndAttr(t *testing.T) {
	w := Build()
	for noun, want := range map[string]string{
		"cities": "city", "city": "city", "countries": "country",
		"airports": "airport", "mayors": "mayor",
	} {
		got, ok := w.FindRelation(noun)
		if !ok || got != want {
			t.Errorf("FindRelation(%q) = %q, %v", noun, got, ok)
		}
	}
	if _, ok := w.FindRelation("spaceships"); ok {
		t.Error("unknown noun must not resolve")
	}
	attr, ok := w.FindAttr("country", "independence year")
	if !ok || attr != "independence_year" {
		t.Errorf("FindAttr = %q, %v", attr, ok)
	}
	if _, ok := w.FindAttr("country", "flavor"); ok {
		t.Error("unknown attr must not resolve")
	}
}

func TestRelationMaterialization(t *testing.T) {
	w := Build()
	rel := w.Relation("country")
	if rel == nil || rel.Cardinality() != 48 {
		t.Fatalf("country relation = %v", rel)
	}
	// Mutating the materialized copy must not affect the world.
	rel.Rows[0][0] = value.Text("Mutated")
	if v, _ := w.Fact("country", "United States", "name"); v.AsString() != "United States" {
		t.Error("Relation must deep-copy rows")
	}
	if w.Relation("nope") != nil {
		t.Error("unknown relation should be nil")
	}
}

func TestReferentialConsistency(t *testing.T) {
	w := Build()
	// Every city's country must exist in the country table, and every
	// city's mayor in the mayor table.
	countries := map[string]bool{}
	for _, kp := range w.KeysByPopularity("country") {
		countries[strings.ToLower(kp.Key)] = true
	}
	mayors := map[string]bool{}
	for _, kp := range w.KeysByPopularity("mayor") {
		mayors[strings.ToLower(kp.Key)] = true
	}
	for _, kp := range w.KeysByPopularity("city") {
		c, ok := w.Fact("city", kp.Key, "country")
		if !ok {
			t.Fatalf("city %s has no country", kp.Key)
		}
		if !countries[strings.ToLower(c.AsString())] {
			t.Errorf("city %s references unknown country %q", kp.Key, c.AsString())
		}
		m, _ := w.Fact("city", kp.Key, "mayor")
		if !mayors[strings.ToLower(m.AsString())] {
			t.Errorf("city %s references unknown mayor %q", kp.Key, m.AsString())
		}
	}
	// Employees reference valid alpha-3 codes.
	codes := map[string]bool{}
	for _, kp := range w.KeysByPopularity("country") {
		code, _ := w.Fact("country", kp.Key, "code")
		codes[code.AsString()] = true
	}
	emp := w.Relation("employees")
	idx := emp.Schema.IndexOf("", "countryCode")
	for _, row := range emp.Rows {
		if !codes[row[idx].AsString()] {
			t.Errorf("employee references unknown code %q", row[idx].AsString())
		}
	}
}

func TestOtherValue(t *testing.T) {
	w := Build()
	v, ok := w.OtherValue("country", "Italy", "code", 3)
	if !ok || v.AsString() == "ITA" {
		t.Errorf("OtherValue must not return the excluded entity's value: %v", v)
	}
	if _, ok := w.OtherValue("nope", "x", "y", 0); ok {
		t.Error("unknown relation should fail")
	}
}

func TestTableDefs(t *testing.T) {
	w := Build()
	def := w.Def("airport")
	if def.KeyColumn != "iata" {
		t.Errorf("airport key = %q", def.KeyColumn)
	}
	if def.KeyIndex() != 0 {
		t.Errorf("airport key index = %d", def.KeyIndex())
	}
	if w.Def("nope") != nil {
		t.Error("unknown def should be nil")
	}
}

func TestDerivedAttributes(t *testing.T) {
	w := Build()
	d, ok := w.DerivedAttr("city", "mayor_birth_date")
	if !ok || d.Via != "mayor" || d.Target != "mayor" || d.TargetAttr != "birth_date" {
		t.Fatalf("DerivedAttr = %+v, %v", d, ok)
	}
	// Fact resolves through the chain and agrees with the direct lookup.
	mayor, _ := w.Fact("city", "Paris", "mayor")
	want, _ := w.Fact("mayor", mayor.AsString(), "birth_date")
	got, ok := w.Fact("city", "Paris", "mayor_birth_date")
	if !ok || !value.Equal(got, want) {
		t.Errorf("derived fact = %v, want %v", got, want)
	}
	// FindAttr resolves the humanized label.
	attr, ok := w.FindAttr("city", "mayor birth date")
	if !ok || attr != "mayor_birth_date" {
		t.Errorf("FindAttr derived = %q, %v", attr, ok)
	}
	if _, ok := w.DerivedAttr("city", "population"); ok {
		t.Error("population is not derived")
	}
}
