package world

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/prompt"
	"repro/internal/schema"
	"repro/internal/value"
)

// The linear scans the table indexes replaced, kept as the reference.

func scanPopularity(w *World, rel, k string) float64 {
	t := w.Table(rel)
	if t == nil {
		return 0
	}
	ki := t.Def.KeyIndex()
	for i, row := range t.Rows {
		if strings.EqualFold(row[ki].String(), k) {
			return t.Popularity[i]
		}
	}
	return 0
}

func scanFindAttr(w *World, rel, label string) (string, bool) {
	t := w.Table(rel)
	if t == nil {
		return "", false
	}
	label = strings.ToLower(strings.TrimSpace(label))
	for _, c := range t.Def.Schema.Columns {
		if strings.ToLower(prompt.Humanize(c.Name)) == label || strings.EqualFold(c.Name, label) {
			return c.Name, true
		}
	}
	for k := range w.deriveds {
		parts := strings.SplitN(k, "|", 2)
		if parts[0] != strings.ToLower(rel) {
			continue
		}
		if strings.ToLower(prompt.Humanize(parts[1])) == label || parts[1] == label {
			return parts[1], true
		}
	}
	return "", false
}

func scanKeysByPopularity(w *World, rel string) []KeyPop {
	t := w.Table(rel)
	if t == nil {
		return nil
	}
	ki := t.Def.KeyIndex()
	out := make([]KeyPop, len(t.Rows))
	for i, row := range t.Rows {
		out[i] = KeyPop{Key: row[ki].String(), Pop: t.Popularity[i]}
	}
	return out
}

// mixedCase upper-cases every other ASCII letter.
func mixedCase(s string) string {
	b := []byte(s)
	for i := 0; i < len(b); i += 2 {
		if 'a' <= b[i] && b[i] <= 'z' {
			b[i] -= 'a' - 'A'
		}
	}
	return string(b)
}

// spellings is s in upper, lower and mixed case.
func spellings(s string) []string {
	return []string{s, strings.ToUpper(s), strings.ToLower(s), mixedCase(s)}
}

// TestWorldIndexesAgreeWithScan: Popularity, FindAttr and
// KeysByPopularity answer from the indexes Build makes exactly what the
// scans over the rows and columns answer, for every key and label in
// every case, non-ASCII keys included; and an ASCII hit of Popularity,
// Alias or EntityAlt allocates nothing.
func TestWorldIndexesAgreeWithScan(t *testing.T) {
	w := Build()
	// A table with non-ASCII keys exercises the Unicode-aware fallback.
	w.addTable(&schema.TableDef{
		Name:      "place",
		Schema:    schema.New(col("name", value.KindString), col("founded_year", value.KindInt)),
		KeyColumn: "name",
	}, []schema.Tuple{
		{value.Text("Zürich"), value.Int(1218)},
		{value.Text("São Paulo"), value.Int(1554)},
		{value.Text("zÜrich"), value.Int(0)}, // a later spelling of the same key
	})
	w.indexTables()

	for _, rel := range append(w.Tables(), "atlantis") {
		if got, want := w.KeysByPopularity(rel), scanKeysByPopularity(w, rel); !reflect.DeepEqual(got, want) {
			t.Errorf("KeysByPopularity(%q) = %v, scan %v", rel, got, want)
		}
		keys := []string{"Atlantis", "Türkiye", ""}
		for _, kp := range scanKeysByPopularity(w, rel) {
			keys = append(keys, kp.Key)
		}
		for _, k := range keys {
			for _, s := range spellings(k) {
				if got, want := w.Popularity(rel, s), scanPopularity(w, rel, s); got != want {
					t.Errorf("Popularity(%q, %q) = %v, scan %v", rel, s, got, want)
				}
			}
		}
		labels := []string{"flavor", " independence year "}
		if tbl := w.Table(rel); tbl != nil {
			for _, c := range tbl.Def.Schema.Columns {
				labels = append(labels, c.Name, prompt.Humanize(c.Name), " "+prompt.Humanize(c.Name)+" ")
			}
		}
		for k := range w.deriveds {
			if r, attr, _ := strings.Cut(k, "|"); r == rel {
				labels = append(labels, attr, prompt.Humanize(attr))
			}
		}
		for _, label := range labels {
			for _, s := range spellings(label) {
				got, ok := w.FindAttr(rel, s)
				want, wok := scanFindAttr(w, rel, s)
				if got != want || ok != wok {
					t.Errorf("FindAttr(%q, %q) = %q, %v; scan %q, %v", rel, s, got, ok, want, wok)
				}
			}
		}
	}

	for name, f := range map[string]func(){
		"Popularity": func() { w.Popularity("country", "UNITED STATES") },
		"Alias":      func() { w.Alias("Italian Republic") },
		"EntityAlt":  func() { w.EntityAlt("Country", "ITALY") },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("ASCII %s hit allocates: %v allocs per run", name, allocs)
		}
	}
	if _, ok := w.Alias("Italian Republic"); !ok {
		t.Error(`Alias("Italian Republic") misses`)
	}
	if _, ok := w.EntityAlt("Country", "ITALY"); !ok {
		t.Error(`EntityAlt("Country", "ITALY") misses`)
	}
	if got, ok := w.Alias("REPUBLIC OF TÜRKIYE"); !ok || got != "Turkey" {
		t.Errorf(`Alias("REPUBLIC OF TÜRKIYE") = %q, %v; want Turkey`, got, ok)
	}
}
