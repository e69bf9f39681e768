// Package world builds the deterministic synthetic world that stands in
// for the paper's two data sources: the Spider ground-truth databases
// (relations loaded into the in-memory DBMS) and the factual knowledge a
// pre-trained LLM holds about generic topics (facts consulted, with noise,
// by the simulated models in package simllm).
//
// Both views are generated from the same hard-coded entity tables, so the
// cardinality and cell-match metrics compare like with like, exactly as in
// the paper where the Spider subset covers "generic topics, such as world
// geography and airports" the LLM has seen during pre-training.
package world

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/prompt"
	"repro/internal/schema"
	"repro/internal/value"
)

// World exposes the entity tables as relations (ground truth) and as a
// fact store (LLM knowledge).
type World struct {
	tables map[string]*Table
	// facts indexes rel|key|attr → value for O(1) lookups.
	facts map[string]value.Value
	// alts holds alternate surface forms (rel|key|attr → text), e.g. the
	// alpha-2 spelling of a country code.
	alts map[string]string
	// entityAlts holds alternate spellings of entity names themselves
	// (rel|key → text): "Italian Republic" for Italy, "E. Moreau" for a
	// mayor. These are what break joins when a model's surface style is
	// inconsistent across prompts.
	entityAlts map[string]string
	// refAttrs marks attributes whose values reference another relation's
	// key (rel|attr → target relation): city.country → country.
	refAttrs map[string]string
	// deriveds registers virtual attributes reachable through a reference
	// (city.mayor_birth_date = mayor(birth_date) via city.mayor). They
	// support the Section 6 "schema-less querying" exploration: two SQL
	// formulations of the same information need should agree.
	deriveds map[string]Derived
	// aliases maps every known alternate spelling to its canonical form;
	// feeds clean.NewCanonicalizer for Ablation C.
	aliases map[string]string
	// nounIndex maps relation nouns (singular and plural, humanized) to
	// table names.
	nounIndex map[string]string
}

// Table is one entity table with a popularity score per row (1.0 = most
// famous), used by the simulated models' recall bias.
type Table struct {
	Def        *schema.TableDef
	Rows       []schema.Tuple
	Popularity []float64

	// The lookup indexes, built once by Build and never written after:
	// rowOf maps a lower-cased key to its first row; attrOf maps a
	// lower-cased column label or name, or derived attribute, to the
	// attribute name; byPop is KeysByPopularity's answer.
	rowOf  map[string]int
	attrOf map[string]string
	byPop  []KeyPop
}

// Build constructs the world. The result is deterministic: every call
// returns identical data.
func Build() *World {
	w := &World{
		tables:     map[string]*Table{},
		facts:      map[string]value.Value{},
		alts:       map[string]string{},
		entityAlts: map[string]string{},
		refAttrs:   map[string]string{},
		deriveds:   map[string]Derived{},
		aliases:    map[string]string{},
		nounIndex:  map[string]string{},
	}
	w.addCountries()
	w.addCities()
	w.addAirports()
	w.addSingers()
	w.addStadiums()
	w.addMountains()
	w.addEmployees()
	w.registerReferences()
	w.indexNouns()
	w.indexTables()
	return w
}

// registerReferences marks the attributes whose values are entity names of
// another relation, so the simulated models know when an answer is a
// cross-relation reference (and may use an alternate spelling for it).
func (w *World) registerReferences() {
	w.addRefAttr("city", "country", "country")
	w.addRefAttr("city", "mayor", "mayor")
	w.addRefAttr("mayor", "city", "city")
	w.addRefAttr("airport", "city", "city")
	w.addRefAttr("airport", "country", "country")
	w.addRefAttr("singer", "country", "country")
	w.addRefAttr("stadium", "city", "city")
	w.addRefAttr("stadium", "country", "country")
	w.addRefAttr("mountain", "country", "country")

	// Derived (schema-less) attributes: the Q2 formulation of the paper's
	// schema-less example asks for a city's mayorBirthDate directly.
	w.addDerived("city", "mayor_birth_date", "mayor", "mayor", "birth_date")
	w.addDerived("city", "mayor_party", "mayor", "mayor", "party")
	w.addDerived("singer", "country_capital", "country", "country", "capital")
}

// Derived describes a virtual attribute: follow Via (a reference attr of
// the relation) to Target and read TargetAttr there.
type Derived struct {
	Via        string
	Target     string
	TargetAttr string
}

func (w *World) addDerived(rel, attr, via, target, targetAttr string) {
	w.deriveds[strings.ToLower(rel)+"|"+strings.ToLower(attr)] = Derived{
		Via: via, Target: target, TargetAttr: targetAttr,
	}
}

// DerivedAttr returns the derivation of a virtual attribute, if any.
func (w *World) DerivedAttr(rel, attr string) (Derived, bool) {
	var buf [128]byte
	d, ok := w.deriveds[string(FoldKey(&buf, rel, attr))]
	return d, ok
}

func key3(rel, k, attr string) string {
	return strings.ToLower(rel) + "|" + strings.ToLower(k) + "|" + strings.ToLower(attr)
}

// addTable registers a table and indexes its facts. Rows must be ordered
// most-famous-first; popularity decays linearly with position.
func (w *World) addTable(def *schema.TableDef, rows []schema.Tuple) *Table {
	t := &Table{Def: def, Rows: rows, Popularity: make([]float64, len(rows))}
	n := len(rows)
	ki := def.KeyIndex()
	for i, row := range rows {
		t.Popularity[i] = 1.0 - float64(i)/float64(n)
		k := row[ki].String()
		for j, c := range def.Schema.Columns {
			w.facts[key3(def.Name, k, c.Name)] = row[j]
		}
	}
	w.tables[strings.ToLower(def.Name)] = t
	return t
}

// addAlt registers an alternate surface form for a fact and the reverse
// alias for the canonicalizer.
func (w *World) addAlt(rel, k, attr, alt string) {
	canonical, ok := w.facts[key3(rel, k, attr)]
	if !ok {
		panic(fmt.Sprintf("world: alt for unknown fact %s.%s.%s", rel, k, attr))
	}
	w.alts[key3(rel, k, attr)] = alt
	w.aliases[strings.ToLower(alt)] = canonical.String()
}

// addEntityAlt registers an alternate spelling for an entity name and the
// reverse alias.
func (w *World) addEntityAlt(rel, k, alt string) {
	w.entityAlts[strings.ToLower(rel)+"|"+strings.ToLower(k)] = alt
	w.aliases[strings.ToLower(alt)] = k
}

// addRefAttr marks rel.attr as referencing target's key.
func (w *World) addRefAttr(rel, attr, target string) {
	w.refAttrs[strings.ToLower(rel)+"|"+strings.ToLower(attr)] = strings.ToLower(target)
}

// EntityAlt returns an alternate spelling for the entity, if registered.
func (w *World) EntityAlt(rel, k string) (string, bool) {
	var buf [128]byte
	s, ok := w.entityAlts[string(FoldKey(&buf, rel, k))]
	return s, ok
}

// RefTarget returns the relation whose key the attribute references, if
// any ("city", "country" → "country").
func (w *World) RefTarget(rel, attr string) (string, bool) {
	var buf [128]byte
	t, ok := w.refAttrs[string(FoldKey(&buf, rel, attr))]
	return t, ok
}

func (w *World) indexNouns() {
	for name := range w.tables {
		human := prompt.Humanize(name)
		w.nounIndex[human] = name
		w.nounIndex[prompt.Pluralize(human)] = name
	}
}

// indexTables builds every table's lookup indexes (see Table) once the
// tables and derived attributes are registered. The first row of a key,
// and the first column of a label in column order, win, as in a scan;
// derived attributes answer labels no column claims.
func (w *World) indexTables() {
	for name, t := range w.tables {
		ki := t.Def.KeyIndex()
		t.rowOf = make(map[string]int, len(t.Rows))
		t.byPop = make([]KeyPop, len(t.Rows))
		for i, row := range t.Rows {
			k := row[ki].String()
			t.byPop[i] = KeyPop{Key: k, Pop: t.Popularity[i]}
			lk := strings.ToLower(k)
			if _, ok := t.rowOf[lk]; !ok {
				t.rowOf[lk] = i
			}
		}
		t.attrOf = map[string]string{}
		label := func(label, attr string) {
			if _, ok := t.attrOf[label]; !ok {
				t.attrOf[label] = attr
			}
		}
		for _, c := range t.Def.Schema.Columns {
			label(strings.ToLower(prompt.Humanize(c.Name)), c.Name)
			label(strings.ToLower(c.Name), c.Name)
		}
		for k := range w.deriveds {
			if rel, attr, _ := strings.Cut(k, "|"); rel == name {
				label(strings.ToLower(prompt.Humanize(attr)), attr)
				label(attr, attr)
			}
		}
	}
}

// Tables returns the table names in sorted order.
func (w *World) Tables() []string {
	names := make([]string, 0, len(w.tables))
	for n := range w.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Table returns the named table, or nil.
func (w *World) Table(name string) *Table { return w.tables[strings.ToLower(name)] }

// Def returns the table definition, or nil.
func (w *World) Def(name string) *schema.TableDef {
	if t := w.tables[strings.ToLower(name)]; t != nil {
		return t.Def
	}
	return nil
}

// Relation materializes the named table as a ground-truth relation.
func (w *World) Relation(name string) *schema.Relation {
	t := w.Table(name)
	if t == nil {
		return nil
	}
	r := schema.NewRelation(t.Def.Schema.Clone())
	for _, row := range t.Rows {
		r.Append(row.Clone())
	}
	return r
}

// Fact returns the true value of (relation, key, attr); ok is false when
// the entity or attribute does not exist. Derived attributes resolve
// through their reference chain.
func (w *World) Fact(rel, k, attr string) (value.Value, bool) {
	if v, ok := w.fact(rel, k, attr); ok {
		return v, true
	}
	if d, ok := w.DerivedAttr(rel, attr); ok {
		mid, ok := w.fact(rel, k, d.Via)
		if !ok {
			return value.Null(), false
		}
		return w.Fact(d.Target, mid.String(), d.TargetAttr)
	}
	return value.Null(), false
}

// fact indexes the fact table under key3(rel, k, attr).
func (w *World) fact(rel, k, attr string) (value.Value, bool) {
	var buf [128]byte
	v, ok := w.facts[string(FoldKey(&buf, rel, k, attr))]
	return v, ok
}

// FoldKey writes strings.ToLower of the '|'-joined parts into buf and
// returns the bytes written, so that a map of lower-cased keys is indexed
// as m[string(FoldKey(&buf, parts...))] without building the key: ASCII
// parts are lower-cased in place, and indexing a map with string(bytes)
// does not allocate. A part with non-ASCII bytes goes through
// strings.ToLower, which is Unicode-aware, and allocates.
func FoldKey(buf *[128]byte, parts ...string) []byte {
	out := buf[:0]
	for i, part := range parts {
		if i > 0 {
			out = append(out, '|')
		}
		for j := 0; j < len(part); j++ {
			c := part[j]
			if c >= utf8.RuneSelf {
				return []byte(strings.ToLower(strings.Join(parts, "|")))
			}
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			out = append(out, c)
		}
	}
	return out
}

// AltSurface returns the registered alternate surface form of a fact
// ("IT" for country code "ITA"), if any.
func (w *World) AltSurface(rel, k, attr string) (string, bool) {
	var buf [128]byte
	s, ok := w.alts[string(FoldKey(&buf, rel, k, attr))]
	return s, ok
}

// Alias returns the canonical form of one alternate spelling, matched
// case-insensitively. It reads the alias table in place: the table is
// never written after Build, so concurrent callers need no lock.
func (w *World) Alias(spelling string) (string, bool) {
	var buf [128]byte
	c, ok := w.aliases[string(FoldKey(&buf, spelling))]
	return c, ok
}

// Aliases returns a copy of the alternate-spelling → canonical pairs, for
// building the data cleaner's canonicalizer.
func (w *World) Aliases() map[string]string {
	out := make(map[string]string, len(w.aliases))
	for k, v := range w.aliases {
		out[k] = v
	}
	return out
}

// KeyPop pairs an entity key with its popularity.
type KeyPop struct {
	Key string
	Pop float64
}

// KeysByPopularity returns the keys of a relation, most famous first.
// The slice is the world's own index, shared by every caller: it is
// read-only.
func (w *World) KeysByPopularity(rel string) []KeyPop {
	if t := w.Table(rel); t != nil {
		return t.byPop
	}
	return nil
}

// Popularity returns the popularity of one entity, matched
// case-insensitively (0 when unknown).
func (w *World) Popularity(rel, k string) float64 {
	if t := w.Table(rel); t != nil {
		var buf [128]byte
		if i, ok := t.rowOf[string(FoldKey(&buf, k))]; ok {
			return t.Popularity[i]
		}
	}
	return 0
}

// FindRelation maps a (possibly plural, humanized) noun to a table name.
func (w *World) FindRelation(noun string) (string, bool) {
	noun = strings.ToLower(strings.TrimSpace(noun))
	if name, ok := w.nounIndex[noun]; ok {
		return name, true
	}
	// Last resort: singularize unknown plurals.
	if name, ok := w.nounIndex[prompt.Singularize(noun)]; ok {
		return name, true
	}
	return "", false
}

// FindAttr maps a humanized attribute label, or a column name, back to
// the schema column name of a relation ("independence year" →
// "independence_year"). Derived (schema-less) attributes answer too.
func (w *World) FindAttr(rel, label string) (string, bool) {
	if t := w.Table(rel); t != nil {
		var buf [128]byte
		attr, ok := t.attrOf[string(FoldKey(&buf, strings.TrimSpace(label)))]
		return attr, ok
	}
	return "", false
}

// OtherValue returns the value of attr for the i-th other entity of the
// relation (wrapping around); the simulated models use it to hallucinate
// plausible-but-wrong answers. ok is false for unknown relations.
func (w *World) OtherValue(rel, excludeKey, attr string, i int) (value.Value, bool) {
	t := w.Table(rel)
	if t == nil || len(t.Rows) < 2 {
		return value.Null(), false
	}
	ki := t.Def.KeyIndex()
	ai := -1
	for j, c := range t.Def.Schema.Columns {
		if strings.EqualFold(c.Name, attr) {
			ai = j
			break
		}
	}
	if ai < 0 {
		return value.Null(), false
	}
	if i < 0 {
		i = -i
	}
	for off := 0; off < len(t.Rows); off++ {
		row := t.Rows[(i+off)%len(t.Rows)]
		if !strings.EqualFold(row[ki].String(), excludeKey) {
			return row[ai], true
		}
	}
	return value.Null(), false
}

// col is shorthand for building schema columns in the data files.
func col(name string, kind value.Kind) schema.Column {
	return schema.Column{Name: name, Type: kind}
}
