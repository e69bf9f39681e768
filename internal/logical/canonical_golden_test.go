package logical_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/logical"
	"repro/internal/schema"
	"repro/internal/spider"
	"repro/internal/sql/parser"
	"repro/internal/world"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// worldResolver binds every world table to the LLM side except
// employees, which lives in the DB; an explicit qualifier wins.
type worldResolver struct{ w *world.World }

func (r worldResolver) ResolveTable(name, explicit string) (*schema.TableDef, string, error) {
	def := r.w.Def(name)
	if def == nil {
		return nil, "", fmt.Errorf("no table %s", name)
	}
	switch {
	case explicit != "":
		return def, strings.ToUpper(explicit), nil
	case strings.EqualFold(name, "employees"):
		return def, "DB", nil
	}
	return def, "LLM", nil
}

// canonicalRecord is one statement's persisted canonical form.
type canonicalRecord struct {
	SQL         string   `json:"sql"`
	Fingerprint string   `json:"fingerprint"`
	FromKey     string   `json:"from_key"`
	Components  []string `json:"components"`
}

// extraCanonical covers what neither the corpus nor the generator
// reaches: DB and explicitly qualified scans, every join kind, DISTINCT,
// HAVING over an aggregate, truncation, a repeated conjunct and a
// mirrored comparison.
var extraCanonical = []string{
	`SELECT e.id, e.salary FROM employees e WHERE e.salary > 1000.5 AND e.countryCode = 'FR'`,
	`SELECT name FROM DB.country WHERE population > 5`,
	`SELECT DISTINCT country FROM city`,
	`SELECT DISTINCT country FROM city ORDER BY country LIMIT 3 OFFSET 1`,
	`SELECT c.name FROM city c LEFT JOIN mayor m ON c.mayor = m.name WHERE m.age < 40`,
	`SELECT c.name FROM city c CROSS JOIN country k WHERE c.country = k.name`,
	`SELECT c.name FROM city c JOIN country k ON c.country = k.name AND k.population > 1000000`,
	`SELECT country, COUNT(*) FROM city GROUP BY country HAVING COUNT(*) > 2`,
	`SELECT name FROM city WHERE population > 10 AND (country = 'Italy' OR 'Spain' = country) AND population > 10`,
	`SELECT name, population FROM city ORDER BY population DESC`,
}

// TestCanonicalGolden pins the canonical form of the 46 corpus
// statements, of 200 generated ones and of extraCanonical: the
// fingerprint (persisted as the durable store's relation key), the FROM
// key (persisted with every subsumption producer) and the invalidation
// components. A data dir written by an older build warm-loads and
// matches only while these bytes hold.
//
//	go test ./internal/logical -run TestCanonicalGolden -update
func TestCanonicalGolden(t *testing.T) {
	var sqls []string
	for _, q := range spider.Queries() {
		sqls = append(sqls, q.SQL)
	}
	gen := difftest.New(1)
	for i := 0; i < 200; i++ {
		sqls = append(sqls, gen.Query().SQL)
	}
	sqls = append(sqls, extraCanonical...)
	r := worldResolver{w: world.Build()}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	for _, sql := range sqls {
		sel, err := parser.ParseSelect(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		built, err := logical.Build(sel, r)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		c := logical.Canonicalize(built)
		rec := canonicalRecord{SQL: sql, Fingerprint: c.Fingerprint, Components: c.Components}
		if c.Shape != nil {
			rec.FromKey = c.Shape.FromKey
		}
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "canonical.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	got := buf.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("got %d lines, want %d", len(gl), len(wl))
}
