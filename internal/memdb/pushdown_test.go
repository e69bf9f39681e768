package memdb

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/sql/parser"
)

// pushdownScript holds cities whose mayor is missing, unnamed or of
// unknown age, so an outer join pads rows and a filter on either side
// keeps some and drops others.
const pushdownScript = `
CREATE TABLE city (name TEXT PRIMARY KEY, country TEXT, population INT, mayor TEXT);
INSERT INTO city VALUES ('Rome', 'IT', 2800000, 'Gualtieri'), ('Milan', 'IT', 1400000, 'Sala'),
  ('Paris', 'FR', 2100000, 'Hidalgo'), ('Lyon', 'FR', 520000, 'Doucet'), ('Tokyo', 'JP', 14000000, 'Koike'),
  ('Osaka', 'JP', 2700000, NULL), ('Oslo', 'NO', 700000, 'Nobody'), ('Lima', 'PE', 9700000, 'Lopez');
CREATE TABLE mayor (name TEXT PRIMARY KEY, age INT, party TEXT);
INSERT INTO mayor VALUES ('Gualtieri', 58, 'PD'), ('Sala', 66, 'PD'), ('Hidalgo', 65, 'PS'),
  ('Doucet', 51, 'EELV'), ('Koike', 72, NULL), ('Lopez', NULL, 'RP'), ('Orphan', 40, 'X');
CREATE TABLE country (code TEXT PRIMARY KEY, name TEXT, continent TEXT);
INSERT INTO country VALUES ('IT', 'Italy', 'Europe'), ('FR', 'France', 'Europe'), ('JP', 'Japan', 'Asia'),
  ('PE', 'Peru', 'America');
`

// pushdownStatements put WHERE and ON conjuncts on each side of inner,
// left outer and comma joins.
var pushdownStatements = []string{
	"SELECT c.name, m.age FROM city c LEFT JOIN mayor m ON c.mayor = m.name WHERE m.age > 50",
	"SELECT c.name, m.age FROM city c LEFT JOIN mayor m ON c.mayor = m.name AND c.population > 5000000",
	"SELECT c.name, m.age FROM city c LEFT JOIN mayor m ON c.mayor = m.name AND m.age > 60",
	"SELECT c.name, m.age FROM city c LEFT JOIN mayor m ON c.mayor = m.name WHERE c.population > 1000000",
	"SELECT c.name FROM city c LEFT JOIN mayor m ON c.mayor = m.name WHERE m.name IS NULL",
	"SELECT c.name, m.age FROM city c LEFT JOIN mayor m ON c.mayor = m.name WHERE m.age > 60 OR c.population > 5000000",
	"SELECT c.name, m.age FROM city c LEFT JOIN mayor m ON c.mayor = m.name AND c.population > m.age * 40000",
	"SELECT c.name, m.party FROM city c LEFT JOIN mayor m ON c.mayor = m.name AND m.party = 'PD' WHERE c.country = 'IT'",
	"SELECT c.name, m.age FROM city c JOIN mayor m ON c.mayor = m.name AND c.population > 1000000 AND m.age < 70",
	"SELECT c.name, m.age FROM city c JOIN mayor m ON c.mayor = m.name WHERE m.age > 55 AND c.country = 'FR'",
	"SELECT c.name, m.age FROM city c, mayor m WHERE c.mayor = m.name AND c.population > 1000000 AND m.age > 60",
	"SELECT c.name, co.name FROM city c, country co WHERE c.country = co.code AND co.continent = 'Europe'",
	"SELECT c.name, m.age, co.name FROM city c LEFT JOIN mayor m ON c.mayor = m.name JOIN country co ON c.country = co.code WHERE m.age > 55 AND co.continent = 'Europe'",
	"SELECT c.name, m.age FROM country co JOIN city c ON co.code = c.country LEFT JOIN mayor m ON c.mayor = m.name AND co.continent = 'Europe'",
	"SELECT c.name, co.name FROM city c LEFT JOIN mayor m ON c.mayor = m.name LEFT JOIN country co ON c.country = co.code AND m.age > 60 WHERE co.name IS NOT NULL",
	"SELECT co.continent, COUNT(*) FROM city c LEFT JOIN mayor m ON c.mayor = m.name JOIN country co ON c.country = co.code WHERE m.age > 50 GROUP BY co.continent",
}

// pushdownDB loads pushdownScript.
func pushdownDB(tb testing.TB) *DB {
	tb.Helper()
	db := New()
	if _, err := db.ExecScript(context.Background(), pushdownScript); err != nil {
		tb.Fatal(err)
	}
	return db
}

// pushdownArms runs one statement with predicate pushdown on and off.
// ok is false when the statement does not parse or either arm fails.
func pushdownArms(db *DB, sql string) (on, off []string, ok bool) {
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		return nil, nil, false
	}
	opts := optimizer.Defaults()
	with, err := db.query(sel, opts)
	if err != nil {
		return nil, nil, false
	}
	opts.PushdownPredicates = false
	without, err := db.query(sel, opts)
	if err != nil {
		return nil, nil, false
	}
	return multiset(with), multiset(without), true
}

// multiset renders a relation's rows in sorted order.
func multiset(rel *schema.Relation) []string {
	rows := make([]string, len(rel.Rows))
	for i, r := range rel.Rows {
		rows[i] = fmt.Sprint(r)
	}
	slices.Sort(rows)
	return rows
}

// TestPushdownPreservesResults: predicate pushdown only moves where a
// conjunct is evaluated, so every statement returns the same rows with
// it on and off. The ground truth runs the same optimizer, so this is
// the check that sees a conjunct moved across an outer join.
func TestPushdownPreservesResults(t *testing.T) {
	db := pushdownDB(t)
	for _, sql := range pushdownStatements {
		on, off, ok := pushdownArms(db, sql)
		if !ok {
			t.Fatalf("%s: does not run", sql)
		}
		if len(off) == 0 {
			t.Errorf("%s: no rows, so it checks nothing", sql)
		}
		if !slices.Equal(on, off) {
			t.Errorf("%s:\npushdown on  %v\npushdown off %v", sql, on, off)
		}
	}
}

// FuzzPushdownEquivalent is TestPushdownPreservesResults for any
// statement that runs under both settings. Statements with a LIMIT are
// skipped: which rows a LIMIT keeps may follow the plan's row order.
func FuzzPushdownEquivalent(f *testing.F) {
	for _, sql := range pushdownStatements {
		f.Add(sql)
	}
	db := pushdownDB(f)
	f.Fuzz(func(t *testing.T, sql string) {
		if sel, err := parser.ParseSelect(sql); err != nil || sel.Limit >= 0 {
			return
		}
		if on, off, ok := pushdownArms(db, sql); ok && !slices.Equal(on, off) {
			t.Fatalf("%s:\npushdown on  %v\npushdown off %v", sql, on, off)
		}
	})
}
