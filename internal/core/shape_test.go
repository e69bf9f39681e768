package core

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/logical"
	"repro/internal/memdb"
	"repro/internal/optimizer"
	"repro/internal/spider"
	"repro/internal/sql/ast"
	"repro/internal/sql/lexer"
	"repro/internal/sql/parser"
	"repro/internal/world"
)

// shapeStatements are hand-written statements for the bind's corners: a
// mirrored comparison, ON and HAVING conjuncts, a negative and a
// string literal, a quote inside one, a repeated literal (no
// template), literals the bind must not touch (IN, BETWEEN, LIKE, CASE,
// a projection, HAVING over an aggregate), LIMIT and OFFSET, a nested
// ON predicate and DB-bound tables.
var shapeStatements = []string{
	`SELECT name FROM city WHERE 1000000 < population`,
	`SELECT name FROM city WHERE population > -5 AND elevation <= 10.5`,
	`SELECT c.name, m.age FROM city c JOIN mayor m ON c.mayor = m.name AND m.age > 40 WHERE c.population > 1000000`,
	`SELECT c.name, m.age FROM city c LEFT JOIN mayor m ON c.mayor = m.name AND m.age > 40`,
	`SELECT c.name FROM city c JOIN mayor m ON c.mayor = m.name AND (m.age > 40 AND m.election_year < 2020)`,
	`SELECT name FROM country WHERE continent = 'Europe' AND name != 'O''Brien'`,
	`SELECT name FROM city WHERE population > 5 AND elevation > 5`,
	`SELECT name FROM city WHERE population BETWEEN 1000 AND 5000000 AND elevation > 100`,
	`SELECT name FROM city WHERE country IN ('France', 'Japan') AND population > 1000`,
	`SELECT name FROM singer WHERE name LIKE 'A%' AND albums > 3`,
	`SELECT name, CASE WHEN population > 1000000 THEN 'big' ELSE 'small' END AS size FROM city WHERE elevation > 100`,
	`SELECT name, population * 2 FROM city WHERE population > 1000`,
	`SELECT continent, COUNT(*) FROM country WHERE population > 1000000 GROUP BY continent HAVING COUNT(*) > 3`,
	`SELECT name FROM city WHERE population > 1000 HAVING elevation < 500`,
	`SELECT DISTINCT country FROM city WHERE population > 1000 ORDER BY country DESC LIMIT 5 OFFSET 1`,
	`SELECT name FROM city WHERE population > 1000 LIMIT 3`,
	`SELECT name, population FROM DB.city WHERE population > 2000000`,
	`SELECT c.name, co.gdp FROM DB.city c, DB.country co WHERE c.country = co.name AND co.gdp > 1000`,
	`SELECT DISTINCT (population - population) * CASE WHEN population > 5000000 THEN -1.0 ELSE 1.0 END AS z FROM DB.city`,
	`select NAME from CITY where POPULATION > 100 and 'x' = 'x'`,
}

// literalRE matches a statement's string and number literals (and
// LIMIT/OFFSET counts, which freshLiterals keeps).
var literalRE = regexp.MustCompile(`(?i)(?:LIMIT|OFFSET)\s+\d+|'(?:[^']|'')*'|\b\d+\.\d+\b|\b\d+\b`)

// freshLiterals returns sql with every string and number literal, but a
// LIMIT or OFFSET count, replaced by another of its kind.
func freshLiterals(sql string, rng *rand.Rand) string {
	strs := []string{"'Europe'", "'europe'", "'Asia'", "'France'", "'O''Brien'", "''", "'Pop'"}
	return literalRE.ReplaceAllStringFunc(sql, func(lit string) string {
		switch {
		case lit[0] == '\'':
			return strs[rng.Intn(len(strs))]
		case lit[0] < '0' || lit[0] > '9':
			return lit
		case strings.Contains(lit, "."):
			return fmt.Sprintf("%.2f", rng.Float64()*5000)
		}
		return fmt.Sprint([]int{0, 1, 5, 40, 1000, 5000000}[rng.Intn(6)] + rng.Intn(3))
	})
}

// shapeCorpus returns the statements the shape oracle binds: the
// corpus, difftest's seeds 1–4, its ad-hoc templates and the corners.
func shapeCorpus() []string {
	var out []string
	for _, q := range spider.Queries() {
		out = append(out, q.SQL)
	}
	for seed := int64(1); seed <= 4; seed++ {
		gen := difftest.New(seed)
		for i := 0; i < 40; i++ {
			out = append(out, gen.Query().SQL, gen.Adhoc().SQL)
		}
	}
	return append(out, shapeStatements...)
}

// oracleRuntime is a serving runtime with every world table bound to the
// LLM and loaded into an attached DB.
func oracleRuntime(t testing.TB) *Runtime {
	t.Helper()
	rt, w := serveRuntime(t, ServeOptions())
	db := memdb.New()
	for _, name := range llmTableNames {
		if err := db.LoadRelation(w.Table(name).Def, w.Relation(name)); err != nil {
			t.Fatal(err)
		}
	}
	rt.AttachDB(db)
	return rt
}

// prepared parses and prepares sql as a shape-memo miss does, returning
// the query, its shape and its literals.
func prepared(t testing.TB, s *Session, sql string) (*query, string, []lexer.Literal, []*ast.Literal) {
	t.Helper()
	shape, lits, err := lexer.Shape(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	stmt, plits, err := parser.ParseLiterals(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	q, err := s.prepare(stmt.(*ast.Select))
	if err != nil {
		return nil, shape, lits, plits
	}
	return q, shape, lits, plits
}

// describeQuery renders everything a query carries into planning and
// the result cache: the built plan, the fingerprint, the components, the
// Shape, the template's key and slots, and the canonical form's slots
// with the fingerprint's text at each one's span.
func describeQuery(q *query) string {
	var b strings.Builder
	fmt.Fprintf(&b, "built:\n%sfingerprint: %s\ncomponents: %q\n", logical.Explain(q.built), q.canon.Fingerprint, q.canon.Components)
	if sh := q.canon.Shape; sh != nil {
		fmt.Fprintf(&b, "shape: from=%q key=%q label=%q producer=%t\n", logical.Explain(sh.From), sh.FromKey, sh.FromLabel, sh.Producer)
		for i, c := range sh.Conjuncts {
			fmt.Fprintf(&b, "conjunct %d: %q expr %s key %q\n", i, c.Text, c.Expr, c.Key)
		}
		for _, n := range sh.Upper {
			fmt.Fprintf(&b, "upper: %s\n", n.Describe())
		}
	}
	if q.tpl != nil {
		fmt.Fprintf(&b, "template: %q\n", q.tpl.Key())
		for _, c := range templateSlots(q.tpl, q.built) {
			fmt.Fprintf(&b, "slot: %q %q\n", c.LitText, c.Key)
		}
	}
	for _, s := range q.canon.Slots {
		fmt.Fprintf(&b, "canonical slot: %q %q %q\n", s.LitText, s.Key, q.canon.Fingerprint[s.Start:s.End])
	}
	return b.String()
}

// templateSlots returns the template's slots as a bind reads them.
func templateSlots(tpl *optimizer.Template, built logical.Node) []logical.Conjunct {
	var out []logical.Conjunct
	logical.Walk(built, func(n logical.Node) bool {
		var cs []logical.Conjunct
		switch node := n.(type) {
		case *logical.Filter:
			cs = node.Conjuncts()
		case *logical.Join:
			cs = node.Conjuncts()
		}
		for _, c := range cs {
			if c.Col != nil {
				out = append(out, c)
			}
		}
		return true
	})
	return out
}

// TestShapeBindMatchesParse is the shape memo's front-end oracle: for
// every statement of the corpus, of difftest's seeds 1–4 and of its
// ad-hoc templates, and for the corners, a statement of the same shape
// with fresh literals, bound from the first one's entry, carries what
// the parser's path gives it — built plan, fingerprint, components,
// Shape, template key and slots — or is refused by a literal the bind
// does not touch.
func TestShapeBindMatchesParse(t *testing.T) {
	rt := oracleRuntime(t)
	s := rt.NewSession()
	rng := rand.New(rand.NewSource(1))
	bound := 0
	for _, sql := range shapeCorpus() {
		q, shape, lits, plits := prepared(t, s, sql)
		if q == nil {
			continue
		}
		e := newShapeEntry(q, lits, plits)
		if e == nil {
			t.Errorf("%s: not memoized", sql)
			continue
		}
		for i := 0; i < 4; i++ {
			fresh := freshLiterals(sql, rng)
			want, shape2, lits2, _ := prepared(t, s, fresh)
			if shape2 != shape {
				t.Fatalf("%s and %s: shapes differ", sql, fresh)
			}
			got := s.bind(e, lits2)
			if got == nil {
				if !fixedDiffers(e, lits2) {
					t.Errorf("%s: not bound from %s", fresh, sql)
				}
				continue
			}
			if want == nil {
				t.Errorf("%s: bound, but the parser's path fails", fresh)
				continue
			}
			bound++
			if g, w := describeQuery(got), describeQuery(want); g != w {
				t.Errorf("%s bound from %s:\n%s\nparsed:\n%s", fresh, sql, g, w)
			}
		}
	}
	t.Logf("%d statements bound", bound)
	if bound < 500 {
		t.Errorf("only %d statements were bound", bound)
	}
}

// fixedDiffers reports whether a literal e does not bind differs in lits.
func fixedDiffers(e *shapeEntry, lits []lexer.Literal) bool {
	for k, l := range lits {
		if !e.slot[k] && l != e.lits[k] {
			return true
		}
	}
	return false
}

// TestShapeBindOutOfRange: a literal the parser rejects fails the
// statement with the parser's error, shape memo or not.
func TestShapeBindOutOfRange(t *testing.T) {
	rt := oracleRuntime(t)
	s := rt.NewSession()
	ctx := context.Background()
	if _, _, err := s.Query(ctx, `SELECT name FROM city WHERE population > 5`); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`SELECT name FROM city WHERE population > 9223372036854775808`,
		`SELECT name FROM city WHERE population > -9223372036854775809`,
		`SELECT name FROM city WHERE population > 1e999`,
	} {
		_, want := parser.Parse(sql)
		_, _, err := s.Query(ctx, sql)
		if err == nil || want == nil || !strings.HasSuffix(err.Error(), want.Error()) {
			t.Errorf("%s: err = %v, want the parser's %v", sql, err, want)
		}
	}
}

// TestShapeBindMatchesPlanning is the oracle end to end: two runtimes run
// each statement and then two of its shape with fresh literals — one
// runtime binding through the shape memo (which a shape enters on its
// second sight) and the plan cache, the other parsing, building and
// enumerating afresh — and must execute the same plan with the same
// estimates and actuals, and return the same relation.
func TestShapeBindMatchesPlanning(t *testing.T) {
	bind, fresh := oracleRuntime(t), oracleRuntime(t)
	fresh.shapes, fresh.plans = nil, nil
	ctx := context.Background()
	run := func(rt *Runtime, sql string) string {
		st, err := rt.NewSession().QueryStream(ctx, sql)
		if err != nil {
			return "error: " + err.Error()
		}
		defer st.Close()
		rel, rep, err := st.drain()
		if err != nil {
			return "error: " + err.Error()
		}
		plan := rep.Plan
		if st.plan != nil {
			plan = ExplainText(st.plan, st.cost, st.metrics, rep.Stats, true)
		}
		return fmt.Sprintf("cached=%q\n%s\n%s", rep.Cached, plan, rel.String())
	}
	rng := rand.New(rand.NewSource(2))
	hits := bind.Stats().PlanCache.Hits
	for _, sql := range shapeCorpus() {
		for _, q := range []string{sql, freshLiterals(sql, rng), freshLiterals(sql, rng)} {
			if g, w := run(bind, q), run(fresh, q); g != w {
				t.Fatalf("%s: bound:\n%s\nfresh:\n%s", q, g, w)
			}
		}
	}
	n := bind.Stats().PlanCache.Hits - hits
	t.Logf("%d plan-cache hits", n)
	if n < 100 {
		t.Errorf("only %d plan-cache hits", n)
	}
}

// TestNegativeZeroGroups: −0 and 0 are one value to DISTINCT and GROUP
// BY, as they are to =.
func TestNegativeZeroGroups(t *testing.T) {
	rt := oracleRuntime(t)
	ctx := context.Background()
	const z = `(population - population) * CASE WHEN population > 5000000 THEN -1.0 ELSE 1.0 END`
	rel, _, err := rt.NewSession().Query(ctx, `SELECT DISTINCT `+z+` AS z FROM DB.city`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 1 {
		t.Errorf("DISTINCT over −0 and 0 returned %d rows, want 1:\n%s", rel.Cardinality(), rel.String())
	}
	rel, _, err = rt.NewSession().Query(ctx, `SELECT `+z+` AS z, COUNT(*) FROM DB.city GROUP BY `+z)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 1 || rel.Rows[0][1].String() != fmt.Sprint(len(world.Build().Relation("city").Rows)) {
		t.Errorf("GROUP BY over −0 and 0 returned:\n%s\nwant one group of every city", rel.String())
	}
}
