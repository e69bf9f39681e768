// Package difftest generates seeded random SQL queries over the
// simulated world for differential testing: the same query is executed
// under the stop-and-go and the streaming execution policies, and the
// results must be identical — plus, on LIMIT-free plans, the prompt
// counts must match exactly. The generator mirrors the sqllogictest-style
// randomized harnesses production query engines lean on: cheap to run by
// the hundreds, seeded for reproducibility, and shaped to hit every
// operator the engine implements (projections, LLM filters, joins,
// DISTINCT, ORDER BY, LIMIT/OFFSET, aggregates).
package difftest

import (
	"fmt"
	"math/rand"
	"strings"
)

// Query is one generated test case.
type Query struct {
	SQL string
	// HasLimit marks plans whose streaming execution may legitimately
	// issue fewer prompts (early termination), so prompt counts are not
	// comparable across policies.
	HasLimit bool
}

// Generator produces random queries from a seeded source. Not safe for
// concurrent use.
type Generator struct {
	rnd *rand.Rand
}

// New returns a generator with the given seed; the query sequence is a
// pure function of it.
func New(seed int64) *Generator {
	return &Generator{rnd: rand.New(rand.NewSource(seed))}
}

// attr describes one column of the generation schema with literals that
// produce non-trivial selectivities against the synthetic world.
type attr struct {
	name    string
	numeric bool
	lits    []string
}

// table mirrors the LLM-bound relations of the benchmark world (see
// internal/world): names, key columns and plausible predicate literals.
type table struct {
	name  string
	key   string
	attrs []attr
}

var tables = []table{
	{name: "city", key: "name", attrs: []attr{
		{name: "population", numeric: true, lits: []string{"500000", "1000000", "5000000"}},
		{name: "elevation", numeric: true, lits: []string{"100", "500", "1000"}},
		{name: "founded_year", numeric: true, lits: []string{"1000", "1500", "1800"}},
		{name: "country", lits: []string{"'France'", "'Japan'", "'USA'"}},
	}},
	{name: "country", key: "name", attrs: []attr{
		{name: "population", numeric: true, lits: []string{"10000000", "50000000", "100000000"}},
		{name: "area", numeric: true, lits: []string{"100000", "500000"}},
		{name: "gdp", numeric: true, lits: []string{"500", "1000", "2000"}},
		{name: "continent", lits: []string{"'Europe'", "'Asia'", "'Africa'"}},
		{name: "independence_year", numeric: true, lits: []string{"1800", "1900", "1950"}},
	}},
	{name: "mayor", key: "name", attrs: []attr{
		{name: "age", numeric: true, lits: []string{"40", "50", "60"}},
		{name: "election_year", numeric: true, lits: []string{"2018", "2019", "2020"}},
		{name: "party", lits: []string{"'Independent'", "'Labour'"}},
	}},
	{name: "airport", key: "iata", attrs: []attr{
		{name: "passengers", numeric: true, lits: []string{"20", "50", "80"}},
		{name: "runways", numeric: true, lits: []string{"2", "3", "4"}},
		{name: "city", lits: []string{"'London'", "'Tokyo'"}},
	}},
	{name: "singer", key: "name", attrs: []attr{
		{name: "birth_year", numeric: true, lits: []string{"1960", "1980", "1990"}},
		{name: "genre", lits: []string{"'Pop'", "'Rock'"}},
		{name: "albums", numeric: true, lits: []string{"5", "10", "15"}},
	}},
	{name: "stadium", key: "name", attrs: []attr{
		{name: "capacity", numeric: true, lits: []string{"40000", "60000", "80000"}},
		{name: "opened_year", numeric: true, lits: []string{"1950", "1990", "2000"}},
	}},
	{name: "mountain", key: "name", attrs: []attr{
		{name: "height", numeric: true, lits: []string{"3000", "5000", "8000"}},
		{name: "mountain_range", lits: []string{"'Himalayas'", "'Andes'"}},
	}},
}

// joinEdge is one foreign-key-style reference the world maintains.
type joinEdge struct {
	left, leftAttr string // left.leftAttr references right's key
	right          string
}

var joinEdges = []joinEdge{
	{"city", "country", "country"},
	{"city", "mayor", "mayor"},
	{"mayor", "city", "city"},
	{"airport", "city", "city"},
	{"airport", "country", "country"},
	{"singer", "country", "country"},
	{"stadium", "city", "city"},
	{"mountain", "country", "country"},
}

func tableByName(name string) table {
	for _, t := range tables {
		if t.name == name {
			return t
		}
	}
	panic("difftest: unknown table " + name)
}

func (g *Generator) pick(n int) int { return g.rnd.Intn(n) }

func (g *Generator) predicate(alias string, t table) string {
	a := t.attrs[g.pick(len(t.attrs))]
	var op string
	if a.numeric {
		op = []string{"<", "<=", ">", ">=", "=", "!="}[g.pick(6)]
	} else {
		op = []string{"=", "!="}[g.pick(2)]
	}
	lit := a.lits[g.pick(len(a.lits))]
	col := a.name
	if alias != "" {
		col = alias + "." + a.name
	}
	return fmt.Sprintf("%s %s %s", col, op, lit)
}

// Query generates the next random query.
func (g *Generator) Query() Query {
	switch g.pick(10) {
	case 0, 1, 2, 3, 4:
		return g.singleTable()
	case 5, 6:
		return g.aggregate()
	default:
		return g.join()
	}
}

func (g *Generator) singleTable() Query {
	t := tables[g.pick(len(tables))]
	cols := []string{t.key}
	for _, a := range t.attrs {
		if g.pick(3) == 0 {
			cols = append(cols, a.name)
		}
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	distinct := g.pick(5) == 0
	if distinct {
		b.WriteString("DISTINCT ")
	}
	b.WriteString(strings.Join(cols, ", "))
	b.WriteString(" FROM ")
	b.WriteString(t.name)
	preds := g.pick(3)
	for i := 0; i < preds; i++ {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		b.WriteString(g.predicate("", t))
	}
	if g.pick(3) == 0 {
		b.WriteString(" ORDER BY " + cols[g.pick(len(cols))])
		if g.pick(2) == 0 {
			b.WriteString(" DESC")
		}
	}
	q := Query{}
	if g.pick(4) == 0 {
		fmt.Fprintf(&b, " LIMIT %d", 1+g.pick(8))
		if g.pick(3) == 0 {
			fmt.Fprintf(&b, " OFFSET %d", g.pick(4))
		}
		q.HasLimit = true
	}
	q.SQL = b.String()
	return q
}

func (g *Generator) aggregate() Query {
	t := tables[g.pick(len(tables))]
	var numeric []attr
	for _, a := range t.attrs {
		if a.numeric {
			numeric = append(numeric, a)
		}
	}
	var b strings.Builder
	if g.pick(3) == 0 || len(numeric) == 0 {
		// Group-by over a (possibly categorical) attribute.
		a := t.attrs[g.pick(len(t.attrs))]
		fmt.Fprintf(&b, "SELECT %s, COUNT(*) FROM %s", a.name, t.name)
		if g.pick(2) == 0 {
			b.WriteString(" WHERE " + g.predicate("", t))
		}
		fmt.Fprintf(&b, " GROUP BY %s", a.name)
	} else {
		agg := []string{"COUNT", "SUM", "AVG", "MIN", "MAX"}[g.pick(5)]
		arg := "*"
		if agg != "COUNT" {
			arg = numeric[g.pick(len(numeric))].name
		}
		fmt.Fprintf(&b, "SELECT %s(%s) FROM %s", agg, arg, t.name)
		if g.pick(2) == 0 {
			b.WriteString(" WHERE " + g.predicate("", t))
		}
	}
	return Query{SQL: b.String()}
}

func (g *Generator) join() Query {
	e := joinEdges[g.pick(len(joinEdges))]
	l, r := tableByName(e.left), tableByName(e.right)
	var b strings.Builder
	cols := []string{"a." + l.key, "b." + r.key}
	if g.pick(2) == 0 {
		cols = append(cols, "b."+r.attrs[g.pick(len(r.attrs))].name)
	}
	fmt.Fprintf(&b, "SELECT %s FROM %s a, %s b WHERE a.%s = b.%s",
		strings.Join(cols, ", "), l.name, r.name, e.leftAttr, r.key)
	if g.pick(2) == 0 {
		b.WriteString(" AND " + g.predicate("a", l))
	}
	if g.pick(3) == 0 {
		b.WriteString(" AND " + g.predicate("b", r))
	}
	q := Query{}
	if g.pick(5) == 0 {
		fmt.Fprintf(&b, " LIMIT %d", 1+g.pick(5))
		q.HasLimit = true
	}
	q.SQL = b.String()
	return q
}

// Adhoc generates one statement in the style of ad-hoc serving traffic:
// one of a fixed set of templates per table — a selection of the key, a
// selection of the key and the filtered attribute, a filtered group-by
// aggregate, a two-predicate selection, a two-table join — with fresh
// numeric thresholds. The templates repeat while the statement text
// almost never does, which is what a planner caching by template sees.
func (g *Generator) Adhoc() Query {
	t := tables[g.pick(len(tables))]
	var nums []int
	group := ""
	for i, a := range t.attrs {
		if a.numeric {
			nums = append(nums, i)
		} else if group == "" {
			group = a.name
		}
	}
	i := nums[g.pick(len(nums))]
	a := t.attrs[i]
	pred := func(alias string, i int) string {
		op := ">"
		if i%2 == 1 {
			op = "<"
		}
		return fmt.Sprintf("%s%s %s %s", alias, t.attrs[i].name, op, g.threshold(t.attrs[i]))
	}
	switch g.pick(5) {
	case 0:
		return Query{SQL: fmt.Sprintf("SELECT %s FROM %s WHERE %s", t.key, t.name, pred("", i))}
	case 1:
		return Query{SQL: fmt.Sprintf("SELECT %s, %s FROM %s WHERE %s", t.key, a.name, t.name, pred("", i))}
	case 2:
		if group != "" {
			return Query{SQL: fmt.Sprintf("SELECT %s, COUNT(*) FROM %s WHERE %s GROUP BY %s", group, t.name, pred("", i), group)}
		}
		return Query{SQL: fmt.Sprintf("SELECT AVG(%s) FROM %s WHERE %s", a.name, t.name, pred("", i))}
	case 3:
		j := nums[g.pick(len(nums))]
		if j == i {
			return Query{SQL: fmt.Sprintf("SELECT %s FROM %s WHERE %s", t.key, t.name, pred("", i))}
		}
		return Query{SQL: fmt.Sprintf("SELECT %s, %s FROM %s WHERE %s AND %s", t.key, a.name, t.name, pred("", i), pred("", j))}
	default:
		e := joinEdges[g.pick(len(joinEdges))]
		l := tableByName(e.left)
		t = tableByName(e.right)
		for i = 0; !t.attrs[i].numeric; i++ {
		}
		return Query{SQL: fmt.Sprintf("SELECT a.%s, b.%s FROM %s a, %s b WHERE a.%s = b.%s AND %s",
			l.key, t.attrs[i].name, l.name, t.name, e.leftAttr, t.key, pred("b.", i))}
	}
}

// threshold draws a fresh literal for a numeric attribute: one of its
// reference literals scaled by a random factor in [0.25, 1.75).
func (g *Generator) threshold(a attr) string {
	var base float64
	fmt.Sscan(a.lits[g.pick(len(a.lits))], &base)
	return fmt.Sprintf("%.2f", base*(0.25+1.5*g.rnd.Float64()))
}

// SubsumptionPair is one parent/child case for the semantic result
// cache: the child's plan is subsumed by the parent's, so a warm cache
// must answer the child with a residual plan and zero prompts — and the
// relation must be bit-identical to executing the child directly.
type SubsumptionPair struct {
	Parent string
	Child  string
}

// Pair generates a parent shaped like a cache producer — a pure
// project-filter over one table, projecting the key plus a random
// attribute subset — and a child the parent's plan subsumes: the same
// FROM and conjuncts (possibly plus an extra key-column predicate, the
// only predicate class residual plans may evaluate locally; non-key LLM
// attributes are judged by boolean prompts and never re-evaluated), a
// column subset, and optionally DISTINCT, ORDER BY, LIMIT/OFFSET or an
// aggregate on top.
func (g *Generator) Pair() SubsumptionPair {
	t := tables[g.pick(len(tables))]
	cols := []string{t.key}
	for _, a := range t.attrs {
		if g.pick(2) == 0 {
			cols = append(cols, a.name)
		}
	}
	if len(cols) == 1 {
		cols = append(cols, t.attrs[g.pick(len(t.attrs))].name)
	}
	var preds []string
	for n := g.pick(3); len(preds) < n; {
		preds = append(preds, g.predicate("", t))
	}
	parent := "SELECT " + strings.Join(cols, ", ") + " FROM " + t.name
	if len(preds) > 0 {
		parent += " WHERE " + strings.Join(preds, " AND ")
	}

	// Child columns: always keep the key (the residual key predicate and
	// ORDER BY resolve against it), drop the rest at random.
	childCols := []string{t.key}
	for _, c := range cols[1:] {
		if g.pick(2) == 0 {
			childCols = append(childCols, c)
		}
	}
	childPreds := append([]string(nil), preds...)
	if g.pick(2) == 0 {
		op := []string{"!=", "<", ">", ">="}[g.pick(4)]
		lit := []string{"'Aa'", "'M'", "'T'"}[g.pick(3)]
		childPreds = append(childPreds, fmt.Sprintf("%s %s %s", t.key, op, lit))
	}
	where := ""
	if len(childPreds) > 0 {
		where = " WHERE " + strings.Join(childPreds, " AND ")
	}

	var b strings.Builder
	if g.pick(4) == 0 {
		// Aggregate child over the cached relation.
		b.WriteString("SELECT COUNT(*) FROM " + t.name + where)
		return SubsumptionPair{Parent: parent, Child: b.String()}
	}
	b.WriteString("SELECT ")
	if g.pick(4) == 0 {
		b.WriteString("DISTINCT ")
	}
	b.WriteString(strings.Join(childCols, ", "))
	b.WriteString(" FROM " + t.name + where)
	if g.pick(2) == 0 {
		b.WriteString(" ORDER BY " + childCols[g.pick(len(childCols))])
		if g.pick(2) == 0 {
			b.WriteString(" DESC")
		}
	}
	if g.pick(3) == 0 {
		fmt.Fprintf(&b, " LIMIT %d", 1+g.pick(8))
		if g.pick(3) == 0 {
			fmt.Fprintf(&b, " OFFSET %d", g.pick(4))
		}
	}
	return SubsumptionPair{Parent: parent, Child: b.String()}
}
