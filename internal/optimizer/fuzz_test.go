package optimizer

import (
	"testing"

	"repro/internal/logical"
	"repro/internal/sql/parser"
)

// FuzzOptimizePure: for any statement that builds, optimizing under the
// paper defaults, with prompt pushdown and with a join swap leaves the
// built plan's fingerprint as it was, returns the same plan when run
// twice on it, and uses every node of that plan once.
func FuzzOptimizePure(f *testing.F) {
	for _, sql := range []string{
		"SELECT name FROM city WHERE population > 1000000 AND country = 'Italy'",
		"SELECT c.name, p.age FROM city c, mayor p WHERE c.mayor = p.name AND c.population > 1000000",
		"SELECT c.name FROM city c JOIN mayor m ON c.mayor = m.name WHERE m.age < 40 ORDER BY m.age DESC LIMIT 3",
		"SELECT country, COUNT(*) FROM city WHERE population > 5 GROUP BY country HAVING COUNT(*) > 2",
		"SELECT DISTINCT e.countryCode FROM employees e, city c WHERE e.countryCode = c.country AND e.salary > 1.5",
		"SELECT c.name FROM city c LEFT JOIN mayor m ON c.mayor = m.name AND m.age > 30",
	} {
		f.Add(sql)
	}
	pushdown := Defaults()
	pushdown.PromptPushdown = true
	configs := []struct {
		opts Options
		c    choice
	}{{opts: Defaults()}, {opts: pushdown}, {opts: Defaults(), c: choice{swap: map[int]bool{0: true}}}}
	f.Fuzz(func(t *testing.T, sql string) {
		sel, err := parser.ParseSelect(sql)
		if err != nil {
			return
		}
		built, err := logical.Build(sel, resolver{})
		if err != nil {
			return
		}
		fp := logical.Fingerprint(built)
		for _, cfg := range configs {
			first, err := optimizeWith(built, cfg.opts, cfg.c, nil)
			if got := logical.Fingerprint(built); got != fp {
				t.Fatalf("%s: Optimize changed the built plan\nbefore %s\nafter  %s", sql, fp, got)
			}
			if err != nil {
				continue
			}
			second, err := optimizeWith(built, cfg.opts, cfg.c, nil)
			if err != nil {
				t.Fatalf("%s: second Optimize failed: %v", sql, err)
			}
			if a, b := logical.Explain(first), logical.Explain(second); a != b {
				t.Fatalf("%s: two optimizations differ\n%s\n%s", sql, a, b)
			}
			seen := map[logical.Node]bool{}
			logical.Walk(first, func(n logical.Node) bool {
				if seen[n] {
					t.Fatalf("%s: %q appears twice in\n%s", sql, n.Describe(), logical.Explain(first))
				}
				seen[n] = true
				return true
			})
		}
	})
}
