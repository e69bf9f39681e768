package bench

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/simllm"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// goldenPlanCases are the representative queries whose EXPLAIN output is
// snapshotted: every optimizer rewrite or cost-model change shows up as
// a reviewable diff under testdata/plans.
var goldenPlanCases = []struct {
	name      string
	sql       string
	costBased bool
	pushdown  bool
}{
	{name: "projection", sql: `SELECT name, capital FROM country`},
	{name: "selection-llm-filter", sql: `SELECT name FROM city WHERE population > 5000000`},
	{name: "selection-equality", sql: `SELECT name FROM country WHERE continent = 'Europe'`},
	{name: "selection-complex-pred", sql: `SELECT name FROM city WHERE population + 1 > 1000000`},
	{name: "aggregate-count", sql: `SELECT COUNT(*) FROM country`},
	{name: "aggregate-group-by", sql: `SELECT continent, COUNT(*) FROM country GROUP BY continent`},
	{name: "figure3-join", sql: `SELECT c.name, p.name FROM city c, mayor p WHERE c.mayor = p.name AND c.population > 1000000 AND p.age < 40`},
	{name: "hybrid-join", sql: `SELECT co.name, e.salary FROM LLM.country co, DB.employees e WHERE co.code = e.countryCode`},
	{name: "order-limit", sql: `SELECT name FROM mountain ORDER BY height DESC LIMIT 3`},
	{name: "distinct", sql: `SELECT DISTINCT country FROM city`},
	{name: "pushdown-merged", sql: `SELECT name FROM city WHERE population > 1000000`, pushdown: true},
	{name: "pushdown-key-pred-stays", sql: `SELECT population FROM city WHERE name = 'Tokyo'`, pushdown: true},
	{name: "costbased-proj-overlap", sql: `SELECT name, population, elevation FROM city WHERE population > 1000000 AND elevation > 500`, costBased: true},
	{name: "costbased-filter-order", sql: `SELECT name FROM country WHERE population > 10000000 AND continent = 'Europe'`, costBased: true},
	{name: "costbased-join", sql: `SELECT c.name, c.population, p.age FROM city c, mayor p WHERE c.mayor = p.name AND c.population > 1000000 AND p.age < 40`, costBased: true},
	{name: "costbased-explain-analyze-shape", sql: `SELECT name, gdp FROM country WHERE gdp > 500 AND continent = 'Europe'`, costBased: true},
}

// TestGoldenPlans snapshots EXPLAIN output (plans plus cost estimates
// against default statistics — no execution, so the text is a pure
// function of the optimizer and cost model). Refresh with:
//
//	go test ./internal/bench -run TestGoldenPlans -update
func TestGoldenPlans(t *testing.T) {
	r, err := NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for _, tc := range goldenPlanCases {
		t.Run(tc.name, func(t *testing.T) {
			opts := PaperOptions()
			opts.Optimizer.CostBased = tc.costBased
			opts.Optimizer.PromptPushdown = tc.pushdown
			rt, err := r.Runtime(r.Model(simllm.ChatGPT), opts)
			if err != nil {
				t.Fatal(err)
			}
			rel, _, err := rt.NewSession().Query(ctx, "EXPLAIN "+tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			b.WriteString("-- " + tc.sql + "\n")
			for _, row := range rel.Rows {
				b.WriteString(row[0].String())
				b.WriteByte('\n')
			}
			got := b.String()

			path := filepath.Join("testdata", "plans", tc.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("plan drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

// goldenRoutedCases snapshot EXPLAIN output under the multi-backend
// registry: each LLM operator's plan node carries the backend its
// prompts resolve to (route=...), and the plan summary prices prompts
// through the per-backend cost weights. The override case re-routes a
// role at session scope, on top of the same runtime.
var goldenRoutedCases = []struct {
	name string
	sql  string
	// overrides are session-level role->backend route overrides.
	overrides map[string]string
}{
	{name: "routed-selection", sql: `SELECT name FROM city WHERE population > 5000000`},
	{name: "routed-projection", sql: `SELECT name, capital FROM country`},
	{name: "routed-join", sql: `SELECT c.name, p.name FROM city c, mayor p WHERE c.mayor = p.name AND c.population > 1000000 AND p.age < 40`},
	{name: "routed-session-override", sql: `SELECT name FROM city WHERE population > 5000000`,
		overrides: map[string]string{"fetch": "cheap", "filter": "strong"}},
}

// TestGoldenRoutedPlans snapshots cost-based EXPLAIN output for routed
// queries on a cheap/strong registry (keyscan and filter routed to the
// cheap backend, strong the default): route annotations and weighted
// cost estimates are a pure function of the registry declaration, the
// routes and the statistics. Refresh with:
//
//	go test ./internal/bench -run TestGoldenRoutedPlans -update
func TestGoldenRoutedPlans(t *testing.T) {
	r, err := NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	opts := PaperOptions()
	opts.Optimizer.CostBased = true
	rt, err := r.routedRuntime(simllm.ChatGPT, nil, opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range goldenRoutedCases {
		t.Run(tc.name, func(t *testing.T) {
			sess := rt.NewSession()
			if len(tc.overrides) > 0 {
				o := sess.Options()
				o.Routes = tc.overrides
				sess.SetOptions(o)
			}
			rel, _, err := sess.Query(ctx, "EXPLAIN "+tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			b.WriteString("-- " + tc.sql + "\n")
			if len(tc.overrides) > 0 {
				keys := make([]string, 0, len(tc.overrides))
				for k := range tc.overrides {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					b.WriteString("-- override: " + k + "=" + tc.overrides[k] + "\n")
				}
			}
			for _, row := range rel.Rows {
				b.WriteString(row[0].String())
				b.WriteByte('\n')
			}
			got := b.String()
			if !strings.Contains(got, "route=") {
				t.Fatalf("EXPLAIN carries no route annotations:\n%s", got)
			}

			path := filepath.Join("testdata", "plans", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("plan drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

// goldenResidualCases snapshot EXPLAIN output for queries the semantic
// result cache answers by subsumption: a parent query warms the cache,
// then the child's cost-based EXPLAIN must pick the residual plan over a
// CachedScan (zero prompts beats any direct plan).
var goldenResidualCases = []struct {
	name   string
	parent string
	child  string
}{
	{
		name:   "residual-projection",
		parent: `SELECT name, continent FROM country`,
		child:  `SELECT name FROM country`,
	},
	{
		name:   "residual-filter-limit",
		parent: `SELECT name, continent FROM country`,
		child:  `SELECT name FROM country WHERE name != 'Atlantis' LIMIT 3`,
	},
	{
		name:   "residual-sort-distinct",
		parent: `SELECT name, continent FROM country`,
		child:  `SELECT DISTINCT continent FROM country ORDER BY continent`,
	},
	{
		name:   "residual-aggregate",
		parent: `SELECT name, population FROM city`,
		child:  `SELECT COUNT(*) FROM city`,
	},
}

// TestGoldenResidualPlans snapshots the residual-plan EXPLAIN shape:
// after the parent executes, the child's EXPLAIN shows the residual tree
// rooted over a cached(...) scan with the subsumption choice annotated.
// The parent runs for real (its prompts warm the cache), but the plans
// themselves are deterministic. Refresh with:
//
//	go test ./internal/bench -run TestGoldenResidualPlans -update
func TestGoldenResidualPlans(t *testing.T) {
	r, err := NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for _, tc := range goldenResidualCases {
		t.Run(tc.name, func(t *testing.T) {
			opts := PaperOptions()
			opts.Optimizer.CostBased = true
			opts.ResultCacheEnabled = true
			rt, err := r.Runtime(r.Model(simllm.ChatGPT), opts)
			if err != nil {
				t.Fatal(err)
			}
			sess := rt.NewSession()
			if _, _, err := sess.Query(ctx, tc.parent); err != nil {
				t.Fatal(err)
			}
			rel, _, err := sess.Query(ctx, "EXPLAIN "+tc.child)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			b.WriteString("-- warm: " + tc.parent + "\n")
			b.WriteString("-- " + tc.child + "\n")
			for _, row := range rel.Rows {
				b.WriteString(row[0].String())
				b.WriteByte('\n')
			}
			got := b.String()
			if !strings.Contains(got, "residual over cached(") {
				t.Fatalf("EXPLAIN did not choose the residual plan:\n%s", got)
			}

			path := filepath.Join("testdata", "plans", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("plan drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}
