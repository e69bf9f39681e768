package optimizer

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/llm"
	"repro/internal/logical"
	"repro/internal/schema"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
	"repro/internal/value"
)

type resolver struct{}

func tableDef(name, key string, cols ...schema.Column) *schema.TableDef {
	return &schema.TableDef{Name: name, KeyColumn: key, Schema: schema.New(cols...)}
}

func (resolver) ResolveTable(name, explicit string) (*schema.TableDef, string, error) {
	switch strings.ToLower(name) {
	case "city":
		return tableDef("city", "name",
			schema.Column{Name: "name", Type: value.KindString},
			schema.Column{Name: "country", Type: value.KindString},
			schema.Column{Name: "mayor", Type: value.KindString},
			schema.Column{Name: "population", Type: value.KindInt},
		), "LLM", nil
	case "mayor":
		return tableDef("mayor", "name",
			schema.Column{Name: "name", Type: value.KindString},
			schema.Column{Name: "age", Type: value.KindInt},
		), "LLM", nil
	case "employees":
		return tableDef("employees", "id",
			schema.Column{Name: "id", Type: value.KindInt},
			schema.Column{Name: "countryCode", Type: value.KindString},
			schema.Column{Name: "salary", Type: value.KindFloat},
		), "DB", nil
	}
	return nil, "", fmt.Errorf("no table %s", name)
}

func build(t *testing.T, sql string) logical.Node {
	t.Helper()
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := logical.Build(sel, resolver{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func optimize(t *testing.T, sql string, opts Options) logical.Node {
	t.Helper()
	out, err := Optimize(build(t, sql), opts)
	if err != nil {
		t.Fatalf("Optimize(%q): %v", sql, err)
	}
	return out
}

func TestSplitConjuncts(t *testing.T) {
	sel, _ := parser.ParseSelect("SELECT x FROM t WHERE a = 1 AND b = 2 AND (c = 3 OR d = 4)")
	cs := SplitConjuncts(sel.Where)
	if len(cs) != 3 {
		t.Fatalf("conjuncts = %d: %v", len(cs), cs)
	}
	if _, ok := cs[2].(*ast.Binary); !ok {
		t.Error("OR stays one conjunct")
	}
}

func TestCrossBecomesEquiJoin(t *testing.T) {
	plan := optimize(t, "SELECT c.name, p.age FROM city c, mayor p WHERE c.mayor = p.name", Defaults())
	explain := logical.Explain(plan)
	if !strings.Contains(explain, "Join ON c.mayor = p.name") {
		t.Errorf("equality should become the join condition:\n%s", explain)
	}
	if strings.Contains(explain, "CrossJoin") {
		t.Errorf("cross join should have been upgraded:\n%s", explain)
	}
}

func TestPredicatePushdownToSides(t *testing.T) {
	plan := optimize(t, "SELECT c.name, e.salary FROM city c, employees e WHERE c.country = e.countryCode AND e.salary > 100", Defaults())
	explain := logical.Explain(plan)
	// salary filter must sit below the join, on the employees side.
	joinLine, filterLine := -1, -1
	for i, line := range strings.Split(explain, "\n") {
		if strings.Contains(line, "Join ON") {
			joinLine = i
		}
		if strings.Contains(line, "Filter e.salary > 100") {
			filterLine = i
		}
	}
	if joinLine < 0 || filterLine < 0 || filterLine < joinLine {
		t.Errorf("salary filter not pushed below join:\n%s", explain)
	}
}

func TestLLMFilterInjection(t *testing.T) {
	plan := optimize(t, "SELECT name FROM city WHERE population > 1000000", Defaults())
	explain := logical.Explain(plan)
	if !strings.Contains(explain, "LLMFilter city.population > 1000000") &&
		!strings.Contains(explain, "LLMFilter population > 1000000") {
		t.Errorf("selection should lower to a boolean-prompt filter:\n%s", explain)
	}
	if strings.Contains(explain, "LLMFetchAttr") {
		t.Errorf("LLMFilter avoids fetching the attribute:\n%s", explain)
	}
}

func TestFetchAttrInjectionForProjection(t *testing.T) {
	plan := optimize(t, "SELECT name, population FROM city", Defaults())
	explain := logical.Explain(plan)
	if !strings.Contains(explain, "LLMFetchAttr") {
		t.Errorf("projected non-key attribute must be fetched:\n%s", explain)
	}
}

func TestFetchAttrForJoinKeys(t *testing.T) {
	plan := optimize(t, "SELECT c.name FROM city c, mayor p WHERE c.mayor = p.name", Defaults())
	explain := logical.Explain(plan)
	if !strings.Contains(explain, "LLMFetchAttr c.mayor") {
		t.Errorf("join attribute must be fetched before the join:\n%s", explain)
	}
}

func TestFetchThenFilterWhenLLMFilterDisabled(t *testing.T) {
	opts := Defaults()
	opts.DisableLLMFilter = map[string]bool{"population > 1000000": true}
	plan := optimize(t, "SELECT name FROM city WHERE population > 1000000", opts)
	explain := logical.Explain(plan)
	if strings.Contains(explain, "LLMFilter") {
		t.Errorf("LLMFilter disabled but present:\n%s", explain)
	}
	if !strings.Contains(explain, "LLMFetchAttr") || !strings.Contains(explain, "Filter ") {
		t.Errorf("should fall back to fetch+filter:\n%s", explain)
	}
}

func TestPromptPushdown(t *testing.T) {
	opts := Defaults()
	opts.PromptPushdown = true
	plan := optimize(t, "SELECT name FROM city WHERE population > 1000000", opts)
	explain := logical.Explain(plan)
	if !strings.Contains(explain, "[pushed:") {
		t.Errorf("selection should merge into the scan prompt:\n%s", explain)
	}
	if strings.Contains(explain, "LLMFilter") {
		t.Errorf("no residual per-key filter expected:\n%s", explain)
	}
}

// TestFigure3Plan pins the lowered plan shape for the paper's q'.
func TestFigure3Plan(t *testing.T) {
	plan := optimize(t, "SELECT c.name, p.name FROM city c, mayor p WHERE c.mayor = p.name AND c.population > 1000000 AND p.age < 40", Defaults())
	got := logical.Explain(plan)
	want := `Project c.name, p.name
  Join ON c.mayor = p.name
    LLMFetchAttr c.mayor (per key c.name)
      LLMFilter c.population > 1000000 (per key c.name)
        LLMKeyScan city AS c (key=name)
    LLMFilter p.age < 40 (per key p.name)
      LLMKeyScan mayor AS p (key=name)
`
	if got != want {
		t.Errorf("Figure 3 plan drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestNonSimplePredicateStaysTraditional(t *testing.T) {
	// population + 1 > 2 is not a column-op-literal form.
	plan := optimize(t, "SELECT name FROM city WHERE population + 1 > 1000000", Defaults())
	explain := logical.Explain(plan)
	if strings.Contains(explain, "LLMFilter") {
		t.Errorf("complex predicate must not become a boolean prompt:\n%s", explain)
	}
	if !strings.Contains(explain, "LLMFetchAttr") {
		t.Errorf("complex predicate needs the attribute fetched:\n%s", explain)
	}
}

func TestMirroredLiteralComparison(t *testing.T) {
	plan := optimize(t, "SELECT name FROM city WHERE 1000000 < population", Defaults())
	explain := logical.Explain(plan)
	if !strings.Contains(explain, "LLMFilter") {
		t.Errorf("mirrored comparison should still lower:\n%s", explain)
	}
	if !strings.Contains(explain, "population > 1000000") {
		t.Errorf("mirrored op should normalize:\n%s", explain)
	}
}

func TestPushdownDisabled(t *testing.T) {
	opts := Defaults()
	opts.PushdownPredicates = false
	plan := optimize(t, "SELECT c.name FROM city c, mayor p WHERE c.mayor = p.name", opts)
	explain := logical.Explain(plan)
	if !strings.Contains(explain, "CrossJoin") {
		t.Errorf("without pushdown the cross join stays:\n%s", explain)
	}
}

func TestDBOnlyPlanUntouchedByLowering(t *testing.T) {
	plan := optimize(t, "SELECT id FROM employees WHERE salary > 100", Defaults())
	explain := logical.Explain(plan)
	if strings.Contains(explain, "LLM") {
		t.Errorf("DB plan must not grow LLM operators:\n%s", explain)
	}
}

func TestPushdownThroughSortLimitDistinct(t *testing.T) {
	// Pushdown must traverse (rebuild) unary nodes above the join without
	// disturbing them.
	plan := optimize(t, "SELECT DISTINCT c.name FROM city c, mayor p WHERE c.mayor = p.name ORDER BY c.name LIMIT 3", Defaults())
	explain := logical.Explain(plan)
	for _, want := range []string{"Distinct", "Sort", "Limit 3", "Join ON"} {
		if !strings.Contains(explain, want) {
			t.Errorf("missing %q after optimization:\n%s", want, explain)
		}
	}
}

func TestPromptPushdownMultipleConditions(t *testing.T) {
	opts := Defaults()
	opts.PromptPushdown = true
	plan := optimize(t, "SELECT name FROM city WHERE population > 1000000 AND country = 'Italy'", opts)
	explain := logical.Explain(plan)
	if !strings.Contains(explain, "AND") || !strings.Contains(explain, "[pushed:") {
		t.Errorf("both conditions should merge into one pushed predicate:\n%s", explain)
	}
}

func TestPromptPushdownLeavesJoinsAlone(t *testing.T) {
	opts := Defaults()
	opts.PromptPushdown = true
	plan := optimize(t, "SELECT c.name FROM city c, mayor p WHERE c.mayor = p.name AND p.age < 40", opts)
	explain := logical.Explain(plan)
	// The age filter sits on the mayor scan and can push; the join must
	// survive intact.
	if !strings.Contains(explain, "Join ON") {
		t.Errorf("join lost:\n%s", explain)
	}
	if !strings.Contains(explain, "[pushed: mayor.age < 40]") && !strings.Contains(explain, "[pushed: p.age < 40]") {
		t.Errorf("age filter not pushed into the mayor scan:\n%s", explain)
	}
}

func TestFilterOnKeyAttributeStaysTraditional(t *testing.T) {
	// The key column is already materialized by the scan; comparisons on
	// it never need a prompt.
	plan := optimize(t, "SELECT name FROM city WHERE name = 'Rome'", Defaults())
	explain := logical.Explain(plan)
	if strings.Contains(explain, "LLMFilter") || strings.Contains(explain, "LLMFetchAttr") {
		t.Errorf("key comparison must be a traditional filter:\n%s", explain)
	}
	if !strings.Contains(explain, "Filter") {
		t.Errorf("filter missing:\n%s", explain)
	}
}

func TestLikePredicateFetchesAttribute(t *testing.T) {
	// LIKE is not a boolean-prompt form; the attribute must be fetched.
	plan := optimize(t, "SELECT name FROM city WHERE country LIKE 'United%'", Defaults())
	explain := logical.Explain(plan)
	if strings.Contains(explain, "LLMFilter") {
		t.Errorf("LIKE must not lower to a boolean prompt:\n%s", explain)
	}
	if !strings.Contains(explain, "LLMFetchAttr") {
		t.Errorf("LIKE needs the attribute fetched:\n%s", explain)
	}
}

func TestAggregateOverLLMScanFetchesArg(t *testing.T) {
	plan := optimize(t, "SELECT AVG(population) FROM city", Defaults())
	explain := logical.Explain(plan)
	if !strings.Contains(explain, "LLMFetchAttr") || !strings.Contains(explain, "Aggregate") {
		t.Errorf("aggregate argument must be fetched before aggregation:\n%s", explain)
	}
}

func TestOrExpressionStaysWhole(t *testing.T) {
	// OR is one conjunct: it cannot split, cannot become an LLMFilter,
	// and must be evaluated after fetching both attributes.
	plan := optimize(t, "SELECT name FROM city WHERE population > 1000000 OR country = 'Italy'", Defaults())
	explain := logical.Explain(plan)
	if strings.Contains(explain, "LLMFilter") {
		t.Errorf("OR must not lower to boolean prompts:\n%s", explain)
	}
	if strings.Count(explain, "LLMFetchAttr") != 2 {
		t.Errorf("both OR attributes need fetching:\n%s", explain)
	}
}

func TestUnknownColumnSurfacesAtOptimize(t *testing.T) {
	sel, err := parser.ParseSelect("SELECT COUNT(*) FROM city WHERE flavor = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := logical.Build(sel, resolver{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Optimize(plan, Defaults()); err == nil {
		t.Error("unknown filter column must fail during lowering")
	}
}

func TestDedupFetchAttr(t *testing.T) {
	// The same attribute referenced twice is fetched once.
	plan := optimize(t, "SELECT population, population FROM city", Defaults())
	explain := logical.Explain(plan)
	if strings.Count(explain, "LLMFetchAttr") != 1 {
		t.Errorf("duplicate fetch nodes:\n%s", explain)
	}
}

// TestPromptPushdownSkipsKeyPredicate is the regression test for the
// eligibility fix: a predicate on the key attribute must never merge
// into the retrieval prompt. The keys are already materialized, so the
// traditional filter is free — pushing would trade accuracy (the merged
// prompt answers with a penalty) for zero prompt savings, and every
// later attribute fetch depends on exactly those keys.
func TestPromptPushdownSkipsKeyPredicate(t *testing.T) {
	opts := Defaults()
	opts.PromptPushdown = true
	plan := optimize(t, "SELECT population FROM city WHERE name = 'Tokyo'", opts)
	explain := logical.Explain(plan)
	if strings.Contains(explain, "[pushed:") {
		t.Errorf("key predicate must not merge into the scan prompt:\n%s", explain)
	}
	if !strings.Contains(explain, "Filter name = 'Tokyo'") {
		t.Errorf("key predicate must stay a traditional filter:\n%s", explain)
	}

	// Mixed case: the non-key conjunct may push, the key conjunct stays.
	plan = optimize(t, "SELECT name FROM city WHERE population > 1000000 AND name != 'Tokyo'", opts)
	explain = logical.Explain(plan)
	if !strings.Contains(explain, "[pushed: population > 1000000]") {
		t.Errorf("non-key conjunct should still push:\n%s", explain)
	}
	if strings.Contains(explain, "pushed: name") || strings.Contains(explain, "AND name") {
		t.Errorf("key conjunct leaked into the scan prompt:\n%s", explain)
	}
}

// costBased returns the paper defaults with cost-based plan selection on.
func costBased() Options {
	o := Defaults()
	o.CostBased = true
	return o
}

// candidateCosts prices every candidate Choose enumerates for one
// statement under base (no per-candidate knobs), keyed by choice label.
func candidateCosts(t *testing.T, built logical.Node, base Options, st *Statistics, p CostParams) map[string]*PlanCost {
	t.Helper()
	probe, err := Optimize(built, base)
	if err != nil {
		t.Fatal(err)
	}
	filterKeys, pushedKeys, joins := decisionKeys(probe)
	points := assemblePoints(filterKeys, pushedKeys, joins, base.PromptPushdown)
	costs := map[string]*PlanCost{}
	for mask := 0; mask < 1<<len(points); mask++ {
		plan, err := optimizeWith(built, base, candidate(points, mask), st)
		if err != nil {
			t.Fatal(err)
		}
		costs[label(points, mask)] = estimate(plan, st, p)
	}
	return costs
}

// TestCostBasedChoosesFetchWhenAttrProjected pins the headline win of
// plan enumeration: when a filtered attribute is also projected, the
// fixed heuristics pay a per-key boolean prompt AND a later fetch, while
// fetch-then-filter subsumes the filter for free.
func TestCostBasedChoosesFetchWhenAttrProjected(t *testing.T) {
	sql := "SELECT name, population FROM city WHERE population > 1000000"
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	built, err := logical.Build(sel, resolver{})
	if err != nil {
		t.Fatal(err)
	}
	st, p := NewStatistics(), CostParams{}
	plan, cost, _, err := Choose(built, costBased(), st, p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	explain := logical.Explain(plan)
	if strings.Contains(explain, "LLMFilter") {
		t.Errorf("projected attribute should be fetched, not prompt-filtered:\n%s", explain)
	}
	if !strings.Contains(explain, "LLMFetchAttr city.population") {
		t.Errorf("fetch missing:\n%s", explain)
	}
	choices := candidateCosts(t, built, costBased(), st, p)
	if len(choices) < 2 || cost.Candidates != len(choices) {
		t.Errorf("expected at least 2 candidates, got %d (estimate says %d)", len(choices), cost.Candidates)
	}
	// The chosen plan must be at least as cheap as the paper-shaped one.
	if paper := choices["paper"]; paper == nil || cost.Prompts > paper.Prompts {
		t.Errorf("chosen plan (%f prompts) beats paper (%+v)", cost.Prompts, paper)
	}
}

// TestOrderLLMFiltersMostSelectiveFirst checks the statistics-driven
// filter ordering: the filter discarding more tuples runs first.
func TestOrderLLMFiltersMostSelectiveFirst(t *testing.T) {
	st := NewStatistics()
	// Observed: the population predicate passes almost everything, the
	// country predicate almost nothing.
	st.ObserveFilter("city", "population", ">", "1000000", 100, 90)
	st.ObserveFilter("city", "country", "=", "Italy", 100, 5)

	plan, err := optimizeWith(build(t, "SELECT name FROM city WHERE population > 1000000 AND country = 'Italy'"), Defaults(), choice{}, st)
	if err != nil {
		t.Fatal(err)
	}
	explain := logical.Explain(plan)
	popIdx := strings.Index(explain, "LLMFilter population")
	countryIdx := strings.Index(explain, "LLMFilter country")
	if popIdx < 0 || countryIdx < 0 {
		t.Fatalf("expected two LLM filters:\n%s", explain)
	}
	// Deeper in the tree (= later in the explain text) runs first; the
	// selective country filter must be innermost.
	if countryIdx < popIdx {
		t.Errorf("most selective filter should run first (innermost):\n%s", explain)
	}
}

// TestJoinOrderChangesEstimatedLatency pins that the cost model is
// order-sensitive for joins (the build side blocks the first probe row),
// so join-swap candidates are genuinely differentiated rather than
// permanent ties that the paper-shaped candidate always wins.
func TestJoinOrderChangesEstimatedLatency(t *testing.T) {
	// p.age is projected, so a fetch runs above the join: its start is
	// anchored at the build side's completion, which is what the swap
	// changes.
	sql := "SELECT c.name, p.age FROM city c, mayor p WHERE c.mayor = p.name AND c.population > 1000000"
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	built, err := logical.Build(sel, resolver{})
	if err != nil {
		t.Fatal(err)
	}
	choices := candidateCosts(t, built, costBased(), NewStatistics(), CostParams{})
	paper, swapped := choices["paper"], choices["swap{0}"]
	if paper == nil || swapped == nil {
		t.Fatalf("expected paper and swap{0} candidates, got %v", choices)
	}
	if paper.Prompts != swapped.Prompts {
		t.Errorf("join order must not change prompt counts: %f vs %f", paper.Prompts, swapped.Prompts)
	}
	if paper.Latency == swapped.Latency {
		t.Errorf("join order should change the estimated makespan (build side blocks probing); both sides estimate %s", paper.Latency)
	}
}

// TestResidencyPricing pins cache-aware costing. Without a prompt cache
// (nil hook) the key-only selection keeps the paper's per-key boolean
// prompt. With one and nothing resident the two lowerings cost the same
// prompts, and the planner buys: fetch-then-filter leaves values every
// later literal can use (TestRentOrBuy covers unequal prices). Once the
// fetch class of the filtered attribute is fully resident,
// fetch-then-filter costs the scan pages alone; and a residual plan over
// a cached relation (zero prompts) still beats both.
func TestResidencyPricing(t *testing.T) {
	sql := "SELECT name FROM city WHERE population > 1000000"
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	built, err := logical.Build(sel, resolver{})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStatistics()
	st.SetTableKeys("city", 24)
	pages := st.Table("city").ScanPrompts(24)

	plan, off, _, err := Choose(built, costBased(), st, CostParams{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if explain := logical.Explain(plan); !strings.Contains(explain, "LLMFilter population") {
		t.Errorf("no prompt cache should keep the boolean prompt filter:\n%s", explain)
	}
	if want := pages + 24; off.Prompts != want || off.Overrented != 0 {
		t.Errorf("no prompt cache: est prompts = %v (overrented %d), want %v (0)", off.Prompts, off.Overrented, want)
	}

	cold := CostParams{Resident: func(llm.Role, string, llm.PromptClass) int { return 0 }}
	plan, cost, _, err := Choose(built, costBased(), st, cold, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if explain := logical.Explain(plan); strings.Contains(explain, "LLMFilter") || !strings.Contains(explain, "LLMFetchAttr city.population") {
		t.Errorf("residency 0 at equal prices should buy the attribute:\n%s", explain)
	}
	if cost.Prompts != off.Prompts {
		t.Errorf("residency 0: est prompts = %v, want the boolean plan's %v", cost.Prompts, off.Prompts)
	}

	fetchClass := llm.FetchClass("city", "population")
	warm := CostParams{Resident: func(role llm.Role, table string, class llm.PromptClass) int {
		if role == llm.RoleFetch && table == "city" && class == fetchClass {
			return 24
		}
		return 0
	}}
	plan, cost, _, err = Choose(built, costBased(), st, warm, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	explain := logical.Explain(plan)
	if strings.Contains(explain, "LLMFilter") || !strings.Contains(explain, "LLMFetchAttr city.population") {
		t.Errorf("resident fetch class should plan fetch-then-filter:\n%s", explain)
	}
	if cost.Prompts != pages {
		t.Errorf("fully resident fetch: est prompts = %v, want the %v scan pages only", cost.Prompts, pages)
	}
	var fetch NodeEstimate
	for n, est := range cost.Nodes {
		if _, ok := n.(*logical.FetchAttr); ok {
			fetch = est
		}
	}
	if fetch.Resident != 1 || fetch.Prompts != 0 {
		t.Errorf("fetch node estimate = %+v, want resident 1, prompts 0", fetch)
	}

	residual := ExtraPlan{
		Plan:  logical.NewCachedScan("city", "fp", "stamp", 5, schema.New(schema.Column{Table: "city", Name: "name", Type: value.KindString})),
		Label: "residual over cached(city)",
	}
	for name, p := range map[string]CostParams{"cold": cold, "warm": warm} {
		_, cost, _, err := Choose(built, costBased(), st, p, []ExtraPlan{residual}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cost.Choice != residual.Label || cost.Prompts != 0 {
			t.Errorf("%s: residual plan should win on strict cost, chose %q (%v prompts)", name, cost.Choice, cost.Prompts)
		}
	}
}

// TestRentOrBuy pins the break-even rule on a routed runtime whose
// filter backend charges a quarter of the fetch backend: the boolean
// prompt is rented while the filter completions resident for the
// attribute under other literals, plus this wave, cost less than one
// fetch of the attribute — three waves — and the fourth statement buys.
// A wave that is itself resident stays a free boolean filter however
// much was spent.
func TestRentOrBuy(t *testing.T) {
	sel, err := parser.ParseSelect("SELECT name FROM city WHERE population > 1000000")
	if err != nil {
		t.Fatal(err)
	}
	built, err := logical.Build(sel, resolver{})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStatistics()
	st.SetTableKeys("city", 24)
	price := func(role llm.Role, _ string) BackendPrice {
		if role == llm.RoleFilter {
			return BackendPrice{Backend: "cheap", CostWeight: 0.25, SpeedFactor: 1}
		}
		return BackendPrice{Backend: "strong", CostWeight: 1, SpeedFactor: 1}
	}
	family := llm.FilterFamily("city", "population")
	own := llm.FilterClass("city", "population", ">", "1000000")
	for _, tc := range []struct {
		spent, own int
		filter     bool
	}{
		{spent: 0, filter: true},
		{spent: 48, filter: true},   // (48+24)·¼ = 18 < 24
		{spent: 71, filter: true},   // 23.75 < 24
		{spent: 72, filter: false},  // (72+24)·¼ = 24: break-even, buy
		{spent: 500, filter: false}, // and ever after
		{spent: 524, own: 24, filter: true},
	} {
		p := CostParams{Price: price, Resident: func(role llm.Role, _ string, class llm.PromptClass) int {
			switch {
			case role == llm.RoleFilter && class == family:
				return tc.spent
			case role == llm.RoleFilter && class == own:
				return tc.own
			}
			return 0
		}}
		plan, cost, _, err := Choose(built, costBased(), st, p, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(logical.Explain(plan), "LLMFilter"); got != tc.filter || cost.Overrented != 0 {
			t.Errorf("%d filter completions resident (%d of this literal): boolean filter = %t (overrented %d), want %t (0)\n%s",
				tc.spent, tc.own, got, cost.Overrented, tc.filter, logical.Explain(plan))
		}
	}
}

// TestChooseFixedHeuristicsExtras pins how extras compete with the
// fixed-heuristic plan when cost-based selection is off: an extra wins
// only when strictly cheaper — a full tie keeps the fresh plan, and an
// extra that rents fewer boolean prompts past the rent-or-buy point but
// costs more loses, though the enumeration's order would prefer it.
func TestChooseFixedHeuristicsExtras(t *testing.T) {
	sel, err := parser.ParseSelect("SELECT name FROM city WHERE population > 1000000")
	if err != nil {
		t.Fatal(err)
	}
	built, err := logical.Build(sel, resolver{})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStatistics()
	st.SetTableKeys("city", 24)
	// The filter backend charges a quarter of the fetch backend, and the
	// attribute's filter family is past break-even (see TestRentOrBuy).
	p := CostParams{
		Price: func(role llm.Role, _ string) BackendPrice {
			if role == llm.RoleFilter {
				return BackendPrice{Backend: "cheap", CostWeight: 0.25, SpeedFactor: 1}
			}
			return BackendPrice{Backend: "strong", CostWeight: 1, SpeedFactor: 1}
		},
		Resident: func(role llm.Role, _ string, class llm.PromptClass) int {
			if role == llm.RoleFilter && class == llm.FilterFamily("city", "population") {
				return 500
			}
			return 0
		},
	}
	lowered := func(opts Options) ExtraPlan {
		plan, err := Optimize(built, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ExtraPlan{Plan: plan}
	}
	fetchOpts := Defaults()
	fetchOpts.DisableLLMFilter = map[string]bool{"population > 1000000": true}
	fetch := lowered(fetchOpts)
	fetch.Label = "fetch"
	twin := lowered(Defaults())
	twin.Label = "twin"
	residual := ExtraPlan{
		Plan:  logical.NewCachedScan("city", "fp", "stamp", 5, schema.New(schema.Column{Table: "city", Name: "name", Type: value.KindString})),
		Label: "residual over cached(city)",
	}

	fresh := Estimate(twin.Plan, st, p)
	fetchCost := Estimate(fetch.Plan, st, p)
	if fresh.Overrented != 1 || fetchCost.Overrented != 0 || !cheaper(fresh, fetchCost) || !less(fetchCost, fresh) {
		t.Fatalf("setup: heuristic plan %v (overrented %d), fetch plan %v (overrented %d): want the fetch plan first under less only",
			fresh, fresh.Overrented, fetchCost, fetchCost.Overrented)
	}

	for _, tc := range []struct {
		name   string
		extras []ExtraPlan
		want   *ExtraPlan // nil: the fresh plan
	}{
		{name: "none"},
		{name: "costlier, less overrented", extras: []ExtraPlan{fetch}},
		{name: "full tie", extras: []ExtraPlan{twin}},
		{name: "strictly cheaper", extras: []ExtraPlan{fetch, twin, residual}, want: &residual},
	} {
		plan, cost, g, err := Choose(built, Defaults(), st, p, tc.extras, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantLabel := "paper"
		if tc.want != nil {
			wantLabel = tc.want.Label
			if plan != tc.want.Plan {
				t.Errorf("%s: chose %s, want the extra %q", tc.name, logical.Explain(plan), wantLabel)
			}
		} else if plan == twin.Plan || !strings.Contains(logical.Explain(plan), "LLMFilter population") {
			t.Errorf("%s: want the fresh heuristic plan, got\n%s", tc.name, logical.Explain(plan))
		}
		if cost.Choice != wantLabel || cost.Candidates != 1+len(tc.extras) || g != nil {
			t.Errorf("%s: choice %q of %d candidates (guarded %v), want %q of %d", tc.name, cost.Choice, cost.Candidates, g != nil, wantLabel, 1+len(tc.extras))
		}
	}
}

// TestDisableLLMFilterKeyFoldsCase pins the option key's lower-casing,
// which callers outside the engine rely on: with CostBased off, the key
// "country = 'italy'" lowers `country = 'Italy'`, written either way
// round, as fetch-then-filter, and without it both run as a boolean
// prompt.
func TestDisableLLMFilterKeyFoldsCase(t *testing.T) {
	for _, where := range []string{"country = 'Italy'", "'Italy' = country"} {
		sel, err := parser.ParseSelect("SELECT name FROM city WHERE " + where)
		if err != nil {
			t.Fatal(err)
		}
		built, err := logical.Build(sel, resolver{})
		if err != nil {
			t.Fatal(err)
		}
		opts := Defaults()
		plan, _, _, err := Choose(built, opts, nil, CostParams{}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if explain := logical.Explain(plan); !strings.Contains(explain, "LLMFilter country = 'Italy'") {
			t.Errorf("%s: want a boolean prompt filter, got\n%s", where, explain)
		}
		opts.DisableLLMFilter = map[string]bool{"country = 'italy'": true}
		plan, _, _, err = Choose(built, opts, nil, CostParams{}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if explain := logical.Explain(plan); strings.Contains(explain, "LLMFilter") ||
			!strings.Contains(explain, "Filter "+where) || !strings.Contains(explain, "LLMFetchAttr city.country") {
			t.Errorf("%s: want fetch-then-filter, got\n%s", where, explain)
		}
	}
}
