package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/llm"
	"repro/internal/simllm"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
	"repro/internal/world"
)

// llmTableNames are the LLM-bound relations of the simulated world.
var llmTableNames = []string{"country", "city", "mayor", "airport", "singer", "stadium", "mountain"}

// serveRuntime builds a runtime over the simulated ChatGPT with every
// world table bound to the LLM side.
func serveRuntime(t testing.TB, opts Options) (*Runtime, *world.World) {
	t.Helper()
	w := world.Build()
	rt := NewRuntime(simllm.New(simllm.ChatGPT, w, 1), opts)
	for _, name := range llmTableNames {
		if err := rt.BindLLMTable(w.Table(name).Def); err != nil {
			t.Fatal(err)
		}
	}
	return rt, w
}

// explainText renders EXPLAIN sql on s.
func explainText(t *testing.T, s *Session, sql string) string {
	t.Helper()
	rel, _, err := s.Query(context.Background(), "EXPLAIN "+sql)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", sql, err)
	}
	var b strings.Builder
	for _, row := range rel.Rows {
		b.WriteString(row[0].String())
		b.WriteByte('\n')
	}
	return b.String()
}

// planCounts plans sql on s and returns how the plan cache's counters
// moved.
func planCounts(t *testing.T, s *Session, sql string) PlanCacheStats {
	t.Helper()
	before := s.rt.Stats().PlanCache
	if _, err := s.Plan(sql); err != nil {
		t.Fatal(err)
	}
	after := s.rt.Stats().PlanCache
	return PlanCacheStats{
		Hits:          after.Hits - before.Hits,
		GuardFailures: after.GuardFailures - before.GuardFailures,
		Misses:        after.Misses - before.Misses,
		Entries:       after.Entries - before.Entries,
	}
}

// TestPlanCacheKeyedByPlanningInputs: the plan cache serves a statement
// only a choice made under the same planning inputs. A session that
// pins DisableLLMFilter, which the enumeration does not read, is served
// the plan a fresh enumeration chooses; the worker budget, the
// execution policy, the verifier and route overrides are part of the
// key; a statement with a repeated literal is never cached.
func TestPlanCacheKeyedByPlanningInputs(t *testing.T) {
	const (
		first  = `SELECT name FROM city WHERE population > 1000000`
		second = `SELECT name FROM city WHERE population > 2500000`
		third  = `SELECT name FROM city WHERE population > 4000000`
	)
	miss := PlanCacheStats{Misses: 1, Entries: 1}
	hit := PlanCacheStats{Hits: 1}
	check := func(t *testing.T, s *Session, sql string, want PlanCacheStats) {
		t.Helper()
		if got := planCounts(t, s, sql); got != want {
			t.Errorf("planning %q moved the plan cache by %+v, want %+v", sql, got, want)
		}
	}
	// keyed plans first and second on one session, then third on a
	// session that differs in one planning input: a miss.
	keyed := func(t *testing.T, rt *Runtime, a, b Options) {
		t.Helper()
		sa, sb := rt.NewSession(), rt.NewSession()
		sa.SetOptions(a)
		sb.SetOptions(b)
		check(t, sa, first, miss)
		check(t, sa, second, hit)
		check(t, sb, third, miss)
	}

	t.Run("DisableLLMFilter", func(t *testing.T) {
		d := newDiffRig(t)
		opts := d.s.Options()
		opts.Optimizer.DisableLLMFilter = map[string]bool{"population > 1": true}
		d.s.SetOptions(opts)
		if _, counts := d.compare(first); counts != (PlanCacheStats{Misses: 1}) {
			t.Errorf("planning %q moved the plan cache by %+v, want one miss", first, counts)
		}
		if _, counts := d.compare(second); counts != hit {
			t.Errorf("planning %q moved the plan cache by %+v, want %+v", second, counts, hit)
		}
	})
	t.Run("worker budget", func(t *testing.T) {
		rt, _ := serveRuntime(t, ServeOptions())
		a := rt.Options()
		a.Pipelined, a.BatchWorkers = false, 4
		b := a
		b.BatchWorkers = 8
		keyed(t, rt, a, b)
	})
	t.Run("execution policy", func(t *testing.T) {
		rt, _ := serveRuntime(t, ServeOptions())
		a := rt.Options()
		b := a
		b.Pipelined = false // the same worker budget, as a wave width
		keyed(t, rt, a, b)
	})
	// routedRuntime declares a strong backend, a cheap one and a gpt3
	// verifier, with city bound.
	routedRuntime := func(t *testing.T) *Runtime {
		t.Helper()
		w := world.Build()
		rt, err := NewRuntimeWithBackends([]BackendDef{
			{Name: "strong", Client: simllm.New(simllm.ChatGPT, w, 1)},
			{Name: "cheap", Client: simllm.New(simllm.Flan, w, 1), CostWeight: 0.25},
			{Name: "verifier", Client: simllm.New(simllm.GPT3, w, 2)},
		}, "strong", nil, ServeOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.BindLLMTable(w.Table("city").Def); err != nil {
			t.Fatal(err)
		}
		return rt
	}
	t.Run("verifier", func(t *testing.T) {
		rt := routedRuntime(t)
		a := rt.Options()
		b := a
		b.Routes = map[string]string{"verify": "verifier"}
		keyed(t, rt, a, b)
	})
	t.Run("route overrides", func(t *testing.T) {
		rt := routedRuntime(t)
		a := rt.Options()
		b := a
		b.Routes = map[string]string{"filter": "cheap"}
		keyed(t, rt, a, b)
	})
	t.Run("repeated literal", func(t *testing.T) {
		rt, _ := serveRuntime(t, ServeOptions())
		s := rt.NewSession()
		uncached := PlanCacheStats{Misses: 1}
		check(t, s, `SELECT name FROM city WHERE population > 500 AND elevation > 500`, uncached)
		check(t, s, `SELECT name FROM city WHERE population > 700 AND elevation > 700`, uncached)
	})
}

// conjunct is one column-op-literal predicate of a statement, resolved
// to its table.
type conjunct struct{ table, attr, op, lit string }

// conjunctsOf lists the column-op-literal conjuncts of sql's WHERE clause.
func conjunctsOf(t *testing.T, sql string) []conjunct {
	t.Helper()
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Where == nil {
		return nil
	}
	var out []conjunct
	for _, c := range ast.Conjuncts(sel.Where) {
		bin, ok := c.(*ast.Binary)
		if !ok {
			continue
		}
		ref, isRef := bin.Left.(*ast.ColumnRef)
		lit, isLit := bin.Right.(*ast.Literal)
		if !isRef || !isLit {
			continue
		}
		table := sel.From[0].Table
		for _, f := range sel.From {
			if ref.Table != "" && strings.EqualFold(f.Binding(), ref.Table) {
				table = f.Table
			}
		}
		out = append(out, conjunct{table: table, attr: ref.Name, op: bin.Op, lit: lit.Val.String()})
	}
	return out
}

// diffRig is one runtime under TestPlanCacheMatchesFreshPlanning: a
// session, and the helpers that put completions into its prompt cache
// and compare its cached planning against a fresh enumeration.
type diffRig struct {
	t     *testing.T
	rt    *Runtime
	w     *world.World
	s     *Session
	model string
	puts  int
}

func newDiffRig(t *testing.T) *diffRig {
	opts := ServeOptions()
	opts.CacheSize = 400
	rt, w := serveRuntime(t, opts)
	return &diffRig{t: t, rt: rt, w: w, s: rt.NewSession(), model: rt.Registry().Default().Name()}
}

// put inserts n completions of one prompt class: model calls, through
// the runtime's scheduler, of a canned client under the runtime's model
// name.
func (d *diffRig) put(class llm.PromptClass, n int) {
	tn := d.rt.sched.Tenant(context.Background(), "")
	defer tn.Close()
	client, tp := cannedClient{name: d.model, answer: "yes"}, llm.NewTemplate("", "", class)
	for k := 0; k < n; k++ {
		d.puts++
		if _, _, err := tn.Single().Submit(client, tp, fmt.Sprintf("%v #%d", class, d.puts), 0).Wait(); err != nil {
			d.t.Fatal(err)
		}
	}
}

// cannedClient answers every prompt with answer, under the model name.
type cannedClient struct{ name, answer string }

func (c cannedClient) Name() string                                     { return c.name }
func (c cannedClient) Complete(context.Context, string) (string, error) { return c.answer, nil }

// compare renders EXPLAIN sql through the plan cache and through a fresh
// enumeration (a runtime without a plan cache, same inputs otherwise),
// fails the test unless they are equal, and returns the plan text and
// how the plan cache answered.
func (d *diffRig) compare(sql string) (string, PlanCacheStats) {
	d.t.Helper()
	before := d.rt.Stats().PlanCache
	got := explainText(d.t, d.s, sql)
	after := d.rt.Stats().PlanCache
	saved := d.rt.plans
	d.rt.plans = nil
	want := explainText(d.t, d.s, sql)
	d.rt.plans = saved
	if got != want {
		d.t.Fatalf("plan cache diverged from a fresh enumeration for %s\ncached:\n%s\nfresh:\n%s", sql, got, want)
	}
	return got, PlanCacheStats{Hits: after.Hits - before.Hits, GuardFailures: after.GuardFailures - before.GuardFailures, Misses: after.Misses - before.Misses}
}

// choice returns an EXPLAIN's choice label with the given literals
// replaced by "?".
func choice(explain string, lits ...string) string {
	i := strings.LastIndex(explain, "choice: ")
	if i < 0 {
		return ""
	}
	label := explain[i:]
	for _, lit := range lits {
		label = strings.ReplaceAll(label, lit, "?")
	}
	return label
}

// TestPlanCacheMatchesFreshPlanning is the plan cache's differential
// test. Three fixed cases each change one input a cached choice was made
// on — the residency of the next statement's own literal, a table's
// cardinality, a filter family's selectivity — so that a fresh
// enumeration picks differently; the cache must refuse its entry. Then,
// over the difftest generator's statements and its ad-hoc templates, the
// inputs are mutated at random between statements: executions observed
// into the statistics, direct filter and scan observations, prompt-cache
// inserts of filter verdicts for the very literal planned next and of
// fetch answers (evicting older entries), a rebind and an ANALYZE.
// Every EXPLAIN the cache-backed planner renders (choice label,
// candidate count, per-node estimates) must equal the one a fresh
// enumeration renders over the same inputs.
func TestPlanCacheMatchesFreshPlanning(t *testing.T) {
	refused := PlanCacheStats{GuardFailures: 1}
	t.Run("residency", func(t *testing.T) {
		// Fetch-then-filter is bought at first sight; once the next
		// literal's verdicts are resident, its boolean filter is free.
		d := newDiffRig(t)
		first, _ := d.compare(`SELECT name FROM city WHERE population > 1000000`)
		d.put(llm.FilterClass("city", "population", ">", "2000000"), 40)
		second, counts := d.compare(`SELECT name FROM city WHERE population > 2000000`)
		if counts != refused || choice(first, "1000000") == choice(second, "2000000") {
			t.Errorf("plan cache %+v; choices %q then %q", counts, choice(first), choice(second))
		}
	})
	t.Run("table statistics", func(t *testing.T) {
		// Verdicts for either literal cover 18 of 24 keys and fetches 22,
		// so fetching is cheaper; primed down to 18 keys both stages are
		// free, and the tie keeps the boolean filter.
		d := newDiffRig(t)
		d.put(llm.FetchClass("city", "population"), 22)
		d.put(llm.FilterClass("city", "population", ">", "1000000"), 18)
		d.put(llm.FilterClass("city", "population", ">", "2000000"), 18)
		first, _ := d.compare(`SELECT name FROM city WHERE population > 1000000`)
		d.rt.PrimeTableKeys("city", 18)
		second, counts := d.compare(`SELECT name FROM city WHERE population > 2000000`)
		if counts != refused || choice(first, "1000000") == choice(second, "2000000") {
			t.Errorf("plan cache %+v; choices %q then %q", counts, choice(first), choice(second))
		}
	})
	t.Run("selectivity", func(t *testing.T) {
		// Two filters with partly resident verdicts and fetches: which
		// conjuncts are worth fetching depends on how many rows the first
		// filter passes to the second.
		d := newDiffRig(t)
		for _, lit := range []string{"1000", "2000"} {
			d.put(llm.FilterClass("city", "population", ">", lit), 7)
		}
		for _, lit := range []string{"100", "200"} {
			d.put(llm.FilterClass("city", "elevation", "<", lit), 24)
		}
		d.put(llm.FetchClass("city", "population"), 22)
		d.put(llm.FetchClass("city", "elevation"), 13)
		first, _ := d.compare(`SELECT name FROM city WHERE population > 1000 AND elevation < 100`)
		d.rt.stats.ObserveFilter("city", "population", ">", "1", 24, 21)
		d.rt.stats.ObserveFilter("city", "elevation", "<", "1", 24, 0)
		second, counts := d.compare(`SELECT name FROM city WHERE population > 2000 AND elevation < 200`)
		if counts != refused || choice(first, "1000", "100") == choice(second, "2000", "200") {
			t.Errorf("plan cache %+v; choices %q then %q", counts, choice(first), choice(second))
		}
	})
	t.Run("decision order", func(t *testing.T) {
		// Two filters on one attribute, the first literal's verdicts
		// resident: the second is worth fetching. Decisions are ordered by
		// conjunct text, and "population > 200" sorts before
		// "population > 300" where "population > 100" sorted before
		// "population > 90": the cached decision would land on the wrong
		// conjunct.
		d := newDiffRig(t)
		d.put(llm.FilterClass("city", "population", ">", "100"), 24)
		d.put(llm.FilterClass("city", "population", ">", "300"), 24)
		first, _ := d.compare(`SELECT name FROM city WHERE population > 100 AND population > 90`)
		second, counts := d.compare(`SELECT name FROM city WHERE population > 300 AND population > 200`)
		if counts != refused || choice(first, "90") != choice(second, "200") {
			t.Errorf("plan cache %+v; choices %q then %q", counts, choice(first), choice(second))
		}
	})

	d := newDiffRig(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	gen := difftest.New(5)
	hits := 0
	const n = 800
	for i := 0; i < n; i++ {
		q := gen.Adhoc()
		if i%8 == 0 {
			q = gen.Query()
		}
		conjs := conjunctsOf(t, q.SQL)
		table := llmTableNames[rng.Intn(len(llmTableNames))]
		switch rng.Intn(28) { // one statement in four mutates an input
		case 0:
			if _, _, err := d.s.Query(ctx, q.SQL); err != nil {
				t.Fatal(err)
			}
		case 1:
			if len(conjs) > 0 {
				c := conjs[rng.Intn(len(conjs))]
				d.rt.stats.ObserveFilter(c.table, c.attr, c.op, c.lit, 24, rng.Intn(25))
			}
		case 2:
			d.rt.stats.ObserveScan(table, 10+rng.Intn(40), 2+rng.Intn(4))
		case 3:
			if len(conjs) > 0 {
				c := conjs[rng.Intn(len(conjs))]
				d.put(llm.FilterClass(c.table, c.attr, c.op, c.lit), 10+rng.Intn(30))
			}
		case 4:
			cols := d.w.Table(table).Def.Schema.Columns
			d.put(llm.FetchClass(table, cols[rng.Intn(len(cols))].Name), 30)
		case 5:
			if err := d.rt.BindLLMTable(d.w.Table(table).Def); err != nil {
				t.Fatal(err)
			}
		case 6:
			d.rt.PrimeTableKeys(table, 10+rng.Intn(60))
		}
		if _, counts := d.compare(q.SQL); counts.Hits > 0 {
			hits++
		}
	}
	st := d.rt.Stats().PlanCache
	t.Logf("plan cache over %d statements: %d hits, %+v", n, hits, st)
	if hits < n/8 || st.GuardFailures == 0 {
		t.Errorf("the test exercised too little: %d hits, %d guard failures", hits, st.GuardFailures)
	}
}

// TestPlanCacheConcurrent: sessions plan and execute one template set
// concurrently through the shared plan cache (run under -race).
func TestPlanCacheConcurrent(t *testing.T) {
	rt, _ := serveRuntime(t, ServeOptions())
	ctx := context.Background()
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(seed int64) {
			s := rt.NewSession()
			gen := difftest.New(seed)
			for i := 0; i < 60; i++ {
				sql := gen.Adhoc().SQL
				if i%3 == 0 {
					sql = "EXPLAIN " + sql
				}
				if _, _, err := s.Query(ctx, sql); err != nil {
					errs <- fmt.Errorf("%s: %w", sql, err)
					return
				}
			}
			errs <- nil
		}(int64(g))
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := rt.Stats().PlanCache; st.Hits == 0 {
		t.Errorf("no statement reused a cached plan: %+v", st)
	}
}

// TestPlanCacheBindsOnlyLeftDeep: a plan-cache hit binds the statement's
// literals into the recorded lowered winner, which reproduces the plan
// only for ON predicates nested as JoinOf nests them (logical.LeftDeep).
// A parenthesized ON is its own template (the fingerprint keeps the
// nesting), and its winner is never recorded: every statement of it is a
// miss, planned by enumeration, and EXPLAINs (choice, candidates,
// estimates) as a fresh planner does.
func TestPlanCacheBindsOnlyLeftDeep(t *testing.T) {
	d := newDiffRig(t)
	if _, counts := d.compare(`SELECT c.name FROM city c JOIN mayor m ON c.mayor = m.name AND m.age > 40 AND m.election_year < 2020`); counts != (PlanCacheStats{Misses: 1}) {
		t.Fatalf("first statement: plan cache %+v, want one miss", counts)
	}
	if _, counts := d.compare(`SELECT c.name FROM city c JOIN mayor m ON c.mayor = m.name AND m.age > 45 AND m.election_year < 2015`); counts != (PlanCacheStats{Hits: 1}) {
		t.Fatalf("left-deep statement of the recorded template: plan cache %+v, want one hit", counts)
	}
	if _, counts := d.compare(`SELECT c.name FROM city c JOIN mayor m ON c.mayor = m.name AND (m.age > 50 AND m.election_year < 2010)`); counts != (PlanCacheStats{Misses: 1}) {
		t.Fatalf("parenthesized ON: plan cache %+v, want one miss", counts)
	}
	if _, counts := d.compare(`SELECT c.name FROM city c JOIN mayor m ON c.mayor = m.name AND (m.age > 55 AND m.election_year < 2005)`); counts != (PlanCacheStats{Misses: 1}) {
		t.Errorf("parenthesized ON, second statement: plan cache %+v, want one miss", counts)
	}
}
