package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/logical"
	"repro/internal/memdb"
	"repro/internal/schema"
	"repro/internal/simllm"
	"repro/internal/value"
	"repro/internal/world"
)

// testSession opens a session on a runtime over a simulated model with
// country, city and mayor bound to the LLM and employees plus country in
// the attached DB.
func testSession(t *testing.T, p simllm.Profile) *Session {
	t.Helper()
	w := world.Build()
	rt := NewRuntime(simllm.New(p, w, 1), DefaultOptions())
	for _, name := range []string{"country", "city", "mayor"} {
		if err := rt.BindLLMTable(w.Table(name).Def); err != nil {
			t.Fatal(err)
		}
	}
	db := memdb.New()
	if err := db.LoadRelation(w.Table("employees").Def, w.Relation("employees")); err != nil {
		t.Fatal(err)
	}
	// Also load country into the DB so the precedence rules are testable.
	if err := db.LoadRelation(w.Table("country").Def, w.Relation("country")); err != nil {
		t.Fatal(err)
	}
	rt.AttachDB(db)
	return rt.NewSession()
}

func TestBindRequiresKey(t *testing.T) {
	rt := NewRuntime(nil, DefaultOptions())
	err := rt.BindLLMTable(&schema.TableDef{
		Name:      "bad",
		KeyColumn: "missing",
		Schema:    schema.New(schema.Column{Name: "x", Type: value.KindInt}),
	})
	if err == nil {
		t.Error("binding a table whose key is not in the schema must fail")
	}
}

func TestResolvePrecedence(t *testing.T) {
	e := testSession(t, simllm.GPT3)

	// Unqualified: LLM wins by default.
	_, source, err := e.ResolveTable("country", "")
	if err != nil || source != "LLM" {
		t.Errorf("default source = %q, %v", source, err)
	}
	// Explicit DB qualifier.
	_, source, err = e.ResolveTable("country", "DB")
	if err != nil || source != "DB" {
		t.Errorf("explicit DB = %q, %v", source, err)
	}
	// DB-only table resolves to DB.
	_, source, err = e.ResolveTable("employees", "")
	if err != nil || source != "DB" {
		t.Errorf("employees = %q, %v", source, err)
	}
	// Explicit LLM for a DB-only table fails.
	if _, _, err := e.ResolveTable("employees", "LLM"); err == nil {
		t.Error("employees has no LLM binding")
	}
	if _, _, err := e.ResolveTable("nothing", ""); err == nil {
		t.Error("unknown table must fail")
	}
}

func mustDB(t *testing.T) *memdb.DB {
	t.Helper()
	w := world.Build()
	db := memdb.New()
	if err := db.LoadRelation(w.Table("country").Def, w.Relation("country")); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestQueryEndToEnd(t *testing.T) {
	e := testSession(t, simllm.GPT3)
	rel, rep, err := e.Query(context.Background(), "SELECT name FROM country WHERE continent = 'Europe'")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() == 0 {
		t.Error("GPT-3 should list European countries")
	}
	if rep.Stats.Prompts == 0 {
		t.Error("LLM usage must be recorded")
	}
	if !strings.Contains(rep.Plan, "LLMKeyScan") {
		t.Errorf("report plan missing LLM operators:\n%s", rep.Plan)
	}
	// The output schema is fixed by construction (Section 5: "all output
	// relations have the expected schema").
	if rel.Schema.Len() != 1 || !strings.EqualFold(rel.Schema.Columns[0].Name, "name") {
		t.Errorf("output schema = %v", rel.Schema)
	}
}

// TestQueryCacheAcrossQueries: with the default-on prompt cache, running
// the same query twice on one engine costs zero model calls and zero
// simulated seconds the second time, with every prompt served as a hit.
func TestQueryCacheAcrossQueries(t *testing.T) {
	e := testSession(t, simllm.GPT3)
	const q = "SELECT name, capital FROM country WHERE continent = 'Europe'"
	ctx := context.Background()

	first, rep1, err := e.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Stats.Prompts == 0 {
		t.Fatal("cold cache must issue prompts")
	}
	second, rep2, err := e.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Stats.Prompts != 0 {
		t.Errorf("warm cache issued %d prompts, want 0", rep2.Stats.Prompts)
	}
	if rep2.Stats.CacheHits == 0 {
		t.Error("warm run must record cache hits")
	}
	if rep2.Stats.SimulatedLatency != 0 {
		t.Errorf("cached prompts must cost zero simulated time, got %v", rep2.Stats.SimulatedLatency)
	}
	if first.Cardinality() != second.Cardinality() {
		t.Errorf("cached result diverged: %d vs %d rows", first.Cardinality(), second.Cardinality())
	}
	cs := e.Runtime().Stats().CacheStats
	if cs.Hits == 0 || cs.Misses == 0 || cs.Entries == 0 {
		t.Errorf("engine cache stats = %+v", cs)
	}
}

// TestPipelinedMatchesStopAndGo: the default streaming policy must
// return the same relation as the stop-and-go policy with the same issued
// prompts, at lower simulated latency, on a multi-operator query. Both
// run on a tenant, and each report's scheduler accounting agrees with its
// simulated latency (a stop-and-go tenant's makespan is its wave sum).
func TestPipelinedMatchesStopAndGo(t *testing.T) {
	const q = "SELECT name, capital FROM country WHERE continent = 'Europe'"
	ctx := context.Background()

	run := func(pipelined bool) (*schema.Relation, *Report) {
		w := world.Build()
		opts := DefaultOptions()
		opts.CacheEnabled = false // both modes pay for every prompt
		opts.Pipelined = pipelined
		rt := NewRuntime(simllm.New(simllm.GPT3, w, 1), opts)
		if err := rt.BindLLMTable(w.Table("country").Def); err != nil {
			t.Fatal(err)
		}
		rel, rep, err := rt.NewSession().Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		return rel, rep
	}

	wantRel, wantRep := run(false)
	gotRel, gotRep := run(true)
	if gotRel.String() != wantRel.String() {
		t.Errorf("pipelined result diverged:\n%s\nvs\n%s", gotRel.String(), wantRel.String())
	}
	if gotRep.Stats.Prompts != wantRep.Stats.Prompts {
		t.Errorf("prompts = %d pipelined vs %d stop-and-go", gotRep.Stats.Prompts, wantRep.Stats.Prompts)
	}
	if gotRep.Stats.SimulatedLatency == 0 || gotRep.Stats.SimulatedLatency > wantRep.Stats.SimulatedLatency {
		t.Errorf("pipelined latency %v must be positive and at most stop-and-go %v",
			gotRep.Stats.SimulatedLatency, wantRep.Stats.SimulatedLatency)
	}
	for _, rep := range []*Report{wantRep, gotRep} {
		if rep.Sched == nil || rep.Sched.Makespan() != rep.Stats.SimulatedLatency {
			t.Errorf("scheduler accounting %+v disagrees with simulated latency %v", rep.Sched, rep.Stats.SimulatedLatency)
		}
	}
}

// TestSchedMakespanPerEndpointBudget: with a backend that declares its
// own worker budget, the report's scheduler snapshot prices each
// endpoint's work over that budget, so its makespan is the reported
// simulated latency under both policies.
func TestSchedMakespanPerEndpointBudget(t *testing.T) {
	const q = "SELECT name, capital, population FROM country"
	for _, pipelined := range []bool{false, true} {
		w := world.Build()
		opts := DefaultOptions()
		opts.CacheEnabled = false
		opts.Pipelined = pipelined
		rt, err := NewRuntimeWithBackends([]BackendDef{{Name: "gpt3", Client: simllm.New(simllm.GPT3, w, 1), Workers: 2}}, "", nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.BindLLMTable(w.Table("country").Def); err != nil {
			t.Fatal(err)
		}
		_, rep, err := rt.NewSession().Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.SimulatedLatency == 0 || rep.Sched.Makespan() != rep.Stats.SimulatedLatency {
			t.Errorf("pipelined=%v: snapshot makespan %v disagrees with simulated latency %v",
				pipelined, rep.Sched.Makespan(), rep.Stats.SimulatedLatency)
		}
	}
}

// TestPipelinedLimitQuery: a LIMIT query under the streaming policy
// terminates early, settles abandoned in-flight prompts before the
// report is built, and still returns the right rows.
func TestPipelinedLimitQuery(t *testing.T) {
	e := testSession(t, simllm.GPT3)
	rel, rep, err := e.Query(context.Background(), "SELECT name, capital FROM country LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 2 {
		t.Errorf("LIMIT 2 returned %d rows", rel.Cardinality())
	}
	if rep.Stats.Prompts+rep.Stats.CacheHits == 0 {
		t.Error("limit query must still account its prompts")
	}
}

// TestQueryCacheDisabled: CacheEnabled=false restores pay-per-prompt
// behavior — the second identical query costs the same as the first.
func TestQueryCacheDisabled(t *testing.T) {
	w := world.Build()
	opts := DefaultOptions()
	opts.CacheEnabled = false
	rt := NewRuntime(simllm.New(simllm.GPT3, w, 1), opts)
	if err := rt.BindLLMTable(w.Table("country").Def); err != nil {
		t.Fatal(err)
	}
	e := rt.NewSession()
	const q = "SELECT name FROM country WHERE continent = 'Europe'"
	ctx := context.Background()
	_, rep1, err := e.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	_, rep2, err := e.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Stats.Prompts != rep1.Stats.Prompts {
		t.Errorf("cache off must re-issue prompts: %d vs %d", rep2.Stats.Prompts, rep1.Stats.Prompts)
	}
	if rep2.Stats.CacheHits != 0 || rep2.Stats.CacheMisses != 0 {
		t.Errorf("cache off must not record cache traffic: %+v", rep2.Stats)
	}
}

func TestHybridQuery(t *testing.T) {
	e := testSession(t, simllm.GPT3)
	rel, _, err := e.Query(context.Background(),
		"SELECT c.gdp, AVG(e.salary) FROM LLM.country c, DB.Employees e WHERE c.code = e.countryCode GROUP BY e.countryCode")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Schema.Len() != 2 {
		t.Errorf("hybrid schema = %v", rel.Schema)
	}
	if rel.Cardinality() == 0 {
		t.Error("hybrid join should produce groups on gpt3")
	}
}

func TestExplainShowsLowering(t *testing.T) {
	e := testSession(t, simllm.ChatGPT)
	built, err := e.Plan("SELECT name, population FROM city WHERE population > 1000000")
	if err != nil {
		t.Fatal(err)
	}
	plan := logical.Explain(built)
	for _, want := range []string{"LLMKeyScan", "LLMFilter", "LLMFetchAttr", "Project"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %s:\n%s", want, plan)
		}
	}
}

func TestQueryParseError(t *testing.T) {
	e := testSession(t, simllm.GPT3)
	if _, _, err := e.Query(context.Background(), "SELEC nonsense"); err == nil {
		t.Error("parse errors must surface")
	}
	if _, err := e.Plan("SELECT x FROM nothing"); err == nil {
		t.Error("unknown tables must surface")
	}
}

func TestDeterministicQueries(t *testing.T) {
	e := testSession(t, simllm.ChatGPT)
	ctx := context.Background()
	sql := "SELECT name FROM country WHERE population > 100000000"
	a, _, err := e.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := e.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cardinality() != b.Cardinality() {
		t.Fatalf("non-deterministic: %d vs %d rows", a.Cardinality(), b.Cardinality())
	}
	for i := range a.Rows {
		if a.Rows[i][0].String() != b.Rows[i][0].String() {
			t.Fatalf("row %d differs: %v vs %v", i, a.Rows[i], b.Rows[i])
		}
	}
}

// TestResidentPromptsPricedAtZero: with a prompt cache a never-seen
// selection on population plans fetch-then-filter from the start (same
// prompts as the boolean filter, but the values stay for every later
// literal), and once a table scan has left every city.population fact
// resident the fetches are priced at zero — EXPLAIN says so — and the
// statement runs for zero prompts, under both execution
// policies and with a verify route to a second backend, whose
// completions are resident under that backend. With the prompt cache off the same
// statement keeps the paper's per-key boolean prompts and EXPLAIN carries
// no residency annotation.
func TestResidentPromptsPricedAtZero(t *testing.T) {
	const warmup = "SELECT name, population FROM city"
	const q = "SELECT name FROM city WHERE population > 3000000"
	ctx := context.Background()

	explain := func(s *Session) string {
		t.Helper()
		rel, _, err := s.Query(ctx, "EXPLAIN "+q)
		if err != nil {
			t.Fatal(err)
		}
		return rel.String()
	}
	for _, tc := range []struct{ pipelined, verify bool }{{true, false}, {false, false}, {true, true}} {
		w := world.Build()
		opts := DefaultOptions()
		opts.Pipelined = tc.pipelined
		opts.Optimizer.CostBased = true
		opts.ResultCacheEnabled = false // only the prompt cache may answer
		rt := NewRuntime(simllm.New(simllm.ChatGPT, w, 1), opts)
		if tc.verify {
			var err error
			rt, err = NewRuntimeWithBackends([]BackendDef{
				{Name: "chatgpt", Client: simllm.New(simllm.ChatGPT, w, 1)},
				{Name: "gpt3", Client: simllm.New(simllm.GPT3, w, 1)},
			}, "chatgpt", map[string]string{"verify": "gpt3"}, opts)
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.BindLLMTable(w.Table("city").Def); err != nil {
			t.Fatal(err)
		}
		s := rt.NewSession()

		// A verifier doubles the price of buying, so the first wave of
		// boolean prompts is still the cheaper rent.
		if plan := explain(s); strings.Contains(plan, "LLMFilter") != tc.verify || strings.Contains(plan, "resident=") {
			t.Errorf("%+v, cold cache: want fetch-then-filter (boolean filter under a verifier) and no residency note:\n%s", tc, plan)
		}
		if _, _, err := s.Query(ctx, warmup); err != nil {
			t.Fatal(err)
		}
		plan := explain(s)
		if strings.Contains(plan, "LLMFilter") || !strings.Contains(plan, "LLMFetchAttr city.population") || !strings.Contains(plan, "prompts=0.0 resident=100%") {
			t.Errorf("%+v, warm cache: want fetch-then-filter at resident=100%%:\n%s", tc, plan)
		}
		_, rep, err := s.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.Prompts != 0 || rep.Stats.CacheHits == 0 || rep.Stats.SimulatedLatency != 0 {
			t.Errorf("%+v: resident plan cost %+v, want 0 prompts, all hits", tc, rep.Stats)
		}
	}

	w := world.Build()
	opts := DefaultOptions()
	opts.Optimizer.CostBased = true
	opts.CacheEnabled = false
	opts.ResultCacheEnabled = false
	rt := NewRuntime(simllm.New(simllm.ChatGPT, w, 1), opts)
	if err := rt.BindLLMTable(w.Table("city").Def); err != nil {
		t.Fatal(err)
	}
	s := rt.NewSession()
	if _, _, err := s.Query(ctx, warmup); err != nil {
		t.Fatal(err)
	}
	if plan := explain(s); !strings.Contains(plan, "LLMFilter population") || strings.Contains(plan, "resident=") {
		t.Errorf("cache off: plan must not depend on earlier queries:\n%s", plan)
	}
}

// TestExplainResidualTieKeepsFreshPlan: under the fixed heuristics a
// residual plan over a cached relation competes with the fresh plan and
// wins only when strictly cheaper. Over a DB table both cost nothing, so
// the fresh plan keeps the tie and EXPLAIN names its choice.
func TestExplainResidualTieKeepsFreshPlan(t *testing.T) {
	w := world.Build()
	opts := DefaultOptions()
	opts.ResultCacheEnabled = true
	opts.Optimizer.CostBased = false
	rt := NewRuntime(simllm.New(simllm.ChatGPT, w, 1), opts)
	db := memdb.New()
	if err := db.LoadRelation(w.Table("country").Def, w.Relation("country")); err != nil {
		t.Fatal(err)
	}
	rt.AttachDB(db)
	s := rt.NewSession()
	if _, _, err := s.Query(context.Background(), "SELECT name, continent FROM country"); err != nil {
		t.Fatal(err)
	}
	plan := explainText(t, s, "SELECT name FROM country WHERE continent = 'Europe'")
	if strings.Contains(plan, "residual") || !strings.Contains(plan, "(cost-based, 2 candidates, choice: paper)") {
		t.Errorf("a residual tied at zero cost must lose to the fresh plan, labelled paper:\n%s", plan)
	}
}
