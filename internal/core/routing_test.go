package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/simllm"
	"repro/internal/sql/parser"
	"repro/internal/world"
)

// verifySQL fetches one attribute per city key, so a verifier issues one
// prompt per fetched value.
const verifySQL = `SELECT name, population FROM city`

// verifyRuntime declares a ChatGPT "primary" (the default) and a Flan
// "checker" with the given runtime routes, city bound and both caches
// off, so every prompt reaches a backend.
func verifyRuntime(t *testing.T, routes map[string]string) *Runtime {
	t.Helper()
	w := world.Build()
	opts := DefaultOptions()
	opts.CacheEnabled = false
	rt, err := NewRuntimeWithBackends([]BackendDef{
		{Name: "primary", Client: simllm.New(simllm.ChatGPT, w, 1)},
		{Name: "checker", Client: simllm.New(simllm.Flan, w, 1)},
	}, "primary", routes, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.BindLLMTable(w.Table("city").Def); err != nil {
		t.Fatal(err)
	}
	return rt
}

// populations runs verifySQL on s and returns its report and each
// city's population cell.
func populations(t *testing.T, s *Session) (*Report, map[string]string) {
	t.Helper()
	rel, rep, err := s.Query(context.Background(), verifySQL)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, row := range rel.Rows {
		if row[1].IsNull() {
			out[row[0].String()] = "NULL"
		} else {
			out[row[0].String()] = row[1].String()
		}
	}
	return rep, out
}

// backendPrompts reads one declared backend's lifetime prompt count.
func backendPrompts(t *testing.T, rt *Runtime, name string) int64 {
	t.Helper()
	b, ok := rt.Registry().Get(name)
	if !ok {
		t.Fatalf("backend %q not declared", name)
	}
	return b.Prompts()
}

// TestVerifyRouteTurnsVerificationOn: a runtime verify route and a
// session verify override each send one checker prompt per fetched
// value, leave the primary's prompts as they were, and NULL out the
// values the checker disagrees with — and only those.
func TestVerifyRouteTurnsVerificationOn(t *testing.T) {
	plain := verifyRuntime(t, nil)
	_, keys, err := plain.NewSession().Query(context.Background(), `SELECT name FROM city`)
	if err != nil {
		t.Fatal(err)
	}
	base, want := populations(t, plain.NewSession())
	fetches := int64(base.Stats.Prompts - keys.Stats.Prompts)
	if fetches <= 0 || backendPrompts(t, plain, "checker") != 0 {
		t.Fatalf("unverified run: %d fetches, checker prompts %d; want fetches and an idle checker", fetches, backendPrompts(t, plain, "checker"))
	}

	override := verifyRuntime(t, nil)
	overridden := override.NewSession()
	opts := overridden.Options()
	opts.Routes = map[string]string{"verify": "checker"}
	overridden.SetOptions(opts)
	for name, tc := range map[string]struct {
		rt *Runtime
		s  *Session
	}{
		"runtime route":    {verifyRuntime(t, map[string]string{"verify": "checker"}), nil},
		"session override": {override, overridden},
	} {
		s := tc.s
		if s == nil {
			s = tc.rt.NewSession()
		}
		rep, got := populations(t, s)
		if n := backendPrompts(t, tc.rt, "checker"); n != fetches {
			t.Errorf("%s: checker answered %d prompts, want one per fetch (%d)", name, n, fetches)
		}
		if n := backendPrompts(t, tc.rt, "primary"); n != int64(base.Stats.Prompts) {
			t.Errorf("%s: primary answered %d prompts, want the unverified %d", name, n, base.Stats.Prompts)
		}
		if int64(rep.Stats.Prompts) != int64(base.Stats.Prompts)+fetches {
			t.Errorf("%s: report counts %d prompts, want %d", name, rep.Stats.Prompts, int64(base.Stats.Prompts)+fetches)
		}
		nulled := 0
		for city, v := range got {
			switch {
			case v == want[city]:
			case v == "NULL":
				nulled++
			default:
				t.Errorf("%s: %s population %s, want the unverified %s or NULL", name, city, v, want[city])
			}
		}
		if len(got) != len(want) || nulled == 0 {
			t.Errorf("%s: %d rows (want %d), %d values NULLed; want the same rows and a disagreement NULLed", name, len(got), len(want), nulled)
		}
	}
}

// TestVerifiedSessionKeyedApart: on one runtime with the result cache on,
// a session that routes verify and one that does not never answer each
// other's statements from the cache, and each repeats its own exactly.
func TestVerifiedSessionKeyedApart(t *testing.T) {
	w := world.Build()
	rt, err := NewRuntimeWithBackends([]BackendDef{
		{Name: "primary", Client: simllm.New(simllm.ChatGPT, w, 1)},
		{Name: "checker", Client: simllm.New(simllm.Flan, w, 1)},
	}, "primary", nil, ServeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.BindLLMTable(w.Table("city").Def); err != nil {
		t.Fatal(err)
	}
	plain, verified := rt.NewSession(), rt.NewSession()
	opts := verified.Options()
	opts.Routes = map[string]string{"verify": "checker"}
	verified.SetOptions(opts)
	if plain.res.key == verified.res.key {
		t.Fatalf("verified and unverified sessions share the options fingerprint %q", plain.res.key)
	}

	run := func(s *Session, want CacheOutcome) map[string]string {
		t.Helper()
		rep, got := populations(t, s)
		if rep.Cached != want {
			t.Errorf("cached = %q, want %q", rep.Cached, want)
		}
		return got
	}
	a := run(plain, CacheNone)
	b := run(verified, CacheNone)
	differ := false
	for city, v := range a {
		differ = differ || b[city] != v
	}
	if !differ {
		t.Error("the verified relation equals the unverified one: no disagreement to tell them apart")
	}
	run(verified, CacheExact)
	run(plain, CacheExact)
}

// TestVerifyRouteAllocs: routes are resolved once, when the options are
// set. A runtime verify route turns verification on for the sessions
// under the runtime's defaults, and a planned query resolves no routes:
// a session with route overrides plans in no more allocations than one
// without (no override map, routing view or pricing hook per query).
func TestVerifyRouteAllocs(t *testing.T) {
	rt := verifyRuntime(t, map[string]string{"verify": "checker"})
	plain, routed := rt.NewSession(), rt.NewSession()
	if v := plain.res.verifier; !plain.res.params.Verifier || v == nil || v.Name() != "checker" {
		t.Errorf("verifier = %v (priced %v); want the runtime's checker route", v, plain.res.params.Verifier)
	}
	opts := routed.Options()
	opts.Routes = map[string]string{"fetch": "primary"}
	routed.SetOptions(opts)
	sel, err := parser.ParseSelect(verifySQL)
	if err != nil {
		t.Fatal(err)
	}
	perPlan := func(s *Session) float64 {
		t.Helper()
		q, err := s.prepare(sel)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, _, err := s.choose(q, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if p, r := perPlan(plain), perPlan(routed); r > p {
		t.Errorf("planning allocates %.0f times with route overrides, %.0f without: routes resolved per query", r, p)
	}
}

// TestSessionOwnsRoutes: SetOptions keeps its own copy of the route
// overrides, so a caller that reuses its map afterwards moves neither the
// backend that answers nor the result-cache key.
func TestSessionOwnsRoutes(t *testing.T) {
	w := world.Build()
	rt, err := NewRuntimeWithBackends([]BackendDef{
		{Name: "strong", Client: simllm.New(simllm.ChatGPT, w, 1)},
		{Name: "cheap", Client: simllm.New(simllm.GPT3, w, 1)},
	}, "strong", nil, ServeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.BindLLMTable(w.Table("city").Def); err != nil {
		t.Fatal(err)
	}
	routedTo := func(backend string) *Session {
		s := rt.NewSession()
		opts := s.Options()
		opts.Routes = map[string]string{"fetch": backend}
		s.SetOptions(opts)
		return s
	}
	s := rt.NewSession()
	routes := map[string]string{"fetch": "cheap"}
	opts := s.Options()
	opts.Routes = routes
	s.SetOptions(opts)
	routes["fetch"] = "strong"

	if got := s.Options().Routes["fetch"]; got != "cheap" {
		t.Errorf("session fetch route = %q after the caller's map changed, want cheap", got)
	}
	if rep, _ := populations(t, s); rep.Cached != CacheNone {
		t.Fatalf("first run cached = %q, want an execution", rep.Cached)
	}
	if n := backendPrompts(t, rt, "cheap"); n == 0 {
		t.Error("the fetches did not go to cheap: the session read the caller's changed map")
	}
	if rep, _ := populations(t, routedTo("cheap")); rep.Cached != CacheExact {
		t.Errorf("a fetch=cheap session got %q, want the exact hit the first run left", rep.Cached)
	}
	if rep, _ := populations(t, routedTo("strong")); rep.Cached != CacheNone {
		t.Errorf("a fetch=strong session got %q, want its own execution", rep.Cached)
	}
}

// planCost plans sql on s and returns the planner's estimate.
func planCost(t *testing.T, s *Session, sql string) *optimizer.PlanCost {
	t.Helper()
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.prepare(sel)
	if err != nil {
		t.Fatal(err)
	}
	_, cost, err := s.choose(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cost
}

// fetchRows is the estimated input of the plan's one attribute fetch.
func fetchRows(t *testing.T, cost *optimizer.PlanCost) float64 {
	t.Helper()
	for n, est := range cost.Nodes {
		if _, ok := n.(*logical.FetchAttr); ok {
			return est.Rows
		}
	}
	t.Fatal("plan has no attribute fetch")
	return 0
}

// TestVerifyPricedOnRoutedBackend: verification ignores a table's pin, at
// execution and in the estimate alike, so a pinned table's verify
// prompts are charged the cost weight of the backend the verify route
// names, not the pinned backend's.
func TestVerifyPricedOnRoutedBackend(t *testing.T) {
	w := world.Build()
	opts := DefaultOptions()
	opts.CacheEnabled = false
	rt, err := NewRuntimeWithBackends([]BackendDef{
		{Name: "primary", Client: simllm.New(simllm.ChatGPT, w, 1)},
		{Name: "pinned", Client: simllm.New(simllm.ChatGPT, w, 1)},
		{Name: "checker", Client: simllm.New(simllm.GPT3, w, 1), CostWeight: 3},
	}, "primary", map[string]string{"verify": "checker"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	city := *w.Table("city").Def
	city.Backend = "pinned"
	if err := rt.BindLLMTable(&city); err != nil {
		t.Fatal(err)
	}
	s := rt.NewSession()
	cost := planCost(t, s, verifySQL)
	// Scan and fetch prompts weigh 1 on the pinned backend; each verify
	// prompt weighs 3, 2 more than the unit its Prompts entry adds.
	rows := fetchRows(t, cost)
	if want := cost.Prompts + 2*rows; math.Abs(cost.Cost-want) > 1e-9 {
		t.Errorf("estimated cost %.3f for %.1f prompts over %.1f fetched rows, want %.3f (verify at the checker's weight 3)", cost.Cost, cost.Prompts, rows, want)
	}
	if _, _, err := s.Query(context.Background(), verifySQL); err != nil {
		t.Fatal(err)
	}
	// Execution agrees: the pin takes the scan and the fetches, the
	// verify route the checks.
	if p, c, d := backendPrompts(t, rt, "pinned"), backendPrompts(t, rt, "checker"), backendPrompts(t, rt, "primary"); p == 0 || c == 0 || d != 0 {
		t.Errorf("prompts: pinned %d, checker %d, primary %d; want the pinned and checker backends busy, the default idle", p, c, d)
	}
}

// TestVerifyOnSelfEstimate: a verify route naming the sole backend of an
// unpriced runtime puts the verifier's work on that backend's endpoint,
// as the scheduler does, so with one worker it stretches the estimated
// makespan where a second endpoint would absorb it.
func TestVerifyOnSelfEstimate(t *testing.T) {
	w := world.Build()
	opts := DefaultOptions()
	opts.CacheEnabled = false
	opts.BatchWorkers = 1
	self := NewRuntime(simllm.New(simllm.ChatGPT, w, 1), opts)
	other, err := NewRuntimeWithBackends([]BackendDef{
		{Name: "chatgpt", Client: simllm.New(simllm.ChatGPT, w, 1)},
		{Name: "checker", Client: simllm.New(simllm.ChatGPT, w, 2)},
	}, "chatgpt", map[string]string{"verify": "checker"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range []*Runtime{self, other} {
		if err := rt.BindLLMTable(w.Table("city").Def); err != nil {
			t.Fatal(err)
		}
	}
	unverified := planCost(t, self.NewSession(), verifySQL)
	s := self.NewSession()
	sopts := s.Options()
	sopts.Routes = map[string]string{"verify": "chatgpt"}
	s.SetOptions(sopts)
	onSelf := planCost(t, s, verifySQL)
	onOther := planCost(t, other.NewSession(), verifySQL)

	if onSelf.Priced || !onOther.Priced {
		t.Fatalf("priced: self %v, other %v; want an unpriced self-verifying estimate", onSelf.Priced, onOther.Priced)
	}
	if onSelf.Prompts != onOther.Prompts || onSelf.Prompts <= unverified.Prompts {
		t.Errorf("prompts: self %.1f, other %.1f, unverified %.1f; want equal verified counts above the unverified", onSelf.Prompts, onOther.Prompts, unverified.Prompts)
	}
	if onOther.Latency != unverified.Latency {
		t.Errorf("a verifier on its own endpoint moved the estimated makespan %s -> %s; it only overlaps", unverified.Latency, onOther.Latency)
	}
	if onSelf.Latency <= onOther.Latency {
		t.Errorf("verify-on-self makespan %s, want above the second endpoint's %s: one worker serves both", onSelf.Latency, onOther.Latency)
	}

	_, rep, err := s.Query(context.Background(), verifySQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sched.Work) != 1 || rep.Sched.Work["chatgpt"] == 0 {
		t.Errorf("scheduler work by endpoint = %v, want all of it on chatgpt", rep.Sched.Work)
	}
}
