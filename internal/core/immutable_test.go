package core_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/logical"
	"repro/internal/simllm"
	"repro/internal/spider"
	"repro/internal/sql/parser"
)

// TestPlanningLeavesBuiltPlan pins that plan nodes are values: planning
// a built plan — the fixed heuristics, the cost-based enumeration with
// and without prompt pushdown, and the enumeration under the stop-and-go
// policy, where join input order moves the wave sum and a swapped join
// wins (swap) — leaves its rendering
// byte-identical, chooses the plan a freshly built copy gets, and uses
// every node of the chosen plan once. The statements are the corpus and
// the differential generator's queries, ad-hoc templates and
// subsumption pairs.
func TestPlanningLeavesBuiltPlan(t *testing.T) {
	var stmts []string
	for _, q := range spider.Queries() {
		stmts = append(stmts, q.SQL)
	}
	for seed := int64(1); seed <= 4; seed++ {
		gen := difftest.New(seed)
		for range 25 {
			p := gen.Pair()
			stmts = append(stmts, gen.Query().SQL, gen.Adhoc().SQL, p.Parent, p.Child)
		}
	}
	pushdown := core.ServeOptions()
	pushdown.Optimizer.PromptPushdown = true
	swap := bench.PaperOptions()
	swap.Optimizer.CostBased = true
	r, err := bench.NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"paper", bench.PaperOptions()},
		{"serve", core.ServeOptions()},
		{"pushdown", pushdown},
		{"swap", swap},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := r.Runtime(r.Model(simllm.ChatGPT), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			s := rt.NewSession()
			for _, sql := range stmts {
				sel, err := parser.ParseSelect(sql)
				if err != nil {
					t.Fatal(err)
				}
				built, err := logical.Build(sel, s)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				before := logical.Fingerprint(built)
				plan, err := s.PlanBuilt(sel, built)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				if after := logical.Fingerprint(built); after != before {
					t.Fatalf("%s: planning changed the built plan\nbefore %s\nafter  %s", sql, before, after)
				}
				fresh, err := s.PlanBuilt(sel, nil)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				if got, want := logical.Explain(plan), logical.Explain(fresh); got != want {
					t.Fatalf("%s: chose\n%s\nfrom a fresh build\n%s", sql, got, want)
				}
				seen := map[logical.Node]bool{}
				logical.Walk(plan, func(n logical.Node) bool {
					if seen[n] {
						t.Fatalf("%s: %q appears twice in\n%s", sql, n.Describe(), logical.Explain(plan))
					}
					seen[n] = true
					return true
				})
			}
		})
	}
}
