package bench

import (
	"context"
	"strings"
	"testing"

	"repro/internal/simllm"
)

// TestExplainAnalyzeThroughEngine exercises the SQL front end through a
// session: EXPLAIN returns the annotated plan without executing, EXPLAIN
// ANALYZE executes and annotates actual counters.
func TestExplainAnalyzeThroughEngine(t *testing.T) {
	r := runner(t)
	rt, err := r.Runtime(r.Model(simllm.ChatGPT), CostBasedOptions())
	if err != nil {
		t.Fatal(err)
	}
	sess := rt.NewSession()
	ctx := context.Background()

	rel, rep, err := sess.Query(ctx, "EXPLAIN SELECT name FROM city WHERE population > 1000000")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Prompts != 0 {
		t.Errorf("EXPLAIN must not execute, issued %d prompts", rep.Stats.Prompts)
	}
	text := rel.String()
	for _, want := range []string{"LLMKeyScan", "est rows", "estimated: prompts="} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN output missing %q:\n%s", want, text)
		}
	}

	rel, rep, err = sess.Query(ctx, "EXPLAIN ANALYZE SELECT name FROM city WHERE population > 1000000")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Prompts == 0 {
		t.Error("EXPLAIN ANALYZE must execute the query")
	}
	text = rel.String()
	for _, want := range []string{"actual rows=", "actual:    prompts="} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, text)
		}
	}
}
