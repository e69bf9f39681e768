package bench

import (
	"context"
	"testing"

	"repro/internal/core"
)

// TestVerifyOnSelfCachedEstimate: on the galois.yaml runtime with the
// prompt cache on, a verify route to the fetch's own backend asks the
// fetch's prompts again under the same model name, so the cache answers
// every one of them. The planner must not price them: the estimate
// equals the unverified one, as the prompts issued do.
func TestVerifyOnSelfCachedEstimate(t *testing.T) {
	const sql = `SELECT name, population FROM city WHERE population > 5000000`
	r, err := NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	var reps [2]*core.Report
	for i, routes := range []map[string]string{nil, {"verify": "strong"}} {
		opts := core.ServeOptions()
		opts.Routes = routes
		rt, _, err := r.RuntimeFor("chatgpt", "../../galois.yaml", opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, reps[i], err = rt.NewSession().Query(context.Background(), sql); err != nil {
			t.Fatal(err)
		}
	}
	plain, verified := reps[0], reps[1]
	if verified.Stats.CacheHits == 0 {
		t.Fatalf("verified run: no prompt-cache hits (%s); verification is not on", verified.Stats)
	}
	if verified.Stats.Prompts != 44 || plain.Stats.Prompts != 44 {
		t.Errorf("prompts issued: verified %d, unverified %d; want 44 each", verified.Stats.Prompts, plain.Stats.Prompts)
	}
	if v, p := verified.Estimate, plain.Estimate; v.Prompts != p.Prompts || v.Cost != p.Cost || v.Latency != p.Latency {
		t.Errorf("estimate: verified %s, unverified %s; want equal", v, p)
	}
}
