package bench

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/faultllm"
	"repro/internal/llm"
	"repro/internal/simllm"
	"repro/internal/spider"
)

// TestPerQueryUsageSumsToBackends: per-query reports add up to what the
// backends saw. The runtime is shaped like galois.yaml (cheap/strong with
// mutual fallbacks, key scans and filters on cheap), verification is
// routed to the fetch chain, and both transports suffer seeded transient
// faults. Over the corpus, Σ Report.Stats.Prompts equals the backends'
// prompt-count deltas, and Σ Retries and Faults equal the transports'
// counter deltas: a prompt is counted once, on the query that issued it,
// even when the verifier shares the primary's chain.
func TestPerQueryUsageSumsToBackends(t *testing.T) {
	r, err := NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pipelined := range []bool{true, false} {
		for _, cache := range []bool{true, false} {
			t.Run(fmt.Sprintf("pipelined=%v/cache=%v", pipelined, cache), func(t *testing.T) {
				opts := core.ServeOptions()
				opts.Pipelined = pipelined
				opts.CacheEnabled = cache
				rt := faultyRoutedRuntime(t, r, opts)
				prompts, retries, faults := backendMeters(rt)

				var sum llm.Stats
				for _, q := range spider.Queries() {
					_, rep, err := rt.NewSession().Query(context.Background(), q.SQL)
					if err != nil {
						t.Fatalf("%q: %v", q.SQL, err)
					}
					sum.Add(rep.Stats)
				}
				prompts2, retries2, faults2 := backendMeters(rt)
				if sum.Prompts == 0 || sum.Retries == 0 {
					t.Fatalf("the corpus must issue prompts and retry faults: %s", sum)
				}
				if got := prompts2 - prompts; int64(sum.Prompts) != got {
					t.Errorf("Σ report prompts = %d, backends answered %d", sum.Prompts, got)
				}
				if got := retries2 - retries; int64(sum.Retries) != got {
					t.Errorf("Σ report retries = %d, transports retried %d", sum.Retries, got)
				}
				if got := faults2 - faults; int64(sum.Faults) != got {
					t.Errorf("Σ report faults = %d, transports saw %d", sum.Faults, got)
				}
			})
		}
	}
}

// faultyRoutedRuntime builds the galois.yaml routing over two chatgpt
// backends, each behind a seeded 12% transient-fault injector and a
// resilient transport that always heals (no breaker, unlimited retry
// budget, instant backoff), with verification on the strong backend.
func faultyRoutedRuntime(t *testing.T, r *Runner, opts core.Options) *core.Runtime {
	t.Helper()
	transport := func(name string) llm.Client {
		inj := faultllm.Wrap(r.Model(simllm.ChatGPT), faultllm.Profile{Seed: r.Seed, TransientRate: 0.12})
		return llm.NewResilient(inj, llm.ResilientConfig{
			Endpoint:           name,
			BreakerThreshold:   -1,
			RetryBudgetReserve: 1e6,
			Sleep:              instantSleep,
		})
	}
	defs := []core.BackendDef{
		{Name: "cheap", Client: transport("cheap"), CostWeight: RoutingCheapCost, Fallback: []string{"strong"}},
		{Name: "strong", Client: transport("strong"), Fallback: []string{"cheap"}},
	}
	routes := map[string]string{"keyscan": "cheap", "filter": "cheap", "verify": "strong"}
	rt, err := core.NewRuntimeWithBackends(defs, "strong", routes, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rt, err = r.bind(rt); err != nil {
		t.Fatal(err)
	}
	return rt
}

// backendMeters sums the runtime's lifetime per-backend prompt counts and
// resilience retry and fault counters.
func backendMeters(rt *core.Runtime) (prompts, retries, faults int64) {
	for _, b := range rt.Stats().Backends {
		prompts += b.Prompts
	}
	for _, h := range rt.Stats().Resilience {
		retries += h.Counters.Retries
		faults += h.Counters.Faults
	}
	return prompts, retries, faults
}
