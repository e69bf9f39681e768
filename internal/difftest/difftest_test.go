package difftest

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/simllm"
)

// session opens a session on a fresh runtime over the simulated ChatGPT
// with the benchmark schema bound.
func session(t *testing.T, r *bench.Runner, opts core.Options) *core.Session {
	t.Helper()
	rt, err := r.Runtime(r.Model(simllm.ChatGPT), opts)
	if err != nil {
		t.Fatal(err)
	}
	return rt.NewSession()
}

// runner builds the benchmark fixture.
func runner(t *testing.T) *bench.Runner {
	t.Helper()
	r, err := bench.NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDifferentialBatchedVsPipelined runs ~200 seeded random queries
// under both execution policies and requires identical result relations
// — and, on LIMIT-free plans, identical prompt counts. Under stop-and-go
// a LIMIT never cuts prompt issue short, so each LIMIT statement must
// also issue exactly the prompts of its LIMIT-free form. This is the
// randomized cross-check CI runs under -race.
func TestDifferentialBatchedVsPipelined(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	// One stop-and-go ("batched") and one streaming ("pipelined") session
	// over the same simulated model seed, cache off so prompt counts are
	// model calls.
	r := runner(t)
	pipelinedOpts := bench.PaperOptions()
	pipelinedOpts.Pipelined = true
	batched, pipelined := session(t, r, bench.PaperOptions()), session(t, r, pipelinedOpts)
	gen := New(42)
	ctx := context.Background()

	for i := 0; i < n; i++ {
		q := gen.Query()
		relB, repB, err := batched.Query(ctx, q.SQL)
		if err != nil {
			t.Fatalf("query %d (batched) %q: %v", i, q.SQL, err)
		}
		relP, repP, err := pipelined.Query(ctx, q.SQL)
		if err != nil {
			t.Fatalf("query %d (pipelined) %q: %v", i, q.SQL, err)
		}
		if relB.String() != relP.String() {
			t.Errorf("query %d: executors disagree on %q\nbatched:\n%s\npipelined:\n%s",
				i, q.SQL, relB.String(), relP.String())
		}
		if !q.HasLimit {
			if repB.Stats.Prompts != repP.Stats.Prompts {
				t.Errorf("query %d: prompt counts differ on LIMIT-free %q: batched=%d pipelined=%d",
					i, q.SQL, repB.Stats.Prompts, repP.Stats.Prompts)
			}
			continue
		}
		// Both arms run the LIMIT-free form, keeping their adaptive
		// statistics (and so every later plan choice) in lockstep.
		free := q.SQL[:strings.Index(q.SQL, " LIMIT ")]
		_, repFree, err := batched.Query(ctx, free)
		if err != nil {
			t.Fatalf("query %d (batched, LIMIT-free) %q: %v", i, free, err)
		}
		if _, _, err := pipelined.Query(ctx, free); err != nil {
			t.Fatalf("query %d (pipelined, LIMIT-free) %q: %v", i, free, err)
		}
		if repB.Stats.Prompts != repFree.Stats.Prompts {
			t.Errorf("query %d: stop-and-go %q issued %d prompts, its LIMIT-free form %d",
				i, q.SQL, repB.Stats.Prompts, repFree.Stats.Prompts)
		}
	}
}

// TestDifferentialCostBased cross-checks the cost-based optimizer the
// same way: whatever plan it picks, both policies must agree on the
// result.
func TestDifferentialCostBased(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 15
	}
	r := runner(t)
	pipelinedOpts := bench.CostBasedOptions()
	pipelinedOpts.Pipelined = true
	batched, pipelined := session(t, r, bench.CostBasedOptions()), session(t, r, pipelinedOpts)
	gen := New(7)
	ctx := context.Background()
	// LIMIT queries are safe to include: the engine excludes plans with
	// a LIMIT from statistics observation (their counters depend on the
	// execution policy), so the two arms' adaptive statistics — and
	// with them every future plan choice — stay in lockstep.
	for i := 0; i < n; i++ {
		q := gen.Query()
		relB, _, err := batched.Query(ctx, q.SQL)
		if err != nil {
			t.Fatalf("query %d (batched) %q: %v", i, q.SQL, err)
		}
		relP, _, err := pipelined.Query(ctx, q.SQL)
		if err != nil {
			t.Fatalf("query %d (pipelined) %q: %v", i, q.SQL, err)
		}
		if relB.String() != relP.String() {
			t.Errorf("query %d: executors disagree on %q\nbatched:\n%s\npipelined:\n%s",
				i, q.SQL, relB.String(), relP.String())
		}
	}
}

// TestGeneratorDeterminism pins the seeded sequence: the harness is only
// reproducible if the same seed yields the same queries.
func TestGeneratorDeterminism(t *testing.T) {
	a, b := New(3), New(3)
	for i := 0; i < 50; i++ {
		qa, qb := a.Query(), b.Query()
		if qa != qb {
			t.Fatalf("query %d diverged: %q vs %q", i, qa.SQL, qb.SQL)
		}
	}
}

// TestDifferentialConcurrentVsSerial is the isolation differential: the
// seeded query corpus runs K-ways concurrently against ONE shared
// runtime (one scheduler, one statistics store, cache off so prompt
// accounting is per-query exact), and every query's relation must be
// bit-identical to its serial run. Runs under -race in CI.
func TestDifferentialConcurrentVsSerial(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 24
	}
	const k = 6

	r := runner(t)
	opts := bench.PaperOptions() // cache off
	opts.Pipelined = true
	// Fixed heuristic plans: under cost-based planning the plan of query
	// i depends on the statistics observed from queries before it, which
	// is execution-order-dependent; results would still match but prompt
	// counts could not be compared.
	opts.Optimizer.CostBased = false

	// Serial arm: its own runtime, one query at a time.
	serial := session(t, r, opts)
	gen := New(99)
	queries := make([]Query, n)
	serialRels := make([]string, n)
	serialPrompts := make([]int, n)
	for i := 0; i < n; i++ {
		queries[i] = gen.Query()
		rel, rep, err := serial.Query(context.Background(), queries[i].SQL)
		if err != nil {
			t.Fatalf("query %d (serial) %q: %v", i, queries[i].SQL, err)
		}
		serialRels[i] = rel.String()
		serialPrompts[i] = rep.Stats.Prompts
	}

	// Concurrent arm: one shared runtime, k queries in flight at a time.
	rt, err := r.Runtime(r.Model(simllm.ChatGPT), opts)
	if err != nil {
		t.Fatal(err)
	}
	sem := make(chan struct{}, k)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rel, rep, err := rt.NewSession().Query(context.Background(), queries[i].SQL)
			if err != nil {
				t.Errorf("query %d (concurrent) %q: %v", i, queries[i].SQL, err)
				return
			}
			if rel.String() != serialRels[i] {
				t.Errorf("query %d: concurrent run diverged on %q\nconcurrent:\n%s\nserial:\n%s",
					i, queries[i].SQL, rel.String(), serialRels[i])
			}
			// LIMIT plans may legitimately issue fewer prompts (early
			// termination races the producers); everything else must pay
			// exactly the serial price.
			if !queries[i].HasLimit && rep.Stats.Prompts != serialPrompts[i] {
				t.Errorf("query %d: prompt count diverged on LIMIT-free %q: concurrent=%d serial=%d",
					i, queries[i].SQL, rep.Stats.Prompts, serialPrompts[i])
			}
		}(i)
	}
	wg.Wait()
}

// TestDifferentialSubsumption is the semantic-cache differential: for
// each seeded parent/child pair, a cache-on engine runs the parent (the
// producer) and then the child, which must be answered without a single
// prompt — by subsumption on first sight, or exactly if an earlier pair
// already cached the same statement — while a cache-off control engine
// runs the child directly. The relations must be bit-identical: a
// residual plan over a cached relation is only correct if nobody can
// tell it apart from direct execution. Runs under -race in CI.
func TestDifferentialSubsumption(t *testing.T) {
	n := 80
	if testing.Short() {
		n = 16
	}
	r := runner(t)
	cachedOpts := bench.PaperOptions()
	cachedOpts.Pipelined = true
	cachedOpts.Optimizer.CostBased = false
	cachedOpts.ResultCacheEnabled = true
	controlOpts := cachedOpts
	controlOpts.ResultCacheEnabled = false
	cached, control := session(t, r, cachedOpts), session(t, r, controlOpts)

	gen := New(1234)
	ctx := context.Background()
	seen := map[string]bool{}
	subsumed := 0
	for i := 0; i < n; i++ {
		p := gen.Pair()
		if _, _, err := cached.Query(ctx, p.Parent); err != nil {
			t.Fatalf("pair %d parent %q: %v", i, p.Parent, err)
		}
		relC, repC, err := cached.Query(ctx, p.Child)
		if err != nil {
			t.Fatalf("pair %d child (cached) %q: %v", i, p.Child, err)
		}
		relD, _, err := control.Query(ctx, p.Child)
		if err != nil {
			t.Fatalf("pair %d child (control) %q: %v", i, p.Child, err)
		}
		if relC.String() != relD.String() {
			t.Errorf("pair %d: cache-answered child diverged on %q (parent %q)\ncached:\n%s\ndirect:\n%s",
				i, p.Child, p.Parent, relC.String(), relD.String())
		}
		if repC.Stats.Prompts != 0 {
			t.Errorf("pair %d: child %q cost %d prompts, want 0 (parent %q, cached=%q)",
				i, p.Child, repC.Stats.Prompts, p.Parent, repC.Cached)
		}
		// First sight of this exact statement (and not a replay of its
		// own parent) must be answered by subsumption, not exact match.
		if !seen[p.Child] && p.Child != p.Parent {
			if repC.Cached != core.CacheSubsumed {
				t.Errorf("pair %d: child %q answered with cached=%q, want %q (parent %q)",
					i, p.Child, repC.Cached, core.CacheSubsumed, p.Parent)
			} else {
				subsumed++
			}
		}
		seen[p.Parent] = true
		seen[p.Child] = true
	}
	if subsumed == 0 {
		t.Fatal("no pair exercised subsumption")
	}
	t.Logf("%d/%d children answered by subsumption on first sight", subsumed, n)
}
