package bench

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/simllm"
)

// runArtifact runs the Artifacts row called name on ChatGPT in a fresh
// runner and fails the test unless the report meets its acceptance
// criteria.
func runArtifact(t *testing.T, name string) Report {
	t.Helper()
	for _, a := range Artifacts {
		if a.Name != name {
			continue
		}
		rep, err := a.Run(context.Background(), runner(t), simllm.ChatGPT, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.CheckAcceptance(); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	t.Fatalf("no artifact named %q", name)
	return nil
}

// checkDeterministic runs the Artifacts row called name twice, each in a
// fresh runner and scratch directory, and fails unless both reports
// encode byte for byte alike.
func checkDeterministic(t *testing.T, name string) {
	t.Helper()
	var runs [2][]byte
	for i := range runs {
		var err error
		if runs[i], err = EncodeArtifact(runArtifact(t, name)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Errorf("%s comparison not deterministic:\n%s", name, firstDiff(runs[0], runs[1]))
	}
}

// TestConcurrencyComparison is the acceptance gate of the shared-runtime
// concurrency model: K corpus queries sharing one scheduler must finish
// in aggregate simulated makespan at least 2x better than running one at
// a time, with every relation and per-query prompt count bit-identical
// between the two isolation modes. Runs under -race in CI, so it
// double-checks the runtime's concurrency safety too.
func TestConcurrencyComparison(t *testing.T) {
	rep := runArtifact(t, "concurrency").(*ConcurrencyReport)
	if rep.Serial.Queries != rep.Concurrent.Queries || rep.Serial.Queries == 0 {
		t.Errorf("arm sizes diverged: serial %d vs concurrent %d", rep.Serial.Queries, rep.Concurrent.Queries)
	}
	if rep.Serial.TotalPrompts != rep.Concurrent.TotalPrompts {
		t.Errorf("total prompts diverged: serial %d vs concurrent %d", rep.Serial.TotalPrompts, rep.Concurrent.TotalPrompts)
	}
	t.Logf("corpus of %d: serial %.1f s -> concurrent-k%d %.1f s (%.2fx, W=%d)",
		rep.Serial.Queries, rep.Serial.AggregateMakespanMS/1000,
		rep.K, rep.Concurrent.AggregateMakespanMS/1000, rep.SpeedupX, rep.Workers)
}

func TestConcurrencyDeterministic(t *testing.T) { checkDeterministic(t, "concurrency") }

// TestChaosComparison is the acceptance gate of the fault-tolerant LLM
// transport: under seeded transient and malformed-output fault profiles
// with retries enabled, every corpus query must heal bit-identical to
// the fault-free run; with retries disabled the same faults must lose
// queries, all surfaced through the error taxonomy; and a total outage
// must walk the breaker through open -> shed -> half-open probe ->
// closed with no stale cache entries. Runs under -race in CI.
func TestChaosComparison(t *testing.T) {
	rep := runArtifact(t, "chaos").(*ChaosReport)
	t.Logf("transient: %d faults healed by %d retries over %d queries (no-retry control lost %d)",
		rep.Transient.Faults, rep.Transient.Retries, rep.Transient.Queries, rep.NoRetry.FailedQueries)
}

func TestChaosDeterministic(t *testing.T) { checkDeterministic(t, "chaos") }

// TestResultCacheComparison is the acceptance gate of the result cache:
// repeated identical corpus traffic must cost zero prompts while every
// relation stays bit-identical to the uncached control, the cold pass
// must never cost more than the control, and a PrimeTableKeys bump on
// one table must re-execute that table's queries while sparing every
// other table's, without changing a result.
func TestResultCacheComparison(t *testing.T) {
	rep := runArtifact(t, "resultcache").(*ResultCacheReport)
	if rep.CacheableQueries == 0 {
		t.Fatal("no cacheable queries in the corpus")
	}
	if rep.CacheableQueries+rep.LimitQueries != rep.Queries {
		t.Errorf("per-class counts don't add up: %d + %d != %d",
			rep.CacheableQueries, rep.LimitQueries, rep.Queries)
	}
	t.Logf("corpus of %d (%d cacheable): cold %d prompts, hot %d prompts, %d cache hits",
		rep.Queries, rep.CacheableQueries, rep.CachedFirstPrompts,
		rep.RepeatPromptsCacheable+rep.RepeatPromptsLimit, rep.ResultCacheHits)
}

func TestResultCacheDeterministic(t *testing.T) { checkDeterministic(t, "resultcache") }

// TestSemanticCacheComparison is the acceptance gate of the subsumption
// tier: every near-miss child whose plan a cached producer subsumes must
// be answered by a residual plan for zero prompts, bit-identical to
// direct execution, and a PrimeTableKeys bump must invalidate only the
// bumped table's entries.
func TestSemanticCacheComparison(t *testing.T) {
	rep := runArtifact(t, "semcache").(*SemCacheReport)
	if rep.Children == 0 || rep.ColdPrompts == 0 {
		t.Fatalf("degenerate corpus: %d children, %d cold prompts", rep.Children, rep.ColdPrompts)
	}
	t.Logf("%d parents (%d cold prompts), %d children all subsumed for 0 prompts",
		rep.Parents, rep.ColdPrompts, rep.Children)
}

func TestSemanticCacheDeterministic(t *testing.T) { checkDeterministic(t, "semcache") }

// TestRoutingComparison is the acceptance gate of multi-backend routing:
// the routed corpus must be bit-identical to the single-backend corpus
// at a strictly lower weighted prompt cost, and a total outage of the
// routed-to backend from mid-corpus onward must fail every prompt over
// to the strong backend with zero query failures. Runs under -race in CI.
func TestRoutingComparison(t *testing.T) {
	rep := runArtifact(t, "routing").(*RoutingReport)
	t.Logf("routing: weighted cost %.1f -> %.1f over %d queries; outage at query %d failed over %d prompts with %d failures",
		rep.Single.WeightedCost, rep.Routed.WeightedCost, rep.Queries,
		rep.Failover.OutageAtQuery, rep.Failover.Failovers, rep.Failover.FailedQueries)
}

func TestRoutingDeterministic(t *testing.T) { checkDeterministic(t, "routing") }

// TestPersistComparison is the acceptance gate of the durable store:
// four runtime generations over one data directory, each on a freshly
// seeded identical model, must agree on every relation, and an ANALYZE
// prime must re-execute exactly the primed table's cacheable queries.
func TestPersistComparison(t *testing.T) {
	rep := runArtifact(t, "persist").(*PersistReport)
	if rep.CacheableQueries == 0 {
		t.Fatal("no cacheable queries in the corpus")
	}
	if rep.CacheableQueries+rep.LimitQueries != rep.Queries {
		t.Errorf("per-class counts don't add up: %d + %d != %d",
			rep.CacheableQueries, rep.LimitQueries, rep.Queries)
	}
	if rep.PrimedCacheable == 0 {
		t.Error("ANALYZE probe vacuous: no cacheable query reads the primed table")
	}
	t.Logf("corpus of %d (%d cacheable): cold %d prompts, warm %d prompts, %d relations restored",
		rep.Queries, rep.CacheableQueries, rep.ColdPrompts, rep.WarmPrompts, rep.WarmRelations)
}

func TestPersistDeterministic(t *testing.T) { checkDeterministic(t, "persist") }
