package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/llm"
	"repro/internal/simllm"
	"repro/internal/world"
)

// runtimeOver builds a runtime over the given client with the world's
// LLM tables bound.
func runtimeOver(t *testing.T, client llm.Client, opts Options, w *world.World) *Runtime {
	t.Helper()
	rt := NewRuntime(client, opts)
	for _, name := range []string{"country", "city", "mayor", "stadium", "mountain"} {
		if err := rt.BindLLMTable(w.Table(name).Def); err != nil {
			t.Fatal(err)
		}
	}
	return rt
}

// TestConcurrentBindAndQuery is the data-race regression for the table
// bindings: sessions plan (ResolveTable reads) while BindLLMTable writes
// concurrently. Run under -race this fails on any unguarded access to
// the binding map.
func TestConcurrentBindAndQuery(t *testing.T) {
	w := world.Build()
	model := simllm.New(simllm.ChatGPT, w, 1)
	rt := NewRuntime(model, DefaultOptions())
	if err := rt.BindLLMTable(w.Table("country").Def); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Writers: rebind a rotating set of tables while queries run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			for _, name := range []string{"city", "mayor", "stadium", "mountain", "country"} {
				if err := rt.BindLLMTable(w.Table(name).Def); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	// Readers: concurrent sessions planning and executing against the
	// always-present country binding.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := rt.NewSession()
			for i := 0; i < 5; i++ {
				if _, _, err := sess.Query(ctx, `SELECT name FROM country WHERE continent = 'Europe'`); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentSessionsBitIdentical: many sessions querying one shared
// runtime concurrently each get exactly the relation a serial run
// produces — results are isolation-independent.
func TestConcurrentSessionsBitIdentical(t *testing.T) {
	w := world.Build()
	queries := []string{
		`SELECT name FROM country WHERE continent = 'Europe'`,
		`SELECT name, population FROM city WHERE population > 1000000`,
		`SELECT name FROM mayor WHERE election_year = 2019`,
		`SELECT name, capacity FROM stadium WHERE capacity > 40000`,
		`SELECT name FROM mountain WHERE height > 5000`,
	}
	opts := DefaultOptions()
	opts.CacheEnabled = false // prompt counts must be per-query exact

	// Serial baselines on a fresh runtime each (no shared state at all).
	want := make([]string, len(queries))
	wantPrompts := make([]int, len(queries))
	for i, q := range queries {
		rt := runtimeOver(t, simllm.New(simllm.ChatGPT, w, 1), opts, w)
		rel, rep, err := rt.NewSession().Query(context.Background(), q)
		if err != nil {
			t.Fatalf("serial %q: %v", q, err)
		}
		want[i] = rel.String()
		wantPrompts[i] = rep.Stats.Prompts
	}

	// The same queries, concurrently, all on ONE runtime (one scheduler,
	// one statistics store), several rounds each.
	rt := runtimeOver(t, simllm.New(simllm.ChatGPT, w, 1), opts, w)
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q string) {
				defer wg.Done()
				rel, rep, err := rt.NewSession().Query(context.Background(), q)
				if err != nil {
					t.Errorf("concurrent %q: %v", q, err)
					return
				}
				if rel.String() != want[i] {
					t.Errorf("concurrent %q diverged from serial run:\n%s\nwant:\n%s", q, rel.String(), want[i])
				}
				if rep.Stats.Prompts != wantPrompts[i] {
					t.Errorf("concurrent %q issued %d prompts, serial run issued %d", q, rep.Stats.Prompts, wantPrompts[i])
				}
			}(i, q)
		}
	}
	wg.Wait()
}

// cancellingClient cancels a context after `after` completions whose
// prompt mentions `match` — a cross-model trigger for mid-flight query
// cancellation.
type cancellingClient struct {
	inner  llm.Client
	match  string
	after  int
	cancel context.CancelFunc

	mu   sync.Mutex
	seen int
}

func (c *cancellingClient) Name() string { return c.inner.Name() }

func (c *cancellingClient) Complete(ctx context.Context, p string) (string, error) {
	if strings.Contains(p, c.match) {
		c.mu.Lock()
		c.seen++
		if c.seen == c.after {
			c.cancel()
		}
		c.mu.Unlock()
	}
	return c.inner.Complete(ctx, p)
}

// TestCancelledQueryDoesNotPerturbConcurrent is the cancellation
// satellite: a query cancelled mid-flight under the shared scheduler
// resolves promptly, frees its workers, and leaves a concurrent query's
// result relation and prompt count exactly as a solo run — then the
// runtime keeps serving.
func TestCancelledQueryDoesNotPerturbConcurrent(t *testing.T) {
	w := world.Build()
	opts := DefaultOptions()
	opts.CacheEnabled = false // B's prompt count must not depend on A's progress

	const bQuery = `SELECT name, population FROM city WHERE population > 1000000`

	// Solo baseline for B on a fresh runtime.
	solo := runtimeOver(t, simllm.New(simllm.ChatGPT, w, 1), opts, w)
	wantRel, wantRep, err := solo.NewSession().Query(context.Background(), bQuery)
	if err != nil {
		t.Fatal(err)
	}

	// Shared runtime: A (over stadium) is cancelled after its third
	// stadium prompt; B runs concurrently to completion.
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	client := &cancellingClient{
		inner:  simllm.New(simllm.ChatGPT, w, 1),
		match:  "stadium",
		after:  3,
		cancel: cancelA,
	}
	rt := runtimeOver(t, client, opts, w)

	var wg sync.WaitGroup
	var errA error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, errA = rt.NewSession().Query(ctxA, `SELECT name, capacity, opened_year FROM stadium WHERE capacity > 40000`)
	}()
	var relB string
	var promptsB int
	var errB error
	wg.Add(1)
	go func() {
		defer wg.Done()
		rel, rep, err := rt.NewSession().Query(context.Background(), bQuery)
		if err != nil {
			errB = err
			return
		}
		relB, promptsB = rel.String(), rep.Stats.Prompts
	}()
	wg.Wait()

	if !errors.Is(errA, context.Canceled) {
		t.Errorf("cancelled query err = %v, want context.Canceled", errA)
	}
	if errB != nil {
		t.Fatalf("concurrent query failed: %v", errB)
	}
	if relB != wantRel.String() {
		t.Errorf("concurrent query perturbed by cancellation:\n%s\nwant:\n%s", relB, wantRel.String())
	}
	if promptsB != wantRep.Stats.Prompts {
		t.Errorf("concurrent query issued %d prompts, solo run issued %d", promptsB, wantRep.Stats.Prompts)
	}

	// The cancelled tenant released its slots: the runtime still serves.
	rel, rep, err := rt.NewSession().Query(context.Background(), `SELECT name FROM country WHERE continent = 'Europe'`)
	if err != nil {
		t.Fatalf("runtime wedged after cancellation: %v", err)
	}
	if rel.Cardinality() == 0 || rep.Stats.Prompts == 0 {
		t.Errorf("post-cancellation query returned %d rows / %d prompts", rel.Cardinality(), rep.Stats.Prompts)
	}
}

// TestEngineTiersShared: two sessions on one runtime share its tiers —
// bindings and prompt cache included.
func TestEngineTiersShared(t *testing.T) {
	w := world.Build()
	rt := NewRuntime(simllm.New(simllm.ChatGPT, w, 1), DefaultOptions())
	if err := rt.BindLLMTable(w.Table("country").Def); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.NewSession().Query(context.Background(), `SELECT name FROM country WHERE continent = 'Europe'`); err != nil {
		t.Fatal(err)
	}
	misses := rt.Stats().CacheStats.Misses
	if misses == 0 {
		t.Fatal("expected cache misses after first query")
	}
	// A second session over the same runtime replays from the cache.
	if _, _, err := rt.NewSession().Query(context.Background(), `SELECT name FROM country WHERE continent = 'Europe'`); err != nil {
		t.Fatal(err)
	}
	after := rt.Stats().CacheStats
	if after.Misses != misses {
		t.Errorf("second session re-issued prompts: misses %d -> %d", misses, after.Misses)
	}
	if after.Hits == 0 {
		t.Error("second session hit the shared cache 0 times")
	}
}
