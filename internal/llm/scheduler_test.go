package llm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// echoLLM answers every prompt with a fixed completion.
type echoLLM struct {
	name   string
	answer string
}

func (e *echoLLM) Name() string { return e.name }
func (e *echoLLM) Complete(ctx context.Context, p string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	return e.answer, nil
}

// latOf mirrors the scheduler's per-prompt cost for test expectations.
func latOf(prompt, out string) time.Duration {
	return promptLatency(CountTokens(prompt), CountTokens(out))
}

// tenant opens a test tenant on a fresh scheduler.
func tenant(s *Scheduler, t *testing.T) *Tenant {
	t.Helper()
	tn := s.Tenant(context.Background(), "")
	t.Cleanup(tn.Close)
	return tn
}

func TestSchedulerChainLatency(t *testing.T) {
	client := &echoLLM{name: "m", answer: "one two three"}
	tn := tenant(NewScheduler(nil, 4), t)

	// A three-prompt dependency chain: each prompt is ready when the
	// previous one completes.
	var vt VTime
	prompts := []string{"p one", "p one two", "p one two three"}
	var want VTime
	for _, p := range prompts {
		out, end, err := tn.Single().Submit(client, nil, p, vt).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if out != "one two three" {
			t.Fatalf("out = %q", out)
		}
		want += latOf(p, out)
		if end != want {
			t.Fatalf("chain end = %v, want %v", end, want)
		}
		vt = end
	}
	if got := tn.CriticalPath(); got != want {
		t.Errorf("critical path = %v, want %v", got, want)
	}
	// Three prompts on four workers: the chain dominates the area bound.
	if got := tn.Makespan(); got != want {
		t.Errorf("makespan = %v, want chain %v", got, want)
	}
}

func TestSchedulerAreaBoundDominates(t *testing.T) {
	client := &echoLLM{name: "m", answer: "a b c d e"}
	tn := tenant(NewScheduler(nil, 2), t)

	// 8 independent prompts (all ready at 0) on 2 workers: the critical
	// path is one prompt, the area bound is 4 prompts.
	const n = 8
	futs := make([]*Future, n)
	for i := range futs {
		futs[i] = tn.Submit(client, "independent prompt", 0)
	}
	one := latOf("independent prompt", "a b c d e")
	for _, f := range futs {
		_, end, err := f.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if end != one {
			t.Fatalf("independent prompt ends at %v, want %v", end, one)
		}
	}
	if got := tn.CriticalPath(); got != one {
		t.Errorf("critical path = %v, want %v", got, one)
	}
	if got, want := tn.Makespan(), time.Duration(n)*one/2; got != want {
		t.Errorf("makespan = %v, want area bound %v", got, want)
	}
}

// TestSchedulerPerEndpointBudget: two model endpoints have independent
// connection budgets, so a verifier's prompts never queue behind the
// primary model's — the makespan is the busier endpoint's area, not the
// sum.
func TestSchedulerPerEndpointBudget(t *testing.T) {
	primary := &echoLLM{name: "primary", answer: "a b c"}
	verifier := &echoLLM{name: "verifier", answer: "a b c"}
	tn := tenant(NewScheduler(nil, 2), t)

	const n = 6
	var futs []*Future
	for i := 0; i < n; i++ {
		futs = append(futs, tn.Submit(primary, "independent prompt", 0))
		futs = append(futs, tn.Submit(verifier, "independent prompt", 0))
	}
	for _, f := range futs {
		if _, _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	one := latOf("independent prompt", "a b c")
	want := time.Duration(n) * one / 2 // each endpoint's own area
	if got := tn.Makespan(); got != want {
		t.Errorf("makespan = %v, want per-endpoint area %v (summed would be %v)", got, want, 2*want)
	}
	if got := tn.AggregateWork(); got != 2*time.Duration(n)*one {
		t.Errorf("aggregate work = %v, want %v", got, 2*time.Duration(n)*one)
	}
}

func TestSchedulerCacheHitsCostNothing(t *testing.T) {
	client := &echoLLM{name: "m", answer: "x"}
	cache := NewCache(8)
	tn := tenant(NewScheduler(cache, 2), t)

	if _, _, err := tn.Single().Submit(client, nil, "same prompt", 0).Wait(); err != nil {
		t.Fatal(err)
	}
	first := tn.Makespan()
	if first == 0 {
		t.Fatal("issued prompt must cost latency")
	}
	// The identical prompt again, even anchored later on the chain, adds
	// neither span nor area.
	_, end, err := tn.Single().Submit(client, nil, "same prompt", first).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if end != first {
		t.Errorf("cache hit must complete at its ready time: %v, want %v", end, first)
	}
	if got := tn.Makespan(); got != first {
		t.Errorf("makespan grew on a cache hit: %v vs %v", got, first)
	}
	st := tn.Usage()
	if st.Prompts != 1 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("usage = %+v, want 1 prompt, 1 hit, 1 miss", st)
	}
	if st.SimulatedLatency != first {
		t.Errorf("usage latency = %v, want the makespan %v", st.SimulatedLatency, first)
	}
}

func TestSchedulerSingleflightCollapsesConcurrent(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	client := &countingLLM{onCall: func(string) {
		mu.Lock()
		calls++
		mu.Unlock()
	}}
	tn := tenant(NewScheduler(NewCache(8), 4), t)
	var futs []*Future
	for i := 0; i < 6; i++ {
		futs = append(futs, tn.Submit(client, "dup", 0))
	}
	for _, f := range futs {
		if _, _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Errorf("6 concurrent identical prompts issued %d model calls, want 1", calls)
	}
}

type countingLLM struct{ onCall func(prompt string) }

func (c *countingLLM) Name() string { return "counting" }
func (c *countingLLM) Complete(ctx context.Context, p string) (string, error) {
	c.onCall(p)
	return "ok", nil
}

// blockingLLM blocks until its context is canceled.
type blockingLLM struct {
	started chan struct{}
	once    sync.Once
}

func (b *blockingLLM) Name() string { return "blocking" }
func (b *blockingLLM) Complete(ctx context.Context, p string) (string, error) {
	b.once.Do(func() { close(b.started) })
	<-ctx.Done()
	return "", ctx.Err()
}

func TestSchedulerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	client := &blockingLLM{started: make(chan struct{})}
	s := NewScheduler(nil, 2)
	tn := s.Tenant(ctx, "cancelled")
	defer tn.Close()

	// Saturate both workers plus the queue, then cancel: every future —
	// in-flight and never-dispatched — must resolve with the cancellation.
	var futs []*Future
	for i := 0; i < 5; i++ {
		futs = append(futs, tn.Submit(client, fmt.Sprintf("p%d", i), 0))
	}
	<-client.started
	cancel()
	for i, f := range futs {
		done := make(chan struct{})
		var err error
		go func() {
			_, _, err = f.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("future %d did not resolve after cancellation", i)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("future %d err = %v, want context.Canceled", i, err)
		}
	}
	tn.Quiesce()
}

// TestSchedulerCancelDoesNotPerturbOtherTenants: cancelling one query
// frees its queued work promptly and leaves a concurrent tenant's
// results, accounting and worker access untouched.
func TestSchedulerCancelDoesNotPerturbOtherTenants(t *testing.T) {
	s := NewScheduler(nil, 2)
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	gated := &gatedLLM{release: release, started: started}

	ctxA, cancelA := context.WithCancel(context.Background())
	a := s.Tenant(ctxA, "a")
	defer a.Close()
	b := s.Tenant(context.Background(), "b")
	defer b.Close()

	// A saturates both slots and queues three more; B queues three.
	var aFuts, bFuts []*Future
	for i := 0; i < 5; i++ {
		aFuts = append(aFuts, a.Submit(gated, fmt.Sprintf("a%d prompt", i), 0))
	}
	<-started
	<-started
	for i := 0; i < 3; i++ {
		bFuts = append(bFuts, b.Submit(gated, fmt.Sprintf("b%d prompt", i), 0))
	}

	// Cancel A while its two running prompts hold the slots; its queued
	// futures must resolve cancelled without waiting for the gate.
	cancelA()
	for i := 2; i < 5; i++ {
		done := make(chan struct{})
		var err error
		go func(f *Future) {
			_, _, err = f.Wait()
			close(done)
		}(aFuts[i])
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("queued future a%d not resolved promptly after cancel", i)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("a%d err = %v, want context.Canceled", i, err)
		}
	}

	// Release the gate: A's two running prompts fail with the cancel; B's
	// prompts all complete.
	close(release)
	for i := 0; i < 2; i++ {
		if _, _, err := aFuts[i].Wait(); !errors.Is(err, context.Canceled) {
			t.Errorf("running a%d err = %v, want context.Canceled", i, err)
		}
	}
	for i, f := range bFuts {
		out, _, err := f.Wait()
		if err != nil {
			t.Fatalf("b%d err = %v, want success", i, err)
		}
		if out != "ok done" {
			t.Errorf("b%d out = %q", i, out)
		}
	}
	a.Quiesce()
	b.Quiesce()

	// B's accounting covers exactly its three issued prompts; none of A's
	// cancelled work leaked into it.
	want := 3 * latOf("b0 prompt", "ok done")
	if got := b.AggregateWork(); got != want {
		t.Errorf("tenant b aggregate work = %v, want %v", got, want)
	}
	if a.AggregateWork() != 0 {
		t.Errorf("cancelled tenant accounted work %v, want 0", a.AggregateWork())
	}

	// The slots are free again: a fresh tenant completes immediately.
	c := s.Tenant(context.Background(), "c")
	defer c.Close()
	if _, _, err := c.Single().Submit(&echoLLM{name: "blocking-gate", answer: "x"}, nil, "fresh prompt", 0).Wait(); err != nil {
		t.Fatalf("scheduler wedged after cancellation: %v", err)
	}
}

// gatedLLM records started calls and blocks completions until released
// (or the call context is cancelled). A call whose context is already
// done when the gate opens fails with the cancel: with both cases ready,
// select would otherwise pick one at random.
type gatedLLM struct {
	release chan struct{}
	started chan struct{}
}

func (g *gatedLLM) Name() string { return "blocking-gate" }
func (g *gatedLLM) Complete(ctx context.Context, p string) (string, error) {
	select {
	case g.started <- struct{}{}:
	default:
	}
	select {
	case <-g.release:
		if err := ctx.Err(); err != nil {
			return "", err
		}
		return "ok done", nil
	case <-ctx.Done():
		return "", ctx.Err()
	}
}

// TestSchedulerFairShare: with one endpoint saturated by a long queue
// from tenant A, a late-arriving tenant B gets slots in rotation — B's
// prompts do not wait for A's entire backlog.
func TestSchedulerFairShare(t *testing.T) {
	s := NewScheduler(nil, 1) // one slot: dispatch order is observable
	release := make(chan struct{})
	var mu sync.Mutex
	var order []string
	step := make(chan struct{}, 64)
	client := &seqLLM{release: release, onCall: func(p string) {
		mu.Lock()
		order = append(order, p)
		mu.Unlock()
		step <- struct{}{}
	}}

	a := s.Tenant(context.Background(), "a")
	defer a.Close()
	b := s.Tenant(context.Background(), "b")
	defer b.Close()

	// A grabs the slot and queues a backlog; then B queues two prompts.
	var futs []*Future
	futs = append(futs, a.Submit(client, "a0", 0))
	<-step // a0 is running (holding the slot)
	for i := 1; i <= 4; i++ {
		futs = append(futs, a.Submit(client, fmt.Sprintf("a%d", i), 0))
	}
	futs = append(futs, b.Submit(client, "b0", 0))
	futs = append(futs, b.Submit(client, "b1", 0))
	close(release)
	for _, f := range futs {
		if _, _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	pos := map[string]int{}
	for i, p := range order {
		pos[p] = i
	}
	// Round-robin: b0 must run before A's backlog drains (strictly before
	// a3), and b1 before a4 — instead of FIFO [a0..a4, b0, b1].
	if pos["b0"] > pos["a3"] {
		t.Errorf("fair share violated: b0 ran at %d, after a3 at %d (order %v)", pos["b0"], pos["a3"], order)
	}
	if pos["b1"] > pos["a4"] {
		t.Errorf("fair share violated: b1 ran at %d, after a4 at %d (order %v)", pos["b1"], pos["a4"], order)
	}
}

// seqLLM records the order prompts reach the model; the first call holds
// its worker slot until released so tests can build a queue behind it.
type seqLLM struct {
	release chan struct{}
	once    sync.Once
	onCall  func(prompt string)
}

func (s *seqLLM) Name() string { return "seq" }
func (s *seqLLM) Complete(ctx context.Context, p string) (string, error) {
	s.onCall(p)
	first := false
	s.once.Do(func() { first = true })
	if first {
		select {
		case <-s.release:
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
	return "ok", nil
}

// TestSchedulerTenantIsolationAccounting: two tenants sharing the pool
// account exactly their own prompts, and the aggregate makespan bound
// combines them (max critical path vs summed per-endpoint area).
func TestSchedulerTenantIsolationAccounting(t *testing.T) {
	client := &echoLLM{name: "m", answer: "w x y z"}
	s := NewScheduler(nil, 2)
	a := s.Tenant(context.Background(), "a")
	defer a.Close()
	b := s.Tenant(context.Background(), "b")
	defer b.Close()

	var futs []*Future
	for i := 0; i < 4; i++ {
		futs = append(futs, a.Submit(client, "shared pool prompt", 0))
	}
	for i := 0; i < 2; i++ {
		futs = append(futs, b.Submit(client, "shared pool prompt", 0))
	}
	for _, f := range futs {
		if _, _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	one := latOf("shared pool prompt", "w x y z")
	if got := a.AggregateWork(); got != 4*one {
		t.Errorf("tenant a work = %v, want %v", got, 4*one)
	}
	if got := b.AggregateWork(); got != 2*one {
		t.Errorf("tenant b work = %v, want %v", got, 2*one)
	}
	// Per-tenant makespans price each query as if it ran alone.
	if got := a.Makespan(); got != 4*one/2 {
		t.Errorf("tenant a makespan = %v, want %v", got, 4*one/2)
	}
	if got := b.Makespan(); got != one {
		t.Errorf("tenant b makespan = %v, want %v", got, one)
	}
	// The concurrent aggregate: 6 prompts of work on 2 workers.
	got := AggregateMakespan(2, []*TenantStats{a.Stats(), b.Stats()})
	if want := 6 * one / 2; got != want {
		t.Errorf("aggregate makespan = %v, want %v", got, want)
	}
}

func TestSchedulerErrorPropagates(t *testing.T) {
	client := &failingLLM{}
	tn := tenant(NewScheduler(nil, 2), t)
	if _, _, err := tn.Single().Submit(client, nil, "boom", 0).Wait(); err == nil || !strings.Contains(err.Error(), "model failure") {
		t.Errorf("err = %v, want model failure", err)
	}
}

type failingLLM struct{}

func (f *failingLLM) Name() string { return "failing" }
func (f *failingLLM) Complete(ctx context.Context, p string) (string, error) {
	return "", errors.New("model failure")
}

func TestSchedulerDefaultWorkers(t *testing.T) {
	s := NewScheduler(nil, 0)
	if s.Workers() != DefaultBatchWorkers {
		t.Errorf("workers = %d, want %d", s.Workers(), DefaultBatchWorkers)
	}
}

// TestSchedulerSubmitAfterCancelResolvesImmediately: a tenant whose
// context is already cancelled never blocks a submitter.
func TestSchedulerSubmitAfterCancelResolvesImmediately(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewScheduler(nil, 2)
	tn := s.Tenant(ctx, "dead")
	defer tn.Close()
	if _, _, err := tn.Single().Submit(&echoLLM{name: "m", answer: "x"}, nil, "p", 0).Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// holdLLM occupies a worker slot of endpoint "m" from its single call
// until released.
type holdLLM struct{ started, release chan struct{} }

func (h *holdLLM) Name() string { return "m" }
func (h *holdLLM) Complete(ctx context.Context, p string) (string, error) {
	close(h.started)
	select {
	case <-h.release:
		return "held", nil
	case <-ctx.Done():
		return "", ctx.Err()
	}
}

// TestSubmitResolvesResidentPromptInline: a prompt whose completion is
// resident is answered inside Submit — at its ready time, with no
// goroutine, worker slot, deficit or token accounting — while the hit is
// counted once on the tenant and the cache, and a cancelled tenant
// still fails first.
func TestSubmitResolvesResidentPromptInline(t *testing.T) {
	const prompt = "What is the population of Chicago?"
	cache := NewCache(8)
	client := &echoLLM{name: "m", answer: "never asked"}
	s := NewScheduler(cache, 1)
	if _, _, err := tenant(s, t).Single().Submit(&echoLLM{name: "m", answer: "2700000"}, nil, prompt, 0).Wait(); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, "seeding slot", func() bool { return s.Busy() == 0 })
	// Hold the endpoint's only worker slot: an inline hit must not need it.
	gate := &holdLLM{started: make(chan struct{}), release: make(chan struct{})}
	holder := tenant(s, t)
	held := holder.Submit(gate, "occupies the slot", 0)
	<-gate.started

	tn := tenant(s, t)
	before := runtime.NumGoroutine()
	const ready = 3 * time.Second
	f := tn.Submit(client, prompt, ready)
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("inline hit spawned goroutines: %d -> %d", before, got)
	}
	select {
	case <-f.done:
	default:
		t.Fatal("resident prompt not resolved at Submit")
	}
	out, vt, err := f.Wait()
	if err != nil || out != "2700000" || vt != ready {
		t.Errorf("Wait = %q, %v, %v; want the resident completion at vt %v", out, vt, err, ready)
	}
	if g := s.Gauges(); g.Interactive.Busy != 1 || g.Interactive.Queued != 0 || g.Interactive.Drained != 0 {
		t.Errorf("inline hit touched the dispatch state (1 held slot expected): %+v", g.Interactive)
	}
	if tn.AggregateWork() != 0 || tn.CriticalPath() != ready {
		t.Errorf("hit accounting: work %v, critical path %v; want 0 and %v", tn.AggregateWork(), tn.CriticalPath(), ready)
	}
	if got := tn.Usage(); got != (Stats{CacheHits: 1, SimulatedLatency: ready}) {
		t.Errorf("usage = %+v, want exactly one cache hit", got)
	}
	// (The seeding prompt and the held one are this cache's misses.)
	if got := cache.Stats().Hits; got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}

	close(gate.release)
	if _, _, err := held.Wait(); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, "held slot", func() bool { return s.Busy() == 0 })

	// A cancelled context wins over a hit, and counts none.
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := s.Tenant(ctx, "")
	defer cancelled.Close()
	cancel()
	if _, _, err := cancelled.Submit(client, prompt, 0).Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled tenant: err = %v, want context.Canceled", err)
	}
	if got := cache.Stats().Hits; got != 1 {
		t.Errorf("cancelled submit counted a hit: %d", got)
	}
}

// BenchmarkSchedulerMiss is the scheduler's cost of one model miss: Submit
// and Wait on an open tenant, with an instant client and a prompt the
// size of a few-shot fetch prompt. Run with -benchmem.
func BenchmarkSchedulerMiss(b *testing.B) {
	s := NewScheduler(nil, DefaultBatchWorkers)
	tn := s.Tenant(context.Background(), "bench")
	defer tn.Close()
	client := &echoLLM{name: "instant", answer: "ok"}
	prompt := strings.Repeat("Q: what is the population of Paris? A: 2102650\n", 15) + "Q: what is the population of Rome? A:"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tn.Submit(client, prompt, 0).Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTemplatedHit is the cost of one resident templated prompt:
// Submit and Wait of a fetch whose answer the cache holds, answered from
// the key without building the prompt's text. Run with -benchmem.
func BenchmarkTemplatedHit(b *testing.B) {
	tn := NewScheduler(NewCache(8), DefaultBatchWorkers).Tenant(context.Background(), "bench")
	defer tn.Close()
	client := &echoLLM{name: "instant", answer: "2872800"}
	tmpl, _ := collidingTemplates()
	w := tn.Wave()
	if _, _, err := w.Submit(client, tmpl, "Rome", 0).Wait(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.Submit(client, tmpl, "Rome", 0).Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCachedMiss is the cost of one model miss through the prompt
// cache: Submit and Wait of a templated fetch whose key the cache does
// not hold, on an open tenant with an instant client. The keys cycle
// through far more than the cache's capacity, so every iteration
// registers an in-flight call, builds the prompt, inserts the answer and
// evicts the least recently used entry. Run with -benchmem.
func BenchmarkCachedMiss(b *testing.B) {
	tn := NewScheduler(NewCache(128), DefaultBatchWorkers).Tenant(context.Background(), "bench")
	defer tn.Close()
	client := &echoLLM{name: "instant", answer: "2872800"}
	tmpl, _ := collidingTemplates()
	w := tn.Wave()
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("city %d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.Submit(client, tmpl, keys[i%len(keys)], 0).Wait(); err != nil {
			b.Fatal(err)
		}
	}
}
