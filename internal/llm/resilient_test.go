package llm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// scriptedClient fails each prompt a configured number of times before
// succeeding, recording every attempt it sees.
type scriptedClient struct {
	name     string
	failures int   // attempts 0..failures-1 fail
	failWith error // error returned by failing attempts

	mu       sync.Mutex
	attempts map[string]int
	calls    int
}

func newScripted(failures int, failWith error) *scriptedClient {
	return &scriptedClient{name: "scripted", failures: failures, failWith: failWith, attempts: map[string]int{}}
}

func (c *scriptedClient) Name() string { return c.name }

func (c *scriptedClient) Complete(ctx context.Context, prompt string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	c.mu.Lock()
	n := c.attempts[prompt]
	c.attempts[prompt] = n + 1
	c.calls++
	c.mu.Unlock()
	if n < c.failures {
		return "", c.failWith
	}
	return "echo: " + prompt, nil
}

func (c *scriptedClient) callCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// instantSleep is the test Sleep hook: no wall-clock, still honors ctx.
func instantSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

func TestResilientRetriesTransient(t *testing.T) {
	inner := newScripted(2, Transient(errors.New("spurious 500")))
	rc := NewResilient(inner, ResilientConfig{MaxRetries: 3, Sleep: instantSleep})

	out, err := rc.Complete(context.Background(), "hello")
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if out != "echo: hello" {
		t.Fatalf("out = %q", out)
	}
	if got := inner.callCount(); got != 3 {
		t.Fatalf("inner calls = %d, want 3 (two failures + success)", got)
	}
	c := rc.Counters()
	if c.Retries != 2 || c.Faults != 2 {
		t.Fatalf("counters = %+v, want 2 retries / 2 faults", c)
	}
}

func TestResilientRetriesExhausted(t *testing.T) {
	inner := newScripted(10, Transient(errors.New("still down")))
	rc := NewResilient(inner, ResilientConfig{MaxRetries: 2, BreakerThreshold: -1, Sleep: instantSleep})

	_, err := rc.Complete(context.Background(), "hello")
	if err == nil {
		t.Fatal("want error after exhausted retries")
	}
	if Classify(err) != ClassTransient {
		t.Fatalf("class = %v, want transient", Classify(err))
	}
	if got := inner.callCount(); got != 3 {
		t.Fatalf("inner calls = %d, want 3 (initial + 2 retries)", got)
	}
	var ce *Error
	if !errors.As(err, &ce) || ce.Endpoint != "scripted" {
		t.Fatalf("error not stamped with endpoint: %v", err)
	}
}

func TestResilientPermanentNotRetried(t *testing.T) {
	inner := newScripted(10, Permanent(errors.New("bad request")))
	rc := NewResilient(inner, ResilientConfig{MaxRetries: 3, Sleep: instantSleep})

	_, err := rc.Complete(context.Background(), "hello")
	if err == nil || Classify(err) != ClassPermanent {
		t.Fatalf("err = %v, want permanent", err)
	}
	if got := inner.callCount(); got != 1 {
		t.Fatalf("inner calls = %d, want 1 (no retries on permanent)", got)
	}
}

func TestResilientCallerCancelNotRetried(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inner := newScripted(0, nil)
	rc := NewResilient(inner, ResilientConfig{Sleep: instantSleep})

	_, err := rc.Complete(ctx, "hello")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if Classify(err) != ClassCanceled {
		t.Fatalf("class = %v, want canceled", Classify(err))
	}
	if got := inner.callCount(); got != 0 {
		t.Fatalf("inner calls = %d, want 0", got)
	}
	if c := rc.Counters(); c.Faults != 0 || c.Retries != 0 {
		t.Fatalf("cancellation counted as fault: %+v", c)
	}
}

// TestResilientAttemptDeadline: a slow backend call that outlives the
// per-attempt timeout classifies as ClassDeadline and is retried, while
// the caller's context stays live.
func TestResilientAttemptDeadline(t *testing.T) {
	calls := 0
	slowThenFast := clientFunc("slow", func(ctx context.Context, prompt string) (string, error) {
		calls++
		if calls == 1 {
			<-ctx.Done() // hang until the attempt deadline fires
			return "", ctx.Err()
		}
		return "ok", nil
	})
	rc := NewResilient(slowThenFast, ResilientConfig{
		MaxRetries:    2,
		PromptTimeout: 5 * time.Millisecond,
		Sleep:         instantSleep,
	})
	out, err := rc.Complete(context.Background(), "hello")
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if out != "ok" || calls != 2 {
		t.Fatalf("out=%q calls=%d, want recovery on second attempt", out, calls)
	}
	if c := rc.Counters(); c.Faults != 1 || c.Retries != 1 {
		t.Fatalf("counters = %+v, want 1 fault / 1 retry", c)
	}
}

// clientFunc adapts a function to Client.
type clientFuncT struct {
	name string
	fn   func(ctx context.Context, prompt string) (string, error)
}

func clientFunc(name string, fn func(ctx context.Context, prompt string) (string, error)) Client {
	return &clientFuncT{name: name, fn: fn}
}

func (c *clientFuncT) Name() string { return c.name }
func (c *clientFuncT) Complete(ctx context.Context, prompt string) (string, error) {
	return c.fn(ctx, prompt)
}

func TestResilientValidateRejectsMalformed(t *testing.T) {
	calls := 0
	flaky := clientFunc("flaky", func(ctx context.Context, prompt string) (string, error) {
		calls++
		if calls == 1 {
			return "GARBAGE", nil
		}
		return "clean", nil
	})
	rc := NewResilient(flaky, ResilientConfig{
		MaxRetries: 2,
		Sleep:      instantSleep,
		Validate: func(prompt, completion string) error {
			if strings.Contains(completion, "GARBAGE") {
				return errors.New("malformed")
			}
			return nil
		},
	})
	out, err := rc.Complete(context.Background(), "hello")
	if err != nil || out != "clean" {
		t.Fatalf("out=%q err=%v, want clean recovery", out, err)
	}
	if c := rc.Counters(); c.Faults != 1 || c.Retries != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestResilientBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	inner := newScripted(1<<30, Transient(errors.New("down")))
	rc := NewResilient(inner, ResilientConfig{
		MaxRetries:       -1, // isolate the breaker from retry counting
		BreakerThreshold: 3,
		BreakerCooldown:  time.Minute,
		Sleep:            instantSleep,
		Now:              func() time.Time { return now },
	})

	// Three exhausted prompts open the breaker.
	for i := 0; i < 3; i++ {
		if _, err := rc.Complete(context.Background(), fmt.Sprintf("p%d", i)); err == nil {
			t.Fatal("want failure")
		}
	}
	if rc.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", rc.State())
	}

	// While open: fast-fail without touching the backend.
	before := inner.callCount()
	_, err := rc.Complete(context.Background(), "shed")
	if Classify(err) != ClassBreakerOpen || !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want breaker-open", err)
	}
	if inner.callCount() != before {
		t.Fatal("open breaker still touched the backend")
	}
	if c := rc.Counters(); c.BreakerFastFails != 1 || c.BreakerOpens != 1 {
		t.Fatalf("counters = %+v", c)
	}

	// Cooldown elapses; the backend heals; a half-open probe closes it.
	now = now.Add(2 * time.Minute)
	if rc.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open after cooldown", rc.State())
	}
	inner.failures = 0 // healed
	inner.attempts = map[string]int{}
	out, err := rc.Complete(context.Background(), "probe")
	if err != nil || out != "echo: probe" {
		t.Fatalf("probe: out=%q err=%v", out, err)
	}
	if rc.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed after successful probe", rc.State())
	}
}

func TestResilientBreakerFailedProbeReopens(t *testing.T) {
	now := time.Unix(0, 0)
	inner := newScripted(1<<30, Transient(errors.New("down")))
	rc := NewResilient(inner, ResilientConfig{
		MaxRetries:       -1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
		Sleep:            instantSleep,
		Now:              func() time.Time { return now },
	})
	if _, err := rc.Complete(context.Background(), "p"); err == nil {
		t.Fatal("want failure")
	}
	if rc.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", rc.State())
	}
	now = now.Add(2 * time.Minute)
	if _, err := rc.Complete(context.Background(), "probe"); err == nil {
		t.Fatal("want probe failure")
	}
	if rc.State() != BreakerOpen {
		t.Fatalf("state = %v, want re-opened after failed probe", rc.State())
	}
	if c := rc.Counters(); c.BreakerOpens != 2 {
		t.Fatalf("opens = %d, want 2", c.BreakerOpens)
	}
}

// TestResilientBreakerProbeCancelReleasesSlot: a half-open probe whose
// caller cancels before the backend answers is inconclusive — it must
// hand the probe slot back so a later call can probe and heal the
// breaker, not leave r.probing set and shed every future call forever.
func TestResilientBreakerProbeCancelReleasesSlot(t *testing.T) {
	now := time.Unix(0, 0)
	inner := newScripted(1<<30, Transient(errors.New("down")))
	rc := NewResilient(inner, ResilientConfig{
		MaxRetries:       -1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
		Sleep:            instantSleep,
		Now:              func() time.Time { return now },
	})
	if _, err := rc.Complete(context.Background(), "p"); err == nil {
		t.Fatal("want failure")
	}
	if rc.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", rc.State())
	}
	now = now.Add(2 * time.Minute)

	// The admitted probe is abandoned by its caller mid-flight.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rc.Complete(ctx, "probe"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rc.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want still half-open after inconclusive probe", rc.State())
	}

	// A later call must be admitted as a fresh probe — not shed with
	// ClassBreakerOpen by the leaked probing flag — and close the
	// breaker once the backend has healed.
	inner.failures = 0
	inner.attempts = map[string]int{}
	out, err := rc.Complete(context.Background(), "probe2")
	if err != nil || out != "echo: probe2" {
		t.Fatalf("probe after cancelled probe: out=%q err=%v", out, err)
	}
	if rc.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed after successful fresh probe", rc.State())
	}
}

// TestResilientBreakerProbeCancelMidBackoff: same leak, other early
// return — the probe fails transiently, then the caller's context ends
// while the retry is backing off. The probe slot must still be handed
// back.
func TestResilientBreakerProbeCancelMidBackoff(t *testing.T) {
	now := time.Unix(0, 0)
	var cancel context.CancelFunc
	flaky := clientFunc("flaky", func(ctx context.Context, prompt string) (string, error) {
		if cancel != nil {
			cancel() // the caller gives up while the retry backs off
		}
		return "", Transient(errors.New("blip"))
	})
	rc := NewResilient(flaky, ResilientConfig{
		MaxRetries:         2,
		BreakerThreshold:   1,
		BreakerCooldown:    time.Minute,
		RetryBudgetReserve: 100,
		Sleep:              instantSleep, // returns ctx.Err(): a cancelled ctx aborts the backoff
		Now:                func() time.Time { return now },
	})
	// Exhaust one prompt to open the breaker, then elapse the cooldown.
	if _, err := rc.Complete(context.Background(), "p"); err == nil {
		t.Fatal("want failure")
	}
	now = now.Add(2 * time.Minute)

	var ctx context.Context
	ctx, cancel = context.WithCancel(context.Background())
	if _, err := rc.Complete(ctx, "probe"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want cancellation surfaced from mid-backoff sleep", err)
	}
	if rc.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want still half-open", rc.State())
	}

	// The next call must reach the backend as a fresh probe; its own
	// (transient) failure proves admission, and must not classify as
	// breaker-shed.
	cancel = nil
	if _, err := rc.Complete(context.Background(), "probe2"); Classify(err) == ClassBreakerOpen {
		t.Fatalf("fresh probe shed by leaked probing flag: %v", err)
	}
}

func TestResilientRetryBudgetExhaustion(t *testing.T) {
	inner := newScripted(1<<30, Transient(errors.New("down")))
	rc := NewResilient(inner, ResilientConfig{
		MaxRetries:         10,
		BreakerThreshold:   -1,
		RetryBudgetRatio:   0.25,
		RetryBudgetReserve: 2,
		Sleep:              instantSleep,
	})
	// Reserve of 2 (+0.25 deposit) funds exactly two retries; the third
	// is denied and the failure classifies as budget exhaustion.
	_, err := rc.Complete(context.Background(), "p")
	if Classify(err) != ClassBudget || !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("err = %v, want retry-budget exhaustion", err)
	}
	if got := inner.callCount(); got != 3 {
		t.Fatalf("inner calls = %d, want 3 (initial + 2 funded retries)", got)
	}
	if c := rc.Counters(); c.BudgetDenied != 1 {
		t.Fatalf("counters = %+v, want 1 budget denial", c)
	}
}

// TestResilientRetryBudgetCapped: a long healthy run must not bank an
// unbounded token balance that could later fund a retry storm — the
// bucket is clamped at the cap.
func TestResilientRetryBudgetCapped(t *testing.T) {
	inner := newScripted(0, nil)
	rc := NewResilient(inner, ResilientConfig{
		RetryBudgetRatio:   1,
		RetryBudgetReserve: 2,
		RetryBudgetCap:     5,
		Sleep:              instantSleep,
	})
	for i := 0; i < 100; i++ {
		if _, err := rc.Complete(context.Background(), fmt.Sprintf("p%d", i)); err != nil {
			t.Fatalf("Complete: %v", err)
		}
	}
	if c := rc.Counters(); c.BudgetTokens != 5 {
		t.Fatalf("budget tokens = %v, want clamped at cap 5", c.BudgetTokens)
	}
	// A reserve above the cap keeps working: the cap is raised to it,
	// so e.g. the chaos bench's effectively-unlimited reserve survives
	// normalization.
	big := NewResilient(inner, ResilientConfig{RetryBudgetReserve: 1e6, Sleep: instantSleep})
	if got := big.Config().RetryBudgetCap; got != 1e6 {
		t.Fatalf("cap = %v, want raised to the 1e6 reserve", got)
	}
	if c := big.Counters(); c.BudgetTokens != 1e6 {
		t.Fatalf("seed = %v, want the full reserve", c.BudgetTokens)
	}
}

func TestResilientBackoffDeterministicAndBounded(t *testing.T) {
	rc := NewResilient(newScripted(0, nil), ResilientConfig{
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  time.Second,
	})
	for attempt := 0; attempt < 8; attempt++ {
		a := rc.backoff("some prompt", attempt)
		b := rc.backoff("some prompt", attempt)
		if a != b {
			t.Fatalf("attempt %d: backoff not deterministic (%v vs %v)", attempt, a, b)
		}
		ceiling := 100 * time.Millisecond << uint(attempt)
		if ceiling > time.Second || ceiling <= 0 {
			ceiling = time.Second
		}
		if a < 0 || a >= ceiling {
			t.Fatalf("attempt %d: backoff %v outside [0, %v)", attempt, a, ceiling)
		}
	}
	if a, b := rc.backoff("prompt A", 1), rc.backoff("prompt B", 1); a == b {
		t.Fatalf("distinct prompts hashed to identical jitter %v — suspicious", a)
	}
}

// TestResilientTenantAttribution: retries and faults land on the tenant
// whose prompt suffered them, and its prompt count stays identical to a
// fault-free run. A call outside any tenant charges nothing.
func TestResilientTenantAttribution(t *testing.T) {
	inner := newScripted(2, Transient(errors.New("blip")))
	rc := NewResilient(inner, ResilientConfig{MaxRetries: 3, Sleep: instantSleep})
	tn := NewScheduler(nil, 1).Tenant(context.Background(), "")
	defer tn.Close()

	if _, _, err := tn.Single().Submit(rc, nil, "hello world", 0).Wait(); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if _, err := rc.Complete(context.Background(), "untenanted"); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	st := tn.Usage()
	if st.Prompts != 1 {
		t.Fatalf("Prompts = %d, want 1 — retries must not inflate prompt accounting", st.Prompts)
	}
	if st.Retries != 2 || st.Faults != 2 {
		t.Fatalf("stats = %+v, want 2 retries / 2 faults attributed", st)
	}
	if !strings.Contains(st.String(), "retries=2") {
		t.Fatalf("String() missing resilience counters: %s", st.String())
	}
	if (Stats{}).String() == st.String() {
		t.Fatal("sanity")
	}
	if strings.Contains((Stats{Prompts: 1}).String(), "retries=") {
		t.Fatal("fault-free String() must not grow new fields")
	}
}

// TestResilientSchedulerPath: a ResilientClient is traversed by the
// pipelined scheduler, so faults during pipelined execution are retried
// and the makespan matches the fault-free run.
func TestResilientSchedulerPath(t *testing.T) {
	run := func(failures int) (Stats, VTime) {
		inner := newScripted(failures, Transient(errors.New("blip")))
		rc := NewResilient(inner, ResilientConfig{MaxRetries: 3, RetryBudgetReserve: 100, Sleep: instantSleep})
		tenant := NewScheduler(nil, 4).Tenant(context.Background(), "")
		defer tenant.Close()
		futs := make([]*Future, 6)
		for i := range futs {
			futs[i] = tenant.Submit(rc, fmt.Sprintf("prompt %d", i), 0)
		}
		for _, f := range futs {
			if _, _, err := f.Wait(); err != nil {
				t.Fatalf("Wait: %v", err)
			}
		}
		tenant.Quiesce()
		return tenant.Usage(), tenant.Stats().Makespan()
	}

	cleanStats, cleanSpan := run(0)
	faultStats, faultSpan := run(2)
	if faultStats.Prompts != cleanStats.Prompts {
		t.Fatalf("prompts differ: %d vs %d", faultStats.Prompts, cleanStats.Prompts)
	}
	if faultSpan != cleanSpan {
		t.Fatalf("makespan differs under faults: %v vs %v", faultSpan, cleanSpan)
	}
	if faultStats.Retries != 12 { // 6 prompts × 2 retries
		t.Fatalf("retries = %d, want 12", faultStats.Retries)
	}
}

// TestResilientCacheNeverPoisoned: a prompt cache fed through a
// ResilientClient stores only validated, successful completions even
// when every first attempt fails.
func TestResilientCacheNeverPoisoned(t *testing.T) {
	calls := 0
	flaky := clientFunc("flaky", func(ctx context.Context, prompt string) (string, error) {
		calls++
		if calls%2 == 1 {
			return "GARBAGE", nil
		}
		return "good:" + prompt, nil
	})
	rc := NewResilient(flaky, ResilientConfig{
		MaxRetries: 3,
		Sleep:      instantSleep,
		Validate: func(prompt, completion string) error {
			if completion == "GARBAGE" {
				return errors.New("malformed")
			}
			return nil
		},
	})
	cache := NewCache(64)
	for i := 0; i < 4; i++ {
		out, _, _, err := cache.fetch(context.Background(), rc.Name(), rawText, "p", func() (string, error) {
			return rc.Complete(context.Background(), "p")
		})
		if err != nil {
			t.Fatalf("Fetch %d: %v", i, err)
		}
		if out != "good:p" {
			t.Fatalf("Fetch %d: cache served %q — poisoned by a rejected completion", i, out)
		}
	}
	if calls != 2 {
		t.Fatalf("backend calls = %d, want 2 (one garbage + one good, then cache hits)", calls)
	}
}
