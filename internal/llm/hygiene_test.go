package llm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitDrained polls cond for a few seconds — plenty for goroutines or
// slots that are being released, short enough to fail fast when leaked.
func waitDrained(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s did not drain", what)
}

// goroutinesAtMost waits for the goroutine count to return to the
// baseline (with a little slack for runtime housekeeping).
func goroutinesAtMost(t *testing.T, baseline int) {
	t.Helper()
	waitDrained(t, fmt.Sprintf("goroutines (baseline %d, now %d)", baseline, runtime.NumGoroutine()),
		func() bool { return runtime.NumGoroutine() <= baseline+2 })
}

// TestSchedulerSlotsReleasedOnFailure: a tenant whose prompts all fail
// must release every worker slot and queue spot; the scheduler keeps
// serving other tenants at full budget afterwards.
func TestSchedulerSlotsReleasedOnFailure(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := NewScheduler(nil, 2)
	boom := errors.New("backend down")
	bad := clientFunc("ep", func(ctx context.Context, prompt string) (string, error) {
		return "", Transient(boom)
	})

	tenant := s.Tenant(context.Background(), "doomed")
	var futures []*Future
	for i := 0; i < 16; i++ {
		futures = append(futures, tenant.Submit(bad, fmt.Sprintf("p%d", i), 0))
	}
	for _, f := range futures {
		if _, _, err := f.Wait(); !errors.Is(err, boom) {
			t.Fatalf("future error = %v, want %v", err, boom)
		}
	}
	tenant.Close()
	waitDrained(t, "scheduler slots", func() bool { return s.Busy() == 0 && s.Queued() == 0 })
	goroutinesAtMost(t, baseline)

	// The budget is fully available to the next tenant.
	good := clientFunc("ep", func(ctx context.Context, prompt string) (string, error) {
		return "ok:" + prompt, nil
	})
	next := s.Tenant(context.Background(), "healthy")
	defer next.Close()
	if out, _, err := next.Do(good, "hello", 0); err != nil || out != "ok:hello" {
		t.Fatalf("post-failure query: %q, %v", out, err)
	}
}

// TestSchedulerSlotsReleasedOnCancel: cancelling a tenant mid-flight —
// some prompts running, many queued — must fail its futures, sweep its
// queue, release every slot, and leave no goroutines behind.
func TestSchedulerSlotsReleasedOnCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := NewScheduler(nil, 2)
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	gated := clientFunc("ep", func(ctx context.Context, prompt string) (string, error) {
		started <- struct{}{}
		select {
		case <-release:
			return "late", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	tenant := s.Tenant(ctx, "cancelled")
	var futures []*Future
	for i := 0; i < 16; i++ {
		futures = append(futures, tenant.Submit(gated, fmt.Sprintf("p%d", i), 0))
	}
	<-started // at least one prompt is mid-flight
	cancel()
	for _, f := range futures {
		if _, _, err := f.Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("future error = %v, want context.Canceled", err)
		}
	}
	tenant.Close()
	close(release)
	waitDrained(t, "scheduler slots", func() bool { return s.Busy() == 0 && s.Queued() == 0 })
	goroutinesAtMost(t, baseline)
}

// TestBatchGoroutineHygieneOnFailure: a batch aborted by one failing
// prompt must cancel its siblings and leave no worker goroutines or
// singleflight leaders behind, with or without the cache.
func TestBatchGoroutineHygieneOnFailure(t *testing.T) {
	baseline := runtime.NumGoroutine()
	boom := errors.New("poof")
	var calls sync.Map
	flaky := clientFunc("ep", func(ctx context.Context, prompt string) (string, error) {
		if prompt == "p3" {
			return "", Permanent(boom)
		}
		select { // siblings hang until the batch cancels them
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(5 * time.Second):
			calls.Store(prompt, true)
			return "slow", nil
		}
	})
	prompts := make([]string, 16)
	for i := range prompts {
		prompts[i] = fmt.Sprintf("p%d", i)
	}

	if _, err := CompleteBatch(context.Background(), flaky, prompts, 4); !errors.Is(err, boom) {
		t.Fatalf("CompleteBatch error = %v, want %v", err, boom)
	}
	goroutinesAtMost(t, baseline)

	if _, err := CompleteBatchCached(context.Background(), flaky, NewCache(64), PromptClass{}, prompts, 4); !errors.Is(err, boom) {
		t.Fatalf("CompleteBatchCached error = %v, want %v", err, boom)
	}
	goroutinesAtMost(t, baseline)
}
