package llm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
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

// TestBatchGoroutineHygieneOnFailure: a stop-and-go wave aborted by one
// failing prompt must cancel its siblings at the model, send none of its
// queued prompts, and leave no worker goroutines or singleflight leaders
// behind, with or without the cache.
func TestBatchGoroutineHygieneOnFailure(t *testing.T) {
	baseline := runtime.NumGoroutine()
	boom := errors.New("poof")
	var calls atomic.Int32
	flaky := clientFunc("ep", func(ctx context.Context, prompt string) (string, error) {
		calls.Add(1)
		if prompt == "p3" {
			return "", Permanent(boom)
		}
		select { // siblings hang until the wave cancels them
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(5 * time.Second):
			return "slow", nil
		}
	})
	const width = 4
	for _, cache := range []*Cache{nil, NewCache(64)} {
		calls.Store(0)
		tn := waveTenant(context.Background(), cache, width)
		w := tn.Wave()
		for i := 0; i < 16; i++ {
			w.Submit(flaky, fmt.Sprintf("p%d", i), 0, PromptClass{})
		}
		begin := time.Now()
		if err := w.Settle(); !errors.Is(err, boom) {
			t.Fatalf("Settle error = %v, want %v", err, boom)
		}
		if d := time.Since(begin); d > 2*time.Second {
			t.Errorf("Settle took %v: the failure did not abort the wave", d)
		}
		if n := calls.Load(); n > width+1 {
			t.Errorf("client saw %d calls, want at most %d", n, width+1)
		}
		waitDrained(t, "scheduler slots", func() bool { return tn.s.Busy() == 0 && tn.s.Queued() == 0 })
		tn.Close()
		goroutinesAtMost(t, baseline)
	}
}
