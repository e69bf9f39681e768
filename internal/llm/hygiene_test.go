package llm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gopool"
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

// quiescent waits for the scheduler's CheckQuiescent to pass: a slot
// still being released gets a few seconds, a leaked slot, job or flow
// fails with the check's error.
func quiescent(t *testing.T, s *Scheduler) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for err := s.CheckQuiescent(); err != nil; err = s.CheckQuiescent() {
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
}

// busySlots sums a scheduler's running slots over both classes.
func busySlots(s *Scheduler) int {
	g := s.Gauges()
	return g.Interactive.Busy + g.Batch.Busy
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
	quiescent(t, s)
	goroutinesAtMost(t, baseline)

	// The budget is fully available to the next tenant.
	good := clientFunc("ep", func(ctx context.Context, prompt string) (string, error) {
		return "ok:" + prompt, nil
	})
	next := s.Tenant(context.Background(), "healthy")
	defer next.Close()
	if out, _, err := next.Wave().Submit(good, nil, "hello", 0).Wait(); err != nil || out != "ok:hello" {
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
	quiescent(t, s)
	goroutinesAtMost(t, baseline)
}

// TestSchedulerSlotGoroutineReuse: while a tenant is open, a miss runs
// on a parked slot goroutine instead of a fresh one, so sequential
// misses never hold more goroutines than the endpoint has slots.
func TestSchedulerSlotGoroutineReuse(t *testing.T) {
	const workers = 4
	quietPool(t)
	baseline := runtime.NumGoroutine()
	s := NewScheduler(nil, workers)
	tn := s.Tenant(context.Background(), "seq")
	client := &echoLLM{name: "ep", answer: "ok"}
	for i := 0; i < 200; i++ {
		if _, _, err := tn.Single().Submit(client, nil, fmt.Sprintf("p%d", i), 0).Wait(); err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n > baseline+workers+2 {
			t.Fatalf("miss %d: %d goroutines, baseline %d, %d slots", i, n, baseline, workers)
		}
	}
	waitDrained(t, "scheduler slots", func() bool { return busySlots(s) == 0 })
	if n := parked(); n < 1 || n > workers {
		t.Errorf("%d parked slot goroutines after the misses, want 1..%d", n, workers)
	}
	tn.Close()
	goroutinesAtMost(t, baseline)
}

// parked reports the goroutines parked in the pool slots run on.
func parked() int { return gopool.Idle() }

// quietPool waits until every goroutine an earlier test parked in the
// pool has retired, so parked counts this test's alone.
func quietPool(t *testing.T) {
	t.Helper()
	waitDrained(t, "goroutine pool", func() bool { return parked() == 0 })
}

// TestSchedulerSlotGoroutinesRetire: slot goroutines outlive the last
// Close, parked in the pool and never more than the slots that ran, so a
// tenant opened right after it runs its miss without starting a
// goroutine. Left idle, every one retires after the pool's linger, and
// the goroutine count returns to its baseline.
func TestSchedulerSlotGoroutinesRetire(t *testing.T) {
	const workers = 4
	quietPool(t)
	baseline := runtime.NumGoroutine()
	s := NewScheduler(nil, workers)
	var running atomic.Int32
	release := make(chan struct{})
	gated := clientFunc("ep", func(ctx context.Context, prompt string) (string, error) {
		running.Add(1)
		<-release
		return "ok", nil
	})
	a := s.Tenant(context.Background(), "a")
	b := s.Tenant(context.Background(), "b")
	var futures []*Future
	for i := 0; i < 8; i++ {
		futures = append(futures, a.Submit(gated, fmt.Sprintf("a%d", i), 0), b.Submit(gated, fmt.Sprintf("b%d", i), 0))
	}
	waitDrained(t, "slot fill", func() bool { return running.Load() == workers })
	// Every slot goroutine parks after this instant, so none can retire
	// before linger has passed since it.
	const linger = 100 * time.Millisecond // gopool's idle linger
	released := time.Now()
	close(release)
	for _, f := range futures {
		if _, _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	waitDrained(t, "scheduler slots", func() bool { return busySlots(s) == 0 })

	a.Close()
	b.Close()
	n := parked()
	started := gopool.Started()
	c := s.Tenant(context.Background(), "c")
	if out, _, err := c.Single().Submit(&echoLLM{name: "ep", answer: "warm"}, nil, "next query", 0).Wait(); err != nil || out != "warm" {
		t.Fatalf("miss after the last Close: %q, %v", out, err)
	}
	c.Close()
	if time.Since(released) >= linger {
		t.Logf("the test stalled past the linger: not checking reuse")
	} else {
		if n < 1 || n > workers {
			t.Errorf("after the last Close: %d parked slot goroutines, want 1..%d", n, workers)
		}
		if n := gopool.Started() - started; n != 0 {
			t.Errorf("a miss right after the last Close started %d goroutines, want a parked one", n)
		}
	}
	if n := runtime.NumGoroutine(); n > baseline+workers+2 {
		t.Errorf("after the last Close: %d goroutines, baseline %d", n, baseline)
	}

	waitDrained(t, "parked slot goroutines", func() bool { return parked() == 0 })
	goroutinesAtMost(t, baseline)
	if err := s.CheckQuiescent(); err != nil {
		t.Errorf("after the last Close: %v", err)
	}
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
			w.Submit(flaky, nil, fmt.Sprintf("p%d", i), 0)
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
		quiescent(t, tn.s)
		tn.Close()
		goroutinesAtMost(t, baseline)
	}
}
