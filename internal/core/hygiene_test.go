package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/simllm"
	"repro/internal/world"
)

// outageClient fails every call while down, passing through otherwise —
// the minimal mid-flight backend failure.
type outageClient struct {
	inner llm.Client
	down  atomic.Bool
}

func (o *outageClient) Name() string { return o.inner.Name() }

func (o *outageClient) Complete(ctx context.Context, prompt string) (string, error) {
	if o.down.Load() {
		return "", llm.Permanent(errors.New("endpoint down"))
	}
	return o.inner.Complete(ctx, prompt)
}

// gatedClient blocks every call until released, honoring cancellation.
type gatedClient struct {
	inner   llm.Client
	started chan struct{}
	release chan struct{}
}

func (g *gatedClient) Name() string { return g.inner.Name() }

func (g *gatedClient) Complete(ctx context.Context, prompt string) (string, error) {
	select {
	case g.started <- struct{}{}:
	default:
	}
	select {
	case <-g.release:
		return g.inner.Complete(ctx, prompt)
	case <-ctx.Done():
		return "", ctx.Err()
	}
}

// drainedRuntime asserts the runtime's scheduler is quiescent (every
// worker slot released, no job or flow left queued) and the process
// goroutine count returned to its pre-query baseline.
func drainedRuntime(t *testing.T, rt *Runtime, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rt.sched.CheckQuiescent() == nil && runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("runtime did not drain: sched: %v; goroutines=%d (baseline %d)",
		rt.sched.CheckQuiescent(), runtime.NumGoroutine(), baseline)
}

// hygieneOptions: pipelined on the shared scheduler, caches off so every
// query actually exercises the transport.
func hygieneOptions() Options {
	opts := DefaultOptions()
	opts.CacheEnabled = false
	opts.Retries = -1 // surface the failure, don't ride it out
	return opts
}

const hygieneSQL = `SELECT name FROM country WHERE continent = 'Europe'`

// TestQueryFailureReleasesSlots: a query aborted by a mid-flight backend
// failure must release its scheduler slots and goroutines, and the next
// query on the same runtime must run at full budget.
func TestQueryFailureReleasesSlots(t *testing.T) {
	w := world.Build()
	flaky := &outageClient{inner: simllm.New(simllm.ChatGPT, w, 1)}
	rt := runtimeOver(t, flaky, hygieneOptions(), w)
	baseline := runtime.NumGoroutine()

	flaky.down.Store(true)
	if _, _, err := rt.NewSession().Query(context.Background(), hygieneSQL); err == nil {
		t.Fatal("query succeeded against a dead backend")
	}
	drainedRuntime(t, rt, baseline)

	flaky.down.Store(false)
	rel, _, err := rt.NewSession().Query(context.Background(), hygieneSQL)
	if err != nil {
		t.Fatalf("post-failure query: %v", err)
	}
	if rel.Cardinality() == 0 {
		t.Fatal("post-failure query returned no rows")
	}
}

// TestQueryCancelReleasesSlots: cancelling a query mid-flight — prompts
// blocked on the backend — must return promptly with a cancellation
// error, release every slot, and leave the runtime fully usable.
func TestQueryCancelReleasesSlots(t *testing.T) {
	w := world.Build()
	gated := &gatedClient{
		inner:   simllm.New(simllm.ChatGPT, w, 1),
		started: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	rt := runtimeOver(t, gated, hygieneOptions(), w)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := rt.NewSession().Query(ctx, hygieneSQL)
		done <- err
	}()
	<-gated.started // a prompt is mid-flight on the backend
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled query error = %v, want context.Canceled", err)
		}
		if !llm.IsCancellation(err) {
			t.Fatalf("cancelled query misclassified as backend failure: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled query never returned")
	}
	drainedRuntime(t, rt, baseline)

	close(gated.release)
	rel, _, err := rt.NewSession().Query(context.Background(), hygieneSQL)
	if err != nil {
		t.Fatalf("post-cancel query: %v", err)
	}
	if rel.Cardinality() == 0 {
		t.Fatal("post-cancel query returned no rows")
	}
}
