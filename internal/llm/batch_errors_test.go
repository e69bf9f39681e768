package llm

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// TestBatchFailureNotMixedWithInternalCancels: when one prompt of a
// batch fails, the batch cancels its siblings internally; the reported
// error must contain only the real failure, never the secondary
// context.Canceled the siblings died of.
func TestBatchFailureNotMixedWithInternalCancels(t *testing.T) {
	boom := Transient(errors.New("backend 500"))
	var n atomic.Int64
	client := clientFunc("flaky", func(ctx context.Context, prompt string) (string, error) {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		if n.Add(1) == 1 {
			return "", boom
		}
		return "ok", nil
	})

	prompts := make([]string, 16)
	for i := range prompts {
		prompts[i] = "p" + string(rune('a'+i))
	}
	_, err := CompleteBatch(context.Background(), client, prompts, 4)
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the backend failure", err)
	}
	if strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("backend failure polluted with internal cancellation: %v", err)
	}
	if IsCancellation(err) {
		t.Fatalf("backend failure classified as cancellation: %v", err)
	}
}

// TestBatchCallerCancelReportedAsCancellation: a batch aborted by the
// caller's own cancel reports exactly the caller's context error — it
// must never classify (or read) as a backend failure.
func TestBatchCallerCancelReportedAsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int64
	client := clientFunc("slow", func(cctx context.Context, prompt string) (string, error) {
		if n.Add(1) == 2 {
			cancel() // the user gives up mid-batch
		}
		if err := cctx.Err(); err != nil {
			return "", err
		}
		return "ok", nil
	})

	prompts := make([]string, 16)
	for i := range prompts {
		prompts[i] = "p" + string(rune('a'+i))
	}
	_, err := CompleteBatch(ctx, client, prompts, 2)
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !IsCancellation(err) {
		t.Fatalf("caller cancel classified as %v, want cancellation", Classify(err))
	}
}

// TestBatchCachedCallerCancel: same property through the cached path —
// the singleflight leader dying of the caller's cancel must not be
// reported as a backend failure.
func TestBatchCachedCallerCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	client := clientFunc("c", func(cctx context.Context, prompt string) (string, error) {
		return "", cctx.Err()
	})
	cache := NewCache(16)
	_, err := CompleteBatchCached(ctx, client, cache, PromptClass{}, []string{"a", "b", "c"}, 2)
	if err == nil {
		t.Fatal("want error")
	}
	if !IsCancellation(err) {
		t.Fatalf("class = %v (%v), want cancellation", Classify(err), err)
	}
}
