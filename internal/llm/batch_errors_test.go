package llm

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// TestBatchFailureNotMixedWithInternalCancels: when one prompt of a wave
// fails, Settle reports the real failure — never a cancellation, which
// would read as the caller giving up.
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
	_, err := runWave(waveTenant(context.Background(), nil, 4), client, prompts)
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

// TestBatchCallerCancelReportedAsCancellation: a wave aborted by the
// caller's own cancel reports exactly the caller's context error — it
// must never classify (or read) as a backend failure.
func TestBatchCallerCancelReportedAsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int64
	client := clientFunc("slow", func(cctx context.Context, prompt string) (string, error) {
		if n.Add(1) == 2 {
			cancel() // the user gives up mid-wave
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
	tn := waveTenant(ctx, nil, 2)
	defer tn.Close()
	_, err := runWave(tn, client, prompts)
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
	tn := waveTenant(ctx, NewCache(16), 2)
	defer tn.Close()
	_, err := runWave(tn, client, []string{"a", "b", "c"})
	if err == nil {
		t.Fatal("want error")
	}
	if !IsCancellation(err) {
		t.Fatalf("class = %v (%v), want cancellation", Classify(err), err)
	}
}
