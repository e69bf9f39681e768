package llm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// echoClient returns a transformed prompt, optionally failing.
type echoClient struct {
	calls     int32
	inFlight  int32
	maxSeen   int32
	failEvery int32
	mu        sync.Mutex
}

func (e *echoClient) Name() string { return "echo" }

func (e *echoClient) Complete(ctx context.Context, prompt string) (string, error) {
	n := atomic.AddInt32(&e.calls, 1)
	cur := atomic.AddInt32(&e.inFlight, 1)
	defer atomic.AddInt32(&e.inFlight, -1)
	e.mu.Lock()
	if cur > e.maxSeen {
		e.maxSeen = cur
	}
	e.mu.Unlock()
	if e.failEvery > 0 && n%e.failEvery == 0 {
		return "", errors.New("synthetic failure")
	}
	return "echo: " + prompt, nil
}

// TestCountTokens pins the field counter to strings.Fields — unicode
// spaces, multi-byte runes and invalid UTF-8 included — and to zero
// allocations: it runs on every prompt and completion.
func TestCountTokens(t *testing.T) {
	cases := []string{
		"", " ", "one", "one two  three\nfour", "  lead and trail \t\r\n",
		"Has city Chicago population more than 1000000? Answer yes or no.",
		"nbsp\u00a0sep", "em\u2003space line\u2028sep ideographic\u3000space", "zero\u200bwidth",
		"naïve café 北京 🌍", "bad\xffutf8 \xc3( \x85 tail", "\v\f x",
	}
	for _, c := range cases {
		if got, want := CountTokens(c), len(strings.Fields(c)); got != want {
			t.Errorf("CountTokens(%q) = %d, strings.Fields has %d", c, got, want)
		}
	}
	var sink int
	if allocs := testing.AllocsPerRun(100, func() {
		for _, c := range cases {
			sink += CountTokens(c)
		}
	}); allocs != 0 {
		t.Errorf("CountTokens allocates: %v allocs per run", allocs)
	}
	_ = sink
}

func TestRecorder(t *testing.T) {
	rec := NewRecorder(&echoClient{})
	ctx := context.Background()
	out, err := rec.Complete(ctx, "hello world")
	if err != nil || !strings.HasPrefix(out, "echo:") {
		t.Fatalf("Complete = %q, %v", out, err)
	}
	s := rec.Stats()
	if s.Prompts != 1 || s.PromptTokens != 2 || s.CompletionTokens != 3 {
		t.Errorf("stats = %+v", s)
	}
	if s.SimulatedLatency <= 0 {
		t.Error("latency must be positive")
	}
	rec.Reset()
	if rec.Stats().Prompts != 0 {
		t.Error("Reset failed")
	}
	if rec.Name() != "echo" {
		t.Errorf("Name = %q", rec.Name())
	}
}

func TestStatsAddAndString(t *testing.T) {
	a := Stats{Prompts: 1, PromptTokens: 2, CompletionTokens: 3}
	a.Add(Stats{Prompts: 4, PromptTokens: 5, CompletionTokens: 6})
	if a.Prompts != 5 || a.PromptTokens != 7 || a.CompletionTokens != 9 {
		t.Errorf("Add = %+v", a)
	}
	if !strings.Contains(a.String(), "prompts=5") {
		t.Errorf("String = %q", a.String())
	}
}

func TestCompleteBatchOrder(t *testing.T) {
	client := &echoClient{}
	prompts := make([]string, 50)
	for i := range prompts {
		prompts[i] = fmt.Sprintf("p%02d", i)
	}
	out, err := CompleteBatch(context.Background(), client, prompts, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if o != "echo: "+prompts[i] {
			t.Fatalf("output %d misaligned: %q", i, o)
		}
	}
}

func TestCompleteBatchBoundsConcurrency(t *testing.T) {
	client := &echoClient{}
	prompts := make([]string, 40)
	for i := range prompts {
		prompts[i] = "x"
	}
	if _, err := CompleteBatch(context.Background(), client, prompts, 4); err != nil {
		t.Fatal(err)
	}
	if client.maxSeen > 4 {
		t.Errorf("observed %d concurrent calls, cap is 4", client.maxSeen)
	}
}

func TestCompleteBatchError(t *testing.T) {
	client := &echoClient{failEvery: 5}
	prompts := make([]string, 20)
	for i := range prompts {
		prompts[i] = "x"
	}
	if _, err := CompleteBatch(context.Background(), client, prompts, 4); err == nil {
		t.Error("batch must surface the first error")
	}
}

func TestCompleteBatchEmpty(t *testing.T) {
	out, err := CompleteBatch(context.Background(), &echoClient{}, nil, 4)
	if err != nil || out != nil {
		t.Errorf("empty batch = %v, %v", out, err)
	}
}

func TestCompleteBatchThroughRecorder(t *testing.T) {
	rec := NewRecorder(&echoClient{})
	prompts := []string{"a b", "c d e", "f"}
	out, err := CompleteBatch(context.Background(), rec, prompts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("outputs = %d", len(out))
	}
	s := rec.Stats()
	if s.Prompts != 3 {
		t.Errorf("recorder counted %d prompts", s.Prompts)
	}
	// Batched latency overlaps: it must be far less than three sequential
	// calls of the largest prompt.
	seq := 3 * promptLatency(3, 4)
	if s.SimulatedLatency >= seq {
		t.Errorf("batched latency %v not overlapped (sequential would be %v)", s.SimulatedLatency, seq)
	}
}

func TestCompleteBatchContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	blocker := &blockingClient{}
	_, err := CompleteBatch(ctx, blocker, []string{"a", "b"}, 1)
	// Either an error or empty completion is fine; it must not hang.
	_ = err
}

type blockingClient struct{}

func (b *blockingClient) Name() string { return "block" }
func (b *blockingClient) Complete(ctx context.Context, p string) (string, error) {
	select {
	case <-ctx.Done():
		return "", ctx.Err()
	default:
		return "ok", nil
	}
}
