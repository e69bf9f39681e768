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

// FuzzCountTokens checks the promise of CountTokens' doc comment on
// arbitrary input: the count is len(strings.Fields(s)).
func FuzzCountTokens(f *testing.F) {
	for _, seed := range []string{
		"", "one two", "bad\xffutf8 \xc3(", "next\u0085line", "nbsp\u00a0sep",
		"\v\f x", " \t\r\n", "\xe2\x80", "naïve 北京 🌍",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := CountTokens(s), len(strings.Fields(s)); got != want {
			t.Errorf("CountTokens(%q) = %d, strings.Fields has %d", s, got, want)
		}
	})
}

// TestTenantUsage: an answered prompt counts once on its tenant, with
// its tokens, and Usage prices it at the tenant's makespan.
func TestTenantUsage(t *testing.T) {
	tn := NewScheduler(nil, 2).Tenant(context.Background(), "")
	defer tn.Close()
	out, _, err := tn.Single().Submit(&echoClient{}, nil, "hello world", 0).Wait()
	if err != nil || !strings.HasPrefix(out, "echo:") {
		t.Fatalf("Do = %q, %v", out, err)
	}
	want := Stats{Prompts: 1, PromptTokens: 2, CompletionTokens: 3, SimulatedLatency: promptLatency(2, 3)}
	if got := tn.Usage(); got != want {
		t.Errorf("usage = %+v, want %+v", got, want)
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

// waveTenant opens a stop-and-go tenant on a fresh scheduler running
// workers concurrent calls per endpoint, with waves as wide.
func waveTenant(ctx context.Context, cache *Cache, workers int) *Tenant {
	tn := NewScheduler(cache, workers).Tenant(ctx, "wave")
	tn.SetWaves(workers)
	return tn
}

// runWave issues prompts through client as one settled wave and returns
// the answers in prompt order.
func runWave(tn *Tenant, client Client, prompts []string) ([]string, error) {
	w := tn.Wave()
	futures := make([]*Future, len(prompts))
	for i, p := range prompts {
		futures[i] = w.Submit(client, nil, p, 0)
	}
	if err := w.Settle(); err != nil {
		return nil, err
	}
	out := make([]string, len(prompts))
	for i, f := range futures {
		out[i], _, _ = f.Wait()
	}
	return out, nil
}

// TestWaveOrder: a wave's answers stay aligned with its prompts.
func TestWaveOrder(t *testing.T) {
	client := &echoClient{}
	prompts := make([]string, 50)
	for i := range prompts {
		prompts[i] = fmt.Sprintf("p%02d", i)
	}
	out, err := runWave(waveTenant(context.Background(), nil, 8), client, prompts)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if o != "echo: "+prompts[i] {
			t.Fatalf("output %d misaligned: %q", i, o)
		}
	}
}

// TestWaveBoundsConcurrency: a wave never runs more concurrent
// calls than the endpoint's worker budget.
func TestWaveBoundsConcurrency(t *testing.T) {
	client := &echoClient{}
	prompts := make([]string, 40)
	for i := range prompts {
		prompts[i] = "x"
	}
	if _, err := runWave(waveTenant(context.Background(), nil, 4), client, prompts); err != nil {
		t.Fatal(err)
	}
	if client.maxSeen > 4 {
		t.Errorf("observed %d concurrent calls, cap is 4", client.maxSeen)
	}
}

// TestWaveError: Settle surfaces a failing prompt of the wave.
func TestWaveError(t *testing.T) {
	client := &echoClient{failEvery: 5}
	prompts := make([]string, 20)
	for i := range prompts {
		prompts[i] = "x"
	}
	if _, err := runWave(waveTenant(context.Background(), nil, 4), client, prompts); err == nil {
		t.Error("wave must surface the first error")
	}
}

// TestWaveEmpty: an empty wave settles at once and costs nothing.
func TestWaveEmpty(t *testing.T) {
	tn := waveTenant(context.Background(), nil, 4)
	out, err := runWave(tn, &echoClient{}, nil)
	if err != nil || len(out) != 0 {
		t.Errorf("empty wave = %v, %v", out, err)
	}
	if tn.Stats().Makespan() != 0 {
		t.Errorf("empty wave cost %v", tn.Stats().Makespan())
	}
}

// TestWaveUsage: a wave's prompts and tokens land on the tenant, and
// its latency is ⌈issued / width⌉ rounds of its slowest prompt —
// overlapped, not summed.
func TestWaveUsage(t *testing.T) {
	client := &echoClient{}
	prompts := []string{"a b", "c d e", "f"}
	tn := waveTenant(context.Background(), nil, 2)
	out, err := runWave(tn, client, prompts)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("outputs = %d", len(out))
	}
	// Two rounds of the slowest prompt ("c d e" -> "echo: c d e").
	want := Stats{Prompts: 3, PromptTokens: 6, CompletionTokens: 9, SimulatedLatency: 2 * promptLatency(3, 4)}
	if got := tn.Usage(); got != want {
		t.Errorf("usage = %+v, want %+v", got, want)
	}
	// Waves add up: a second one (a single prompt) costs one more round.
	if _, err := runWave(tn, client, []string{"g"}); err != nil {
		t.Fatal(err)
	}
	if want := 2*promptLatency(3, 4) + promptLatency(1, 2); tn.Stats().Makespan() != want {
		t.Errorf("two waves = %v, want %v", tn.Stats().Makespan(), want)
	}
}

// TestWaveContextCancel: a wave on a cancelled query fails
// instead of hanging.
func TestWaveContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tn := waveTenant(ctx, nil, 1)
	defer tn.Close()
	if _, err := runWave(tn, &blockingClient{}, []string{"a", "b"}); err == nil {
		t.Error("cancelled wave settled without error")
	}
}

// TestWaveClosedMidWave: prompts of a wave purged by Close fail the wave
// even though no prompt failed at the model.
func TestWaveClosedMidWave(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	gated := clientFunc("gate", func(ctx context.Context, prompt string) (string, error) {
		close(started)
		<-release
		return "ok", nil
	})
	tn := waveTenant(context.Background(), nil, 1)
	w := tn.Wave()
	for _, p := range []string{"a", "b", "c"} {
		w.Submit(gated, nil, p, 0)
	}
	<-started // "a" holds the only slot; "b" and "c" are queued
	tn.Close()
	close(release)
	if err := w.Settle(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Settle after Close = %v, want context.Canceled", err)
	}
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
