// Package llm defines the interface Galois uses to talk to a large
// language model, plus instrumentation (prompt/token accounting, a
// simulated latency model matching the paper's reported ~110 batched
// prompts and ~20 s per query) and a bounded-concurrency batch helper.
//
// The engine never sees anything but this interface: text prompt in, text
// completion out. The simulated models live in package simllm; a real
// HTTP-backed client could implement the same interface.
package llm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
	"unicode"
)

// DefaultBatchWorkers is the fallback bound on concurrent prompt
// execution in batched operators. Every layer that needs a worker-count
// default (engine options, physical operators) uses this constant.
const DefaultBatchWorkers = 8

// Client is a large language model endpoint.
type Client interface {
	// Name identifies the model ("gpt3", "chatgpt", ...).
	Name() string
	// Complete returns the model's completion for a text prompt.
	Complete(ctx context.Context, prompt string) (string, error)
}

// Stats accumulates usage across one query execution.
type Stats struct {
	// Prompts counts model calls actually issued; prompts served by the
	// cache are counted in CacheHits instead and cost zero latency.
	Prompts          int
	PromptTokens     int
	CompletionTokens int
	// CacheHits counts prompts answered without a model call (resident in
	// the prompt cache, collapsed into a concurrent identical call, or
	// deduplicated inside one batch).
	CacheHits int
	// CacheMisses counts prompts that went to the model while a cache was
	// in play.
	CacheMisses int
	// SimulatedLatency is the wall-clock the prompts would have cost on a
	// real API, assuming the execution the recorder observed. Stop-and-go
	// execution sums per-operator batch waves (prompts inside one
	// CompleteBatch overlap; sequential prompts add up). The pipelined
	// executor instead reports the Scheduler's makespan — the larger of
	// the longest cross-operator dependency chain and the aggregate work
	// spread over the shared worker budget. Cached prompts cost nothing
	// in both models.
	SimulatedLatency time.Duration
	// Retries counts prompt attempts resubmitted by the resilience layer
	// after a retryable failure. Retries never inflate Prompts or
	// SimulatedLatency — the recorder sees one completed call per
	// success — so these counters are the only trace fault recovery
	// leaves in a query's stats.
	Retries int
	// Faults counts failed attempts the resilience layer observed on this
	// query's behalf: transient backend errors, expired per-attempt
	// deadlines, and rejected malformed completions.
	Faults int
	// BreakerFastFails counts calls shed without touching the backend
	// because the endpoint's circuit breaker was open.
	BreakerFastFails int
}

// Add merges other into s.
func (s *Stats) Add(other Stats) {
	s.Prompts += other.Prompts
	s.PromptTokens += other.PromptTokens
	s.CompletionTokens += other.CompletionTokens
	s.CacheHits += other.CacheHits
	s.CacheMisses += other.CacheMisses
	s.SimulatedLatency += other.SimulatedLatency
	s.Retries += other.Retries
	s.Faults += other.Faults
	s.BreakerFastFails += other.BreakerFastFails
}

// String renders a one-line summary. Resilience counters appear only
// when a fault actually occurred, so fault-free output is unchanged.
func (s Stats) String() string {
	out := fmt.Sprintf("prompts=%d prompt_tokens=%d completion_tokens=%d cache_hits=%d cache_misses=%d simulated_latency=%s",
		s.Prompts, s.PromptTokens, s.CompletionTokens, s.CacheHits, s.CacheMisses, s.SimulatedLatency.Round(time.Millisecond))
	if s.Retries > 0 || s.Faults > 0 || s.BreakerFastFails > 0 {
		out += fmt.Sprintf(" retries=%d faults=%d breaker_fast_fails=%d", s.Retries, s.Faults, s.BreakerFastFails)
	}
	return out
}

// CountTokens approximates a tokenizer with whitespace splitting; good
// enough for accounting and latency simulation. It equals
// len(strings.Fields(s)) without building the fields: the count runs on
// every prompt and completion the engine handles.
func CountTokens(s string) int {
	n := 0
	inField := false
	for _, r := range s {
		if unicode.IsSpace(r) {
			inField = false
		} else if !inField {
			inField = true
			n++
		}
	}
	return n
}

// Latency model constants, set so that a typical Galois query
// (~110 prompts, mostly batched) lands near the paper's ~20 s.
const (
	perPromptLatency = 420 * time.Millisecond
	perTokenLatency  = 35 * time.Millisecond
)

// promptLatency estimates the API latency of one prompt.
func promptLatency(promptTokens, completionTokens int) time.Duration {
	return perPromptLatency + time.Duration(completionTokens)*perTokenLatency +
		time.Duration(promptTokens)*perTokenLatency/10
}

// EstimateLatency exposes the simulated-latency model of one prompt to
// planners: the cost-based optimizer prices candidate plans with the same
// per-prompt latency the recorders charge at execution time.
func EstimateLatency(promptTokens, completionTokens int) time.Duration {
	return promptLatency(promptTokens, completionTokens)
}

// Recorder wraps a Client and accumulates Stats. It is safe for
// concurrent use. Batches issued through CompleteBatch record the maximum
// latency of the batch (prompts overlap); direct Complete calls add up.
type Recorder struct {
	inner Client

	mu    sync.Mutex
	stats Stats
}

// NewRecorder wraps client.
func NewRecorder(client Client) *Recorder { return &Recorder{inner: client} }

// Name implements Client.
func (r *Recorder) Name() string { return r.inner.Name() }

// Complete implements Client, recording usage.
func (r *Recorder) Complete(ctx context.Context, prompt string) (string, error) {
	out, err := r.inner.Complete(ctx, prompt)
	if err != nil {
		return "", err
	}
	pt, ct := CountTokens(prompt), CountTokens(out)
	r.mu.Lock()
	r.stats.Prompts++
	r.stats.PromptTokens += pt
	r.stats.CompletionTokens += ct
	r.stats.SimulatedLatency += promptLatency(pt, ct)
	r.mu.Unlock()
	return out, nil
}

// Stats returns a snapshot of the accumulated usage.
func (r *Recorder) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Reset clears the accumulated usage.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats = Stats{}
}

// recordOverlapped accounts one prompt issued through the pipelined
// scheduler: the prompt and its tokens accrue, but no latency — the
// scheduler owns wall-clock accounting (critical path vs worker area),
// and the query's makespan is merged into Stats at the end.
func (r *Recorder) recordOverlapped(pt, ct int) {
	r.mu.Lock()
	r.stats.Prompts++
	r.stats.PromptTokens += pt
	r.stats.CompletionTokens += ct
	r.mu.Unlock()
}

// recordCache accounts prompts answered by (hits) or issued past (misses)
// the prompt cache. Hits add zero simulated latency.
func (r *Recorder) recordCache(hits, misses int) {
	r.mu.Lock()
	r.stats.CacheHits += hits
	r.stats.CacheMisses += misses
	r.mu.Unlock()
}

// recordResilience attributes fault-recovery work to this query. The
// resilience layer sits below the recorder (retries happen inside one
// recorded call), so it reports through the context instead of the call
// chain; see WithRecorder.
func (r *Recorder) recordResilience(retries, faults, fastFails int) {
	r.mu.Lock()
	r.stats.Retries += retries
	r.stats.Faults += faults
	r.stats.BreakerFastFails += fastFails
	r.mu.Unlock()
}

// recordBatch accounts a batch of prompts: tokens add up, latency is the
// slowest prompt of each wave of `workers` concurrent calls.
func (r *Recorder) recordBatch(prompts, outputs []string, workers int) {
	if len(prompts) == 0 {
		return
	}
	if workers < 1 {
		workers = 1
	}
	var totalPT, totalCT int
	var maxLat time.Duration
	for i := range prompts {
		pt, ct := CountTokens(prompts[i]), CountTokens(outputs[i])
		totalPT += pt
		totalCT += ct
		if l := promptLatency(pt, ct); l > maxLat {
			maxLat = l
		}
	}
	waves := (len(prompts) + workers - 1) / workers
	r.mu.Lock()
	r.stats.Prompts += len(prompts)
	r.stats.PromptTokens += totalPT
	r.stats.CompletionTokens += totalCT
	r.stats.SimulatedLatency += time.Duration(waves) * maxLat
	r.mu.Unlock()
}

// CompleteBatch runs the prompts through the client with at most workers
// concurrent calls and returns completions positionally aligned with the
// prompts. The first error cancels the remaining work; all distinct
// errors are joined into the returned one. When client is a *Recorder the
// batch is accounted with overlapping latency.
func CompleteBatch(ctx context.Context, client Client, prompts []string, workers int) ([]string, error) {
	return CompleteBatchCached(ctx, client, nil, PromptClass{}, prompts, workers)
}

// CompleteBatchCached is CompleteBatch with a prompt cache: the batch is
// deduplicated first (N prompts with K distinct strings cost at most K
// completions), each distinct prompt consults the cache, and concurrent
// identical prompts — including ones from other batches sharing the cache
// — collapse into one in-flight call. Prompts answered without a model
// call are recorded as cache hits with zero simulated latency. A nil
// cache degrades to the plain batch behavior. A batch is one operator's
// prompt wave, so its completions enter the cache under one class.
func CompleteBatchCached(ctx context.Context, client Client, cache *Cache, class PromptClass, prompts []string, workers int) ([]string, error) {
	if len(prompts) == 0 {
		return nil, nil
	}
	if workers < 1 {
		workers = 1
	}

	// Unwrap the recorder: the batch is accounted once at the end so the
	// latency model can overlap concurrent prompts.
	rec, _ := client.(*Recorder)
	raw := client
	if rec != nil {
		raw = rec.inner
	}

	// Intra-batch dedup: run each distinct prompt once, then fan the
	// answers back out to the original positions.
	distinct := prompts
	var slot map[string]int
	if cache != nil {
		slot = make(map[string]int, len(prompts))
		distinct = make([]string, 0, len(prompts))
		for _, p := range prompts {
			if _, ok := slot[p]; !ok {
				slot[p] = len(distinct)
				distinct = append(distinct, p)
			}
		}
	}
	if workers > len(distinct) {
		workers = len(distinct)
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	outputs := make([]string, len(distinct))
	issued := make([]bool, len(distinct))
	errs := make([]error, len(distinct))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				var out string
				var err error
				if cache != nil {
					out, issued[i], err = cache.Fetch(ctx, client.Name(), class, distinct[i], func() (string, error) {
						return raw.Complete(ctx, distinct[i])
					})
				} else {
					issued[i] = true
					out, err = raw.Complete(ctx, distinct[i])
				}
				if err != nil {
					errs[i] = err
					cancel()
					continue
				}
				outputs[i] = out
			}
		}()
	}
	for i := range distinct {
		select {
		case jobs <- i:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
	}
	close(jobs)
	wg.Wait()

	if err := joinBatchErrors(parent, errs); err != nil {
		return nil, err
	}
	// All dispatched jobs succeeded, but the parent context may have been
	// canceled between dispatches, leaving undispatched slots empty —
	// never return partial results as if they were answers.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if rec != nil {
		// Only the prompts that reached the model cost tokens and latency;
		// everything else was served by the cache.
		var issuedPrompts, issuedOutputs []string
		for i := range distinct {
			if issued[i] {
				issuedPrompts = append(issuedPrompts, distinct[i])
				issuedOutputs = append(issuedOutputs, outputs[i])
			}
		}
		rec.recordBatch(issuedPrompts, issuedOutputs, workers)
		if cache != nil {
			rec.recordCache(len(prompts)-len(issuedPrompts), len(issuedPrompts))
		}
	}

	if cache == nil {
		return outputs, nil
	}
	full := make([]string, len(prompts))
	for i, p := range prompts {
		full[i] = outputs[slot[p]]
	}
	return full, nil
}

// joinBatchErrors reduces a batch's per-job errors to the one the
// caller should see, keeping cancellation and backend failure apart.
// The first failing job cancels the batch context, so sibling jobs die
// with context.Canceled through no fault of the backend; joining those
// secondary cancellations into the report would misattribute them. Real
// failures therefore mask cancellations entirely, and a batch that died
// only of cancellation reports the parent context's own error — the
// caller's cancel or deadline — never a backend failure.
func joinBatchErrors(parent context.Context, errs []error) error {
	var failures, cancels []error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if IsCancellation(err) {
			cancels = append(cancels, err)
		} else {
			failures = append(failures, err)
		}
	}
	if len(failures) > 0 {
		return joinDistinct(failures)
	}
	if len(cancels) == 0 {
		return nil
	}
	if err := parent.Err(); err != nil {
		return err
	}
	return joinDistinct(cancels)
}

// joinDistinct joins the distinct non-nil errors (by message) so callers
// see everything that actually failed, not just the first by slice order.
func joinDistinct(errs []error) error {
	var joined []error
	seen := map[string]bool{}
	for _, err := range errs {
		if err == nil || seen[err.Error()] {
			continue
		}
		seen[err.Error()] = true
		joined = append(joined, err)
	}
	return errors.Join(joined...)
}
