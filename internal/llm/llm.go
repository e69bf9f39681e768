// Package llm defines the interface Galois uses to talk to a large
// language model, a simulated latency model matching the paper's reported
// ~110 batched prompts and ~20 s per query, and the engine-global prompt
// scheduler every query issues its prompts through (Scheduler, Tenant).
// A query's Tenant is its accounting: prompts, tokens, cache hits and
// misses, the transport's retries and faults, and the simulated makespan
// all accrue on it (Tenant.Usage).
//
// The engine never sees anything but this interface: text prompt in, text
// completion out. The simulated models live in package simllm; a real
// HTTP-backed client could implement the same interface.
package llm

import (
	"context"
	"fmt"
	"time"
	"unicode"
	"unicode/utf8"
)

// DefaultBatchWorkers is the fallback worker budget: the scheduler's
// concurrent calls per model endpoint, and the width of a stop-and-go
// prompt wave. Every layer that needs a worker-count default (engine
// options, the scheduler, the planner) uses this constant.
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
	// the prompt cache, or collapsed into a concurrent identical call).
	CacheHits int
	// CacheMisses counts prompts that went to the model while a cache was
	// in play.
	CacheMisses int
	// SimulatedLatency is the wall-clock the prompts would have cost on a
	// real API: the query tenant's makespan (TenantStats.Makespan). Under the
	// streaming policy that is the larger of the longest cross-operator
	// dependency chain and the aggregate work spread over the shared
	// worker budget; under the stop-and-go policy it sums the operators'
	// prompt waves (prompts inside one wave overlap; waves add up).
	// Cached prompts cost nothing under both.
	SimulatedLatency time.Duration
	// Retries counts prompt attempts resubmitted by the resilience layer
	// after a retryable failure. Retries never inflate Prompts or
	// SimulatedLatency — the tenant sees one completed call per
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
// every prompt and completion the engine handles. ASCII bytes are
// classified by table; only multi-byte runes (and invalid bytes, which
// decode to U+FFFD as in strings.Fields) go through unicode.IsSpace.
func CountTokens(s string) int {
	n, _, _, _ := scanTokens(s)
	return n
}

// scanTokens is CountTokens' scan. It also reports whether the first and
// the last rune of s are inside a word, so a text joined to a neighbour
// can tell whether a word runs across the join, and whether s ends in an
// incomplete UTF-8 sequence that the bytes after it could complete.
func scanTokens(s string) (n int, first, last, open bool) {
	if s != "" {
		r, _ := utf8.DecodeRuneInString(s)
		first = !unicode.IsSpace(r)
	}
	var prev uint8 // 1 inside a word
	for i := 0; i < len(s); {
		var word uint8
		if c := s[i]; c < utf8.RuneSelf {
			word = asciiWord[c]
			i++
		} else {
			if len(s)-i < utf8.UTFMax && !utf8.FullRuneInString(s[i:]) {
				open = true
			}
			r, size := utf8.DecodeRuneInString(s[i:])
			if !unicode.IsSpace(r) {
				word = 1
			}
			i += size
		}
		n += int(word &^ prev) // a word starts
		prev = word
	}
	return n, first, prev == 1, open
}

// asciiWord is 1 for the ASCII bytes unicode.IsSpace rejects.
var asciiWord = func() (t [utf8.RuneSelf]uint8) {
	for c := range t {
		switch c {
		case '\t', '\n', '\v', '\f', '\r', ' ':
		default:
			t[c] = 1
		}
	}
	return t
}()

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
// per-prompt latency a tenant charges at execution time.
func EstimateLatency(promptTokens, completionTokens int) time.Duration {
	return promptLatency(promptTokens, completionTokens)
}
