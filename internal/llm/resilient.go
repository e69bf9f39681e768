package llm

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"
)

// Resilience defaults. A typical corpus query issues ~110 prompts; three
// retries with sub-second backoff rides out a transient burst without
// stretching one query past its deadline, and the breaker trips only on
// a run of failures long enough to mean the endpoint is down, not noisy.
const (
	DefaultMaxRetries       = 3
	DefaultBaseBackoff      = 100 * time.Millisecond
	DefaultMaxBackoff       = 2 * time.Second
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 30 * time.Second
	// DefaultRetryBudgetRatio deposits this many retry tokens per
	// first-attempt prompt, i.e. sustained retry traffic is capped at
	// ~25% of organic traffic (the Finagle-style budget).
	DefaultRetryBudgetRatio = 0.25
	// DefaultRetryBudgetReserve seeds and floors the bucket so cold
	// starts and small queries can still retry.
	DefaultRetryBudgetReserve = 10
	// DefaultRetryBudgetCap ceilings the bucket: a long healthy run can
	// bank at most this many retry tokens, so the ratio keeps applying
	// over a bounded recent window (as in Finagle's sliding-window
	// budget) instead of hours of calm traffic funding one giant storm.
	DefaultRetryBudgetCap = 100
)

// ResilientConfig tunes a ResilientClient. The zero value of each knob
// selects the default above; explicit negatives disable the knob where
// that is meaningful (MaxRetries < 0 means never retry,
// BreakerThreshold < 0 means no breaker).
type ResilientConfig struct {
	// Endpoint overrides the name this client reports (and stamps onto
	// errors and breaker sheds). Empty means the inner client's own name.
	// Backend registries set it so a named backend ("cheap") keeps its
	// identity even when several backends share one underlying model.
	Endpoint string
	// MaxRetries bounds resubmissions per prompt (not counting the first
	// attempt). 0 selects DefaultMaxRetries; negative disables retries.
	MaxRetries int
	// BaseBackoff is the backoff ceiling of the first retry; the ceiling
	// doubles per attempt up to MaxBackoff, and the actual sleep is full
	// jitter — uniform in [0, ceiling) — derived deterministically from
	// (prompt, attempt).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// PromptTimeout bounds each individual attempt; 0 means no
	// per-attempt deadline. An expired attempt classifies as
	// ClassDeadline (retryable), never as the caller's cancellation.
	PromptTimeout time.Duration
	// BreakerThreshold is the run of consecutive failed prompts (all
	// retries exhausted) that opens the endpoint's circuit breaker.
	// 0 selects DefaultBreakerThreshold; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker sheds before letting
	// one half-open probe through.
	BreakerCooldown time.Duration
	// RetryBudgetRatio and RetryBudgetReserve shape the token bucket
	// that forbids retry storms: every first attempt deposits Ratio
	// tokens, every retry withdraws one, and the bucket never drains
	// below zero nor is seeded below Reserve. RetryBudgetCap bounds how
	// many tokens healthy traffic can bank (0 selects the default; it is
	// raised to Reserve when Reserve is larger, so a huge reserve stays
	// effective).
	RetryBudgetRatio   float64
	RetryBudgetReserve float64
	RetryBudgetCap     float64
	// Validate, when set, vets every completion before it is returned
	// (and therefore before any cache can store it). A rejection counts
	// as a transient fault and is retried — the defense against a
	// backend's malformed-output burst poisoning the prompt cache.
	Validate func(prompt, completion string) error
	// Sleep and Now are test/bench seams. Nil Sleep waits on a real
	// timer (honoring ctx); nil Now is time.Now. The chaos bench
	// substitutes an instant sleep and a fake clock so backoff and
	// breaker cooldowns cost no wall-clock and stay deterministic.
	Sleep func(ctx context.Context, d time.Duration) error
	Now   func() time.Time
}

// normalized fills defaults.
func (c ResilientConfig) normalized() ResilientConfig {
	if c.MaxRetries == 0 {
		c.MaxRetries = DefaultMaxRetries
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = DefaultBaseBackoff
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = DefaultMaxBackoff
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.BreakerThreshold < 0 {
		c.BreakerThreshold = 0 // disabled
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
	if c.RetryBudgetRatio <= 0 {
		c.RetryBudgetRatio = DefaultRetryBudgetRatio
	}
	if c.RetryBudgetReserve <= 0 {
		c.RetryBudgetReserve = DefaultRetryBudgetReserve
	}
	if c.RetryBudgetCap <= 0 {
		c.RetryBudgetCap = DefaultRetryBudgetCap
	}
	if c.RetryBudgetCap < c.RetryBudgetReserve {
		c.RetryBudgetCap = c.RetryBudgetReserve
	}
	if c.Sleep == nil {
		c.Sleep = sleepCtx
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// sleepCtx is the production Sleep: a real timer that aborts on ctx.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// BreakerState is the circuit breaker's position.
type BreakerState int32

const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String names the state for /healthz and diagnostics.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// ResilienceCounters is a snapshot of a ResilientClient's lifetime
// accounting, surfaced through /stats and the chaos bench artifact.
type ResilienceCounters struct {
	Retries          int64   `json:"retries"`            // resubmitted attempts
	Faults           int64   `json:"faults"`             // failed attempts (transient, deadline, rejected completion)
	BreakerFastFails int64   `json:"breaker_fast_fails"` // calls shed while open
	BreakerOpens     int64   `json:"breaker_opens"`      // closed/half-open -> open transitions
	BudgetDenied     int64   `json:"budget_denied"`      // retries forbidden by the budget
	BudgetTokens     float64 `json:"budget_tokens"`      // current bucket level
}

// ResilientClient wraps a Client with per-attempt deadlines, bounded
// deterministic-jitter retries, a completion validator, a per-endpoint
// circuit breaker (closed/open/half-open with a single probe), and a
// token-bucket retry budget. It implements Client, so it slots between
// the scheduler and the raw transport: every path that issues prompts —
// every operator prompt the scheduler runs, cache-miss leaders —
// traverses it, and because retries happen inside one Complete call, the
// query's tenant still counts exactly one prompt per success.
// Fair-share accounting and the simulated-makespan math are therefore
// bit-identical to a fault-free run; the retry overhead shows up only in
// the resilience counters, which the client also charges to the tenant
// in the call's context.
type ResilientClient struct {
	inner Client
	cfg   ResilientConfig

	retries          atomic.Int64
	faults           atomic.Int64
	breakerFastFails atomic.Int64
	breakerOpens     atomic.Int64
	budgetDenied     atomic.Int64

	mu           sync.Mutex
	state        BreakerState
	consecFails  int       // consecutive exhausted prompts while closed
	reopenAt     time.Time // when an open breaker admits a probe
	probing      bool      // a half-open probe is in flight
	budgetTokens float64
}

// NewResilient wraps inner. A nil config field means its default; see
// ResilientConfig.
func NewResilient(inner Client, cfg ResilientConfig) *ResilientClient {
	cfg = cfg.normalized()
	return &ResilientClient{inner: inner, cfg: cfg, budgetTokens: cfg.RetryBudgetReserve}
}

// Name implements Client: the configured endpoint name when one was
// declared, the inner client's otherwise.
func (r *ResilientClient) Name() string {
	if r.cfg.Endpoint != "" {
		return r.cfg.Endpoint
	}
	return r.inner.Name()
}

// Config returns the normalized configuration in effect.
func (r *ResilientClient) Config() ResilientConfig { return r.cfg }

// State reports the breaker position, transitioning open -> half-open
// when the cooldown has elapsed (so observers see the state a call would
// see, not a stale "open").
func (r *ResilientClient) State() BreakerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == BreakerOpen && !r.cfg.Now().Before(r.reopenAt) {
		return BreakerHalfOpen
	}
	return r.state
}

// Counters snapshots the lifetime resilience accounting.
func (r *ResilientClient) Counters() ResilienceCounters {
	r.mu.Lock()
	tokens := r.budgetTokens
	r.mu.Unlock()
	return ResilienceCounters{
		Retries:          r.retries.Load(),
		Faults:           r.faults.Load(),
		BreakerFastFails: r.breakerFastFails.Load(),
		BreakerOpens:     r.breakerOpens.Load(),
		BudgetDenied:     r.budgetDenied.Load(),
		BudgetTokens:     tokens,
	}
}

// Complete implements Client with the full resilience pipeline.
func (r *ResilientClient) Complete(ctx context.Context, prompt string) (string, error) {
	probe, err := r.admit()
	if err != nil {
		r.breakerFastFails.Add(1)
		chargeResilience(ctx, 0, 0, 1)
		return "", err
	}

	// Deposit the budget once per prompt, not per attempt: retries must
	// not fund further retries.
	r.deposit()

	var lastErr error
	for attempt := 0; ; attempt++ {
		out, err := r.attempt(ctx, prompt, attempt)
		if err == nil {
			r.onSuccess(probe)
			return out, nil
		}
		class := Classify(err)
		if class == ClassCanceled {
			// The caller's own context ended: not a backend failure.
			// The breaker run is left untouched and nothing is counted
			// as a fault — but a half-open probe slot must be handed
			// back, or the breaker sheds every future call forever.
			r.releaseProbe(probe)
			return "", err
		}
		r.faults.Add(1)
		chargeResilience(ctx, 0, 1, 0)
		lastErr = err
		if class == ClassPermanent {
			break
		}
		if attempt >= r.cfg.MaxRetries {
			break
		}
		if !r.withdraw() {
			r.budgetDenied.Add(1)
			lastErr = &Error{Class: ClassBudget, Endpoint: r.Name(),
				Err: fmt.Errorf("%w after %v", ErrRetryBudgetExhausted, err)}
			break
		}
		if serr := r.cfg.Sleep(ctx, r.backoff(prompt, attempt)); serr != nil {
			// Cancelled mid-backoff: the caller gave up, not the backend,
			// so the breaker run is untouched — but as above, a probe
			// slot must not leak with the abandoned call.
			r.releaseProbe(probe)
			return "", serr
		}
		r.retries.Add(1)
		chargeResilience(ctx, 1, 0, 0)
	}
	r.onFailure(probe)
	return "", r.withEndpoint(lastErr)
}

// attempt runs one call against the inner client under the per-attempt
// deadline, distinguishing that deadline's expiry from the caller's own
// context ending, and vetting the completion before it can escape to
// any cache.
func (r *ResilientClient) attempt(ctx context.Context, prompt string, attempt int) (string, error) {
	actx := WithAttempt(ctx, attempt)
	cancel := func() {}
	if r.cfg.PromptTimeout > 0 {
		actx, cancel = context.WithTimeout(actx, r.cfg.PromptTimeout)
	}
	out, err := r.inner.Complete(actx, prompt)
	cancel()
	if err != nil {
		if Classify(err) == ClassCanceled && ctx.Err() == nil {
			// The attempt's own deadline fired while the caller is still
			// live: a retryable per-prompt timeout, not a cancellation.
			return "", &Error{Class: ClassDeadline, Endpoint: r.Name(),
				Err: fmt.Errorf("attempt %d: %w", attempt, err)}
		}
		return "", err
	}
	if r.cfg.Validate != nil {
		if verr := r.cfg.Validate(prompt, out); verr != nil {
			return "", &Error{Class: ClassTransient, Endpoint: r.Name(),
				Err: fmt.Errorf("rejected completion (attempt %d): %w", attempt, verr)}
		}
	}
	return out, nil
}

// withEndpoint stamps this endpoint's name onto a classified error (or
// wraps an unclassified one as permanent) so upstream surfaces can name
// the failing backend. The name of the endpoint that actually ran the
// attempt always wins: an error that arrives already attributed to a
// different endpoint (a previous backend in a failover chain, a nested
// transport) keeps that history in Chain instead of masking this
// attempt's attribution.
func (r *ResilientClient) withEndpoint(err error) error {
	name := r.Name()
	if ce, ok := err.(*Error); ok {
		if ce.Endpoint != "" && ce.Endpoint != name {
			ce.Chain = append(ce.Chain, ce.Endpoint)
		}
		ce.Endpoint = name
		return ce
	}
	return &Error{Class: Classify(err), Endpoint: name, Err: err}
}

// backoff returns the deterministic full-jitter backoff before retrying
// a prompt: uniform in [0, min(MaxBackoff, BaseBackoff<<attempt)),
// derived from an FNV hash of (prompt, attempt) so the schedule is a
// pure function of the work, never of goroutine interleaving or a
// global RNG — the property the differential chaos suite rests on.
func (r *ResilientClient) backoff(prompt string, attempt int) time.Duration {
	ceiling := r.cfg.BaseBackoff << uint(attempt)
	if ceiling <= 0 || ceiling > r.cfg.MaxBackoff {
		ceiling = r.cfg.MaxBackoff
	}
	h := fnv.New64a()
	h.Write([]byte(prompt))
	fmt.Fprintf(h, "|retry:%d", attempt)
	return time.Duration(h.Sum64() % uint64(ceiling))
}

// ---------------------------------------------------------------- breaker

// admit gates a call on the breaker. It returns probe=true when this
// call is the half-open probe (its outcome decides the breaker), and a
// ClassBreakerOpen error when the call must be shed.
func (r *ResilientClient) admit() (probe bool, err error) {
	if r.cfg.BreakerThreshold <= 0 {
		return false, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case BreakerClosed:
		return false, nil
	case BreakerOpen:
		if r.cfg.Now().Before(r.reopenAt) {
			return false, &Error{Class: ClassBreakerOpen, Endpoint: r.Name(), Err: ErrBreakerOpen}
		}
		// Cooldown elapsed: this call becomes the half-open probe.
		r.state = BreakerHalfOpen
		r.probing = true
		return true, nil
	case BreakerHalfOpen:
		if r.probing {
			// One probe at a time; everyone else keeps shedding.
			return false, &Error{Class: ClassBreakerOpen, Endpoint: r.Name(), Err: ErrBreakerOpen}
		}
		r.probing = true
		return true, nil
	}
	return false, nil
}

// onSuccess records a prompt that ultimately succeeded: a successful
// probe closes the breaker, and any success resets the failure run.
func (r *ResilientClient) onSuccess(probe bool) {
	if r.cfg.BreakerThreshold <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if probe {
		r.probing = false
	}
	r.state = BreakerClosed
	r.consecFails = 0
}

// onFailure records a prompt whose retries were exhausted: a failed
// probe reopens the breaker for another cooldown; a run of failures
// while closed reaching the threshold opens it.
func (r *ResilientClient) onFailure(probe bool) {
	if r.cfg.BreakerThreshold <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if probe {
		r.probing = false
		r.openLocked()
		return
	}
	if r.state != BreakerClosed {
		return
	}
	r.consecFails++
	if r.consecFails >= r.cfg.BreakerThreshold {
		r.openLocked()
	}
}

// releaseProbe hands back the half-open probe slot when the probe's
// outcome is inconclusive — the caller cancelled before the backend
// could answer. The breaker stays half-open and the next admitted call
// becomes a fresh probe; without this, an abandoned probe would leave
// r.probing set forever and every later call would shed.
func (r *ResilientClient) releaseProbe(probe bool) {
	if !probe || r.cfg.BreakerThreshold <= 0 {
		return
	}
	r.mu.Lock()
	r.probing = false
	r.mu.Unlock()
}

// openLocked trips the breaker. Callers hold r.mu.
func (r *ResilientClient) openLocked() {
	r.state = BreakerOpen
	r.consecFails = 0
	r.reopenAt = r.cfg.Now().Add(r.cfg.BreakerCooldown)
	r.breakerOpens.Add(1)
}

// ----------------------------------------------------------------- budget

// deposit credits the retry budget for one first-attempt prompt,
// clamped at the cap so calm traffic cannot bank an unbounded balance.
func (r *ResilientClient) deposit() {
	r.mu.Lock()
	r.budgetTokens += r.cfg.RetryBudgetRatio
	if r.budgetTokens > r.cfg.RetryBudgetCap {
		r.budgetTokens = r.cfg.RetryBudgetCap
	}
	r.mu.Unlock()
}

// withdraw takes one retry token, refusing when the bucket is at or
// below the zero line but never draining past it. The bucket is seeded
// with (and conceptually floored by) the reserve, so small workloads
// can still ride out bursts.
func (r *ResilientClient) withdraw() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.budgetTokens < 1 {
		return false
	}
	r.budgetTokens--
	return true
}
