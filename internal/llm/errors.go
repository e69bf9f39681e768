package llm

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// ErrorClass partitions model-call failures into the categories the
// resilience layer (and the serve front end) react to differently. The
// taxonomy separates three axes the raw error string conflates: whose
// fault it was (caller vs backend), whether retrying can help, and
// whether the failure was the resilience layer shedding load on purpose.
type ErrorClass int

const (
	// ClassPermanent: the backend answered and the answer is a real
	// failure (malformed request, unsupported prompt, authorization).
	// Retrying the same prompt cannot help.
	ClassPermanent ErrorClass = iota
	// ClassTransient: the backend failed in a way that is expected to
	// heal (a 500/503 burst, a dropped connection, a rejected malformed
	// completion). Retrying with backoff is the correct reaction.
	ClassTransient
	// ClassDeadline: one attempt's per-prompt deadline expired before
	// the backend answered. Retryable — the next attempt may be faster —
	// but accounted separately from backend-reported errors.
	ClassDeadline
	// ClassCanceled: the caller's own context ended (cancellation or the
	// caller's deadline). Never retried, never counted against the
	// backend, never trips the breaker: the backend did nothing wrong.
	ClassCanceled
	// ClassBreakerOpen: the per-endpoint circuit breaker is open and the
	// call was shed without touching the backend. Callers should back
	// off; servers translate this into 503 + Retry-After.
	ClassBreakerOpen
	// ClassBudget: the retry budget was exhausted — the original failure
	// was transient, but retrying further would feed a retry storm.
	ClassBudget
)

// String names the class for diagnostics and stats surfaces.
func (c ErrorClass) String() string {
	switch c {
	case ClassPermanent:
		return "permanent"
	case ClassTransient:
		return "transient"
	case ClassDeadline:
		return "deadline"
	case ClassCanceled:
		return "canceled"
	case ClassBreakerOpen:
		return "breaker-open"
	case ClassBudget:
		return "retry-budget"
	}
	return "unknown"
}

// Error is a classified model-call failure. The resilience layer wraps
// every failure it propagates in one, so callers anywhere up the stack
// (operators, the session, the HTTP front end) can switch on Classify
// instead of string-matching.
type Error struct {
	Class    ErrorClass
	Endpoint string // model endpoint name, when known
	// Chain lists the endpoints attempted before Endpoint, in order, when
	// the failure traversed a failover route or a layered transport.
	// Endpoint is always the last backend actually attempted; Chain is
	// empty for single-backend failures.
	Chain []string
	Err   error // underlying cause, never nil
}

// Error implements error.
func (e *Error) Error() string {
	if e.Endpoint != "" {
		if len(e.Chain) > 0 {
			return fmt.Sprintf("llm %s (after %s) [%s]: %v", e.Endpoint, strings.Join(e.Chain, ", "), e.Class, e.Err)
		}
		return fmt.Sprintf("llm %s [%s]: %v", e.Endpoint, e.Class, e.Err)
	}
	return fmt.Sprintf("llm [%s]: %v", e.Class, e.Err)
}

// Attempted lists every endpoint the failure touched, in attempt order
// (the chain, then the final endpoint).
func (e *Error) Attempted() []string {
	out := append([]string(nil), e.Chain...)
	if e.Endpoint != "" {
		out = append(out, e.Endpoint)
	}
	return out
}

// Unwrap exposes the cause to errors.Is/As chains.
func (e *Error) Unwrap() error { return e.Err }

// Transient wraps err as a retryable backend failure. Fault injectors
// and real HTTP clients use it to mark 5xx-style errors.
func Transient(err error) error { return &Error{Class: ClassTransient, Err: err} }

// Permanent wraps err as a non-retryable backend failure.
func Permanent(err error) error { return &Error{Class: ClassPermanent, Err: err} }

// DeadlineError wraps err as an expired per-prompt deadline (retryable,
// accounted separately from backend-reported errors).
func DeadlineError(err error) error { return &Error{Class: ClassDeadline, Err: err} }

// ErrBreakerOpen is the sentinel under every breaker-shed failure.
var ErrBreakerOpen = errors.New("circuit breaker open")

// ErrRetryBudgetExhausted is the sentinel under every failure where a
// retry was warranted but the token budget forbade it.
var ErrRetryBudgetExhausted = errors.New("retry budget exhausted")

// Classify reports the class of a model-call failure. Unwrapped context
// errors are the caller's own cancellation/deadline (the resilience
// layer always wraps the deadlines it imposes), and unclassified errors
// default to permanent — retrying an unknown failure is how retry
// storms start.
func Classify(err error) ErrorClass {
	if err == nil {
		return ClassPermanent
	}
	var ce *Error
	if errors.As(err, &ce) {
		return ce.Class
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ClassCanceled
	}
	return ClassPermanent
}

// IsCancellation reports whether the failure is the caller's own context
// ending — not a backend failure, and never to be reported as one.
func IsCancellation(err error) bool { return Classify(err) == ClassCanceled }

// ---------------------------------------------------------------- context

type ctxKey int

const (
	ctxKeyAttempt ctxKey = iota
	ctxKeyTenant
)

// WithAttempt marks ctx with the zero-based retry attempt of the prompt
// being issued. The resilience layer sets it on every attempt; fault
// injectors read it so an injected failure can be a pure function of
// (prompt, attempt) — the seed of the deterministic chaos harness.
func WithAttempt(ctx context.Context, attempt int) context.Context {
	return context.WithValue(ctx, ctxKeyAttempt, attempt)
}

// AttemptFromContext reports the retry attempt marked on ctx (0 when
// unmarked, i.e. a first attempt or an unwrapped client).
func AttemptFromContext(ctx context.Context) int {
	if v, ok := ctx.Value(ctxKeyAttempt).(int); ok {
		return v
	}
	return 0
}

// chargeResilience attributes fault-recovery work to the query that
// suffered it: the tenant TenantFor put in the prompt's context. The
// resilience layer retries inside one call, below the scheduler, so the
// context is its only path to the query. A call outside any tenant (a
// health probe) charges nothing.
func chargeResilience(ctx context.Context, retries, faults, fastFails int) {
	t, _ := ctx.Value(ctxKeyTenant).(*Tenant)
	if t == nil {
		return
	}
	t.mu.Lock()
	t.usage.Retries += retries
	t.usage.Faults += faults
	t.usage.BreakerFastFails += fastFails
	t.mu.Unlock()
}
