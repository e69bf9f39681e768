// Package faultllm is a deterministic chaos injector for the LLM
// transport: it wraps any llm.Client and injects transient errors,
// per-prompt timeouts, malformed-completion bursts, slow responses and
// whole-endpoint outages according to a seeded fault profile.
//
// Every injected fault is a pure FNV hash of (seed, endpoint, prompt,
// attempt) — the same decision procedure simllm uses for model noise —
// so a chaos run is bit-reproducible regardless of goroutine
// interleaving, worker counts, or which of two concurrent identical
// prompts wins a singleflight. The attempt number rides in on the
// context (llm.WithAttempt, set by the resilience layer), which is what
// lets a profile express "this prompt fails twice, then heals": with
// FailAttempts bounded below the retry limit, every prompt eventually
// succeeds and the differential suite can demand bit-identical results.
package faultllm

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/llm"
)

// MalformedMarker brands every injected malformed completion so a
// validator (and a test) can recognize one unambiguously.
const MalformedMarker = "!!FAULTLLM-MALFORMED!!"

// Profile is a seeded fault profile. Rates are probabilities in [0,1]
// evaluated independently per (prompt, attempt); the zero Profile
// injects nothing.
type Profile struct {
	// Seed keys every fault decision; two injectors with the same seed
	// and profile inject identical faults.
	Seed int64 `json:"seed"`
	// TransientRate is the probability an eligible attempt fails with a
	// retryable backend error (a simulated 500/dropped connection).
	TransientRate float64 `json:"transient_rate,omitempty"`
	// TimeoutRate is the probability an eligible attempt fails as an
	// expired per-prompt deadline (llm.ClassDeadline, retryable).
	TimeoutRate float64 `json:"timeout_rate,omitempty"`
	// MalformedRate is the probability an eligible attempt "succeeds"
	// with a recognizably garbage completion — the cache-poisoning
	// attack the resilience layer's validator must repel.
	MalformedRate float64 `json:"malformed_rate,omitempty"`
	// SlowRate/SlowDelay stretch that fraction of calls by a real sleep
	// (honoring ctx) to exercise timeout and pipelining behavior.
	SlowRate  float64       `json:"slow_rate,omitempty"`
	SlowDelay time.Duration `json:"slow_delay,omitempty"`
	// FailAttempts bounds how many times one prompt can be faulted: an
	// attempt faults only while attempt < FailAttempts. 0 selects the
	// default of 2, so any retry budget of ≥ 2 guarantees eventual
	// success; negative means unbounded (every attempt eligible).
	FailAttempts int `json:"fail_attempts,omitempty"`
}

// normalized fills profile defaults.
func (p Profile) normalized() Profile {
	if p.FailAttempts == 0 {
		p.FailAttempts = 2
	}
	return p
}

// Counters snapshots what the injector has done.
type Counters struct {
	Calls     int64 `json:"calls"`
	Transient int64 `json:"transient"`
	Timeouts  int64 `json:"timeouts"`
	Malformed int64 `json:"malformed"`
	Slowed    int64 `json:"slowed"`
	Outage    int64 `json:"outage"`
}

// Injector wraps a client with seeded fault injection. Safe for
// concurrent use; the profile is immutable after construction and the
// only mutable state is the outage switch and the counters.
type Injector struct {
	inner llm.Client
	p     Profile

	outage atomic.Bool

	calls     atomic.Int64
	transient atomic.Int64
	timeouts  atomic.Int64
	malformed atomic.Int64
	slowed    atomic.Int64
	outaged   atomic.Int64
}

// Wrap builds an injector over inner with the given profile.
func Wrap(inner llm.Client, p Profile) *Injector {
	return &Injector{inner: inner, p: p.normalized()}
}

// Name implements llm.Client; the injector is transparent to cache keys
// and endpoint accounting.
func (in *Injector) Name() string { return in.inner.Name() }

// Profile returns the (normalized) fault profile.
func (in *Injector) Profile() Profile { return in.p }

// SetOutage switches a total endpoint outage on or off: while on, every
// call fails with a transient error without reaching the backend —
// the scenario that must open the circuit breaker.
func (in *Injector) SetOutage(on bool) { in.outage.Store(on) }

// Counters snapshots the injector's fault accounting.
func (in *Injector) Counters() Counters {
	return Counters{
		Calls:     in.calls.Load(),
		Transient: in.transient.Load(),
		Timeouts:  in.timeouts.Load(),
		Malformed: in.malformed.Load(),
		Slowed:    in.slowed.Load(),
		Outage:    in.outaged.Load(),
	}
}

// Validator returns a completion validator that rejects the injector's
// malformed completions — handed to llm.ResilientConfig.Validate so a
// malformed burst is retried instead of cached.
func Validator() func(prompt, completion string) error {
	return func(prompt, completion string) error {
		if strings.Contains(completion, MalformedMarker) {
			return errors.New("faultllm: malformed completion")
		}
		return nil
	}
}

// Complete implements llm.Client with fault injection in front of the
// wrapped backend.
func (in *Injector) Complete(ctx context.Context, prompt string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	in.calls.Add(1)

	if in.outage.Load() {
		in.outaged.Add(1)
		return "", llm.Transient(errors.New("faultllm: endpoint outage"))
	}

	attempt := llm.AttemptFromContext(ctx)

	// Slowness is independent of failure and keyed to the first attempt's
	// hash so a retried prompt doesn't re-roll its latency class.
	if in.p.SlowRate > 0 && in.h01("slow", prompt, 0) < in.p.SlowRate {
		in.slowed.Add(1)
		if err := sleep(ctx, in.p.SlowDelay); err != nil {
			return "", err
		}
	}

	if in.p.FailAttempts < 0 || attempt < in.p.FailAttempts {
		r := in.h01("fault", prompt, attempt)
		switch {
		case r < in.p.TransientRate:
			in.transient.Add(1)
			return "", llm.Transient(fmt.Errorf("faultllm: injected transient (attempt %d)", attempt))
		case r < in.p.TransientRate+in.p.TimeoutRate:
			in.timeouts.Add(1)
			return "", llm.DeadlineError(fmt.Errorf("faultllm: injected timeout (attempt %d)", attempt))
		case r < in.p.TransientRate+in.p.TimeoutRate+in.p.MalformedRate:
			in.malformed.Add(1)
			return MalformedMarker + " " + prompt, nil
		}
	}

	return in.inner.Complete(ctx, prompt)
}

// h01 maps an FNV-1a hash of (seed, endpoint, kind, prompt, attempt)
// to [0,1) — simllm's decision procedure, reused for faults.
func (in *Injector) h01(kind, prompt string, attempt int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d|", in.p.Seed, in.inner.Name(), kind, attempt)
	h.Write([]byte(prompt))
	return float64(h.Sum64()%1e9) / 1e9
}

// sleep waits d honoring ctx.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
