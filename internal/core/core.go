// Package core implements the Galois engine — the paper's primary
// contribution: executing SQL over data stored in a pre-trained LLM,
// optionally combined with tables in a traditional DBMS (hybrid queries).
//
// A query runs through four steps, mirroring Section 4's workflow:
//
//  1. parse + plan: the SQL is parsed and a logical plan built over the
//     user-provided schema (the plan is the chain-of-thought
//     decomposition);
//  2. optimize + lower: relational rewrites, then LLM-specific lowering
//     injecting prompt operators (key scan, attribute fetch, boolean
//     filter);
//  3. execute: prompt operators call the LLM, traditional operators
//     combine the materialized tuples;
//  4. clean: every LLM answer is normalized and type-checked before it
//     becomes a cell value.
//
// The engine is split into two tiers, mirroring classic DBMS
// architecture: a shared, concurrency-safe Runtime (model endpoints,
// table bindings, prompt cache, optimizer statistics, and the
// engine-global fair-share prompt scheduler) and cheap per-query
// Sessions on top (Runtime.NewSession). A single caller opens one session
// and keeps it; concurrent servers hold one Runtime and open a Session per
// query.
package core

import (
	"time"

	"repro/internal/clean"
	"repro/internal/llm"
	"repro/internal/optimizer"
)

// Options configure a Runtime and the Sessions opened on it. Most fields
// are session-tier (each session may differ); CacheEnabled/CacheSize and
// BatchWorkers-as-scheduler-budget are runtime-tier, fixed at NewRuntime.
type Options struct {
	// Optimizer selects plan rewrites, including the prompt-pushdown
	// ablation.
	Optimizer optimizer.Options
	// Clean selects answer normalizations, including the type-enforcement
	// and code-canonicalization ablations.
	Clean clean.Options
	// MaxScanIterations caps the "return more results" loop per leaf.
	MaxScanIterations int
	// BatchWorkers is the engine-global scheduler's per-endpoint worker
	// budget — the real concurrency of every query's prompts, shared
	// fairly by all in-flight queries, fixed at NewRuntime — and, per
	// session, the width of a stop-and-go prompt wave in the latency
	// model.
	BatchWorkers int
	// Pipelined selects the execution policy of the one executor. Every
	// query opens a tenant on the engine-global prompt scheduler (one
	// bounded worker pool per model endpoint, alive for the runtime's
	// lifetime, fair-shared across in-flight queries) and its LLM
	// operators issue their prompts through it. On, the streaming policy:
	// operators submit prompts as upstream tuples arrive (an attribute
	// fetch starts while the key scan is still iterating "more results"
	// pages, the verifier runs alongside the primary fetch), a satisfied
	// LIMIT stops upstream prompt issue, and simulated latency is the
	// tenant's makespan — the larger of the critical dependency path and
	// the aggregate work spread over the worker budget. Off, the paper's
	// stop-and-go policy: each operator drains its input and issues one
	// prompt wave that settles before rows move on, a LIMIT still pays
	// for the full prompt set, and latency sums the waves (each
	// ⌈prompts / BatchWorkers⌉ × its slowest prompt). Results are
	// identical under both. Default on (DefaultOptions).
	Pipelined bool
	// CacheEnabled turns on the runtime-level prompt cache: completions
	// are reused across operators and across every query of this runtime,
	// and concurrent identical prompts (duplicates within one wave
	// included) collapse into one model call. Default on
	// (DefaultOptions).
	CacheEnabled bool
	// CacheSize caps the number of completions the prompt cache retains
	// (0 means llm.DefaultCacheSize).
	CacheSize int
	// ResultCacheEnabled turns on the runtime-level semantic result
	// cache: whole query results are cached by a canonical plan
	// fingerprint plus the per-table epoch stamp of the bindings the
	// plan reads. An identical LIMIT-free query arriving again costs
	// zero prompts and zero planning ("exact" hit), K concurrent
	// identical queries execute once (singleflight), and a query whose
	// plan is subsumed by a cached relation's producing plan — superset
	// of columns, weaker-or-equal filters, same bindings — is answered
	// by running its residual plan (filter/project/sort/limit/distinct)
	// locally over the cached relation for zero prompts ("subsumed"
	// hit). BindLLMTable, AttachDB and PrimeTableKeys bump only the
	// epoch of the component they touch, invalidating exactly the
	// entries reading it. Runtime-tier, fixed at NewRuntime. Default
	// off (the paper configuration and the engine defaults report fresh
	// per-query statistics); galois-serve enables it by default via
	// -result-cache.
	ResultCacheEnabled bool
	// ResultCacheSize caps the number of relations the result cache
	// retains (0 means rescache.DefaultSize).
	ResultCacheSize int
	// ResultCacheBytes caps the approximate resident bytes of the
	// result cache's relations; the LRU evicts past it (0 means
	// unlimited — only ResultCacheSize bounds it).
	ResultCacheBytes int
	// Resilient turns on the fault-tolerant LLM transport: the runtime
	// wraps its primary client — and, memoized, any session verifier —
	// in an llm.ResilientClient adding per-attempt deadlines, bounded
	// deterministic-jitter retries, a per-endpoint circuit breaker and a
	// token-bucket retry budget. Retries happen inside one recorded
	// call, so fault-free accounting (prompts, cache counters, simulated
	// makespan) is bit-identical with or without the wrapper. Runtime-
	// tier, fixed at NewRuntime. Default on (DefaultOptions); off
	// reproduces the fail-fast transport of the earlier engine.
	Resilient bool
	// Retries bounds resubmissions per prompt after a retryable failure
	// (0 means llm.DefaultMaxRetries; negative disables retries).
	Retries int
	// RetryBackoff is the first retry's backoff ceiling; the ceiling
	// doubles per attempt and the actual sleep is deterministic full
	// jitter (0 means llm.DefaultBaseBackoff).
	RetryBackoff time.Duration
	// PromptTimeout bounds each individual model-call attempt; an
	// expired attempt is retried as llm.ClassDeadline (0 means no
	// per-attempt deadline).
	PromptTimeout time.Duration
	// BreakerThreshold is the run of consecutive failed prompts that
	// opens an endpoint's circuit breaker (0 means
	// llm.DefaultBreakerThreshold; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker sheds before probing
	// (0 means llm.DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// AdmissionClass selects the scheduler dispatch band this session's
	// queries run in: "interactive" (the default, also for "") or
	// "batch". Interactive tenants are drained with strict priority —
	// a saturating batch query can never delay an interactive query's
	// next prompt by more than the one prompt already on the wire —
	// while batch tenants consume every slot interactive traffic leaves
	// idle. Session-tier: galois-serve maps the ?class= request
	// parameter onto it. Unknown spellings fall back to interactive.
	AdmissionClass string
	// AdmissionWeight scales the session's deficit share within its
	// band: a weight-2 batch tenant drains twice the prompt tokens per
	// rotation of a weight-1 one. Values below 1 (including the zero
	// default) mean weight 1.
	AdmissionWeight int
	// DefaultSource decides where unqualified tables live when both an
	// LLM binding and a DB table exist: "LLM" (default) or "DB".
	DefaultSource string
	// Routes overrides, per session, which named backend each prompt
	// role ("keyscan", "fetch", "filter", "verify") resolves to on a
	// multi-backend runtime. Overrides win over table pins and the
	// runtime's role routes; names must be declared backends. Routing
	// selects the model answering, so Routes participates in the result
	// cache's options fingerprint.
	Routes map[string]string
	// Verifier, when non-nil, double-checks every fetched attribute value
	// with a second model and NULLs out disagreements (Section 6,
	// "Knowledge of the Unknown").
	Verifier llm.Client
	// VerifyTolerance is the relative error under which two numeric
	// answers agree (0 means the 10% default).
	VerifyTolerance float64
}

// normalize fills the zero values every tier agrees on; Runtime
// construction and Session.SetOptions both apply it so a session
// configured explicitly behaves like one inheriting runtime defaults.
func (o *Options) normalize() {
	if o.MaxScanIterations <= 0 {
		o.MaxScanIterations = 12
	}
	if o.BatchWorkers <= 0 {
		o.BatchWorkers = llm.DefaultBatchWorkers
	}
	if o.DefaultSource == "" {
		o.DefaultSource = "LLM"
	}
}

// DefaultOptions is the paper-faithful configuration.
func DefaultOptions() Options {
	return Options{
		Optimizer:         optimizer.Defaults(),
		Clean:             clean.DefaultOptions(),
		MaxScanIterations: 12,
		BatchWorkers:      llm.DefaultBatchWorkers,
		DefaultSource:     "LLM",
		Pipelined:         true,
		CacheEnabled:      true,
		Resilient:         true,
	}
}

// resilientConfig maps the options' resilience knobs onto the transport
// wrapper's configuration (zero fields select the llm defaults).
func (o *Options) resilientConfig() llm.ResilientConfig {
	return llm.ResilientConfig{
		MaxRetries:       o.Retries,
		BaseBackoff:      o.RetryBackoff,
		PromptTimeout:    o.PromptTimeout,
		BreakerThreshold: o.BreakerThreshold,
		BreakerCooldown:  o.BreakerCooldown,
	}
}
