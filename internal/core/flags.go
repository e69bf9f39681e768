package core

import "flag"

// ServeOptions is the configuration the galois and galois-serve CLIs start
// from before their flags apply: DefaultOptions with cost-based plan
// selection and the result cache on.
func ServeOptions() Options {
	opts := DefaultOptions()
	opts.Optimizer.CostBased = true
	opts.ResultCacheEnabled = true
	return opts
}

// BindFlags declares the engine flags on fs, each bound to its field of o
// with the field's current value as the default. It is the one place an
// engine option becomes a command-line flag.
func (o *Options) BindFlags(fs *flag.FlagSet) {
	fs.BoolVar(&o.Optimizer.PromptPushdown, "pushdown", o.Optimizer.PromptPushdown, "enable the prompt-pushdown optimization")
	fs.BoolVar(&o.Optimizer.CostBased, "costbased", o.Optimizer.CostBased, "enable cost-based plan selection (enumerate candidate plans, pick the one with the fewest estimated prompts; off = the paper's fixed rewrite heuristics)")
	fs.BoolVar(&o.CacheEnabled, "cache", o.CacheEnabled, "enable the shared prompt cache (dedup + reuse of completions across operators and queries)")
	fs.IntVar(&o.CacheSize, "cache-size", o.CacheSize, "max completions the prompt cache retains")
	fs.BoolVar(&o.ResultCacheEnabled, "result-cache", o.ResultCacheEnabled, "enable the shared result cache (identical LIMIT-free queries served as whole relations: zero prompts, zero planning; invalidated on rebind/ANALYZE)")
	fs.IntVar(&o.ResultCacheSize, "result-cache-size", o.ResultCacheSize, "max relations the result cache retains")
	fs.IntVar(&o.ResultCacheBytes, "result-cache-bytes", o.ResultCacheBytes, "approximate byte budget for the result cache (0 = unlimited; the LRU evicts past it)")
	fs.IntVar(&o.BatchWorkers, "workers", o.BatchWorkers, "shared per-endpoint LLM worker budget, fair-shared across all in-flight queries; also the width of a stop-and-go prompt wave (0 = the engine default)")
	fs.IntVar(&o.Retries, "retries", o.Retries, "max retries per prompt after a retryable failure (0 = default 3, negative = never retry)")
	fs.DurationVar(&o.RetryBackoff, "retry-backoff", o.RetryBackoff, "base backoff ceiling before the first retry; doubles per attempt with deterministic full jitter (0 = default 100ms)")
	fs.DurationVar(&o.PromptTimeout, "prompt-timeout", o.PromptTimeout, "per-attempt deadline on each model call; expiry is retried (0 = no per-attempt deadline)")
	fs.IntVar(&o.BreakerThreshold, "breaker-threshold", o.BreakerThreshold, "consecutive failed prompts that open an endpoint's circuit breaker (0 = default 5, negative = no breaker)")
}

// BindFlags declares the durable-store flags on fs, each bound to its
// field of c with the field's current value as the default.
func (c *StoreConfig) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Dir, "data-dir", c.Dir, "directory for the durable store: statistics and result-cache relations persist across runs (empty = in-memory only)")
	fs.IntVar(&c.MaxBytes, "store-bytes", c.MaxBytes, "approximate on-disk byte budget for the durable store (0 = unlimited; oldest relations evicted past it)")
	fs.DurationVar(&c.TTL, "store-ttl", c.TTL, "expire persisted relations this long after they were written (0 = never)")
}
