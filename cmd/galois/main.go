// Command galois executes SQL queries against a simulated pre-trained LLM
// (and, for hybrid queries, the in-memory ground-truth DBMS), printing the
// result relation, the query plan, and prompt statistics.
//
// Usage:
//
//	galois [-model chatgpt] [-seed 1] [-explain] [-stats] [-truth]
//	       [-config galois.yaml] [-route role=backend,...]
//	       [-data-dir DIR] "SELECT ..."
//
// Examples:
//
//	galois "SELECT name FROM country WHERE independence_year > 1950"
//	galois -model gpt3 -stats "SELECT c.name, m.birth_date FROM city c, mayor m WHERE c.mayor = m.name AND m.election_year = 2019"
//	galois -explain "SELECT name FROM city WHERE population > 1000000"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/rescache"
	"repro/internal/simllm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "galois:", err)
		os.Exit(1)
	}
}

func run() error {
	model := flag.String("model", "chatgpt", "simulated model: flan, tk, gpt3, chatgpt")
	configPath := flag.String("config", "", "multi-backend routing declaration (galois.yaml): named backends with per-role routes, optimizer pricing and failover chains; overrides -model")
	routeFlag := flag.String("route", "", "per-session role routes as role=backend[,role=backend...] (requires -config)")
	seed := flag.Int64("seed", 1, "noise seed for the simulated model")
	explain := flag.Bool("explain", false, "print the optimized plan instead of executing")
	stats := flag.Bool("stats", false, "print prompt statistics after the result")
	truth := flag.Bool("truth", false, "also execute on the ground-truth DBMS and print both")
	pushdown := flag.Bool("pushdown", false, "enable the prompt-pushdown optimization")
	cache := flag.Bool("cache", true, "enable the engine-level prompt cache (dedup + reuse of completions)")
	cacheSize := flag.Int("cache-size", llm.DefaultCacheSize, "max completions the prompt cache retains")
	resultCache := flag.Bool("result-cache", true, "enable the relation-level result cache (identical LIMIT-free queries served without planning or prompts; invalidated on rebind/ANALYZE)")
	resultCacheSize := flag.Int("result-cache-size", rescache.DefaultSize, "max relations the result cache retains")
	resultCacheBytes := flag.Int("result-cache-bytes", 0, "approximate byte budget for the result cache (0 = unlimited; the LRU evicts past it)")
	pipeline := flag.Bool("pipeline", true, "run the streaming execution policy (overlap prompt waves across operators; off = the paper's stop-and-go policy)")
	costbased := flag.Bool("costbased", true, "enable cost-based plan selection (enumerate candidate plans, pick the one with the fewest estimated prompts; off = the paper's fixed rewrite heuristics)")
	workers := flag.Int("workers", 0, "LLM worker budget (0 = the engine default): the scheduler's concurrent calls per endpoint, and under -pipeline=false also the width of a stop-and-go prompt wave")
	resilient := flag.Bool("resilient", true, "enable the fault-tolerant LLM transport (deadlines, retries, circuit breaker, retry budget)")
	retries := flag.Int("retries", 0, "max retries per prompt after a retryable failure (0 = default 3, negative = never retry)")
	retryBackoff := flag.Duration("retry-backoff", 0, "base backoff ceiling before the first retry; doubles per attempt with deterministic full jitter (0 = default 100ms)")
	promptTimeout := flag.Duration("prompt-timeout", 0, "per-attempt deadline on each model call; expiry is retried (0 = no per-attempt deadline)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive failed prompts that open an endpoint's circuit breaker (0 = default 5, negative = no breaker)")
	dataDir := flag.String("data-dir", "", "directory for the durable store: statistics and result-cache relations persist across invocations (empty = in-memory only)")
	storeBytes := flag.Int("store-bytes", 0, "approximate on-disk byte budget for the durable store (0 = unlimited)")
	storeTTL := flag.Duration("store-ttl", 0, "expire persisted relations this long after they were written (0 = never)")
	flag.Parse()

	sql := strings.TrimSpace(strings.Join(flag.Args(), " "))
	if sql == "" {
		flag.Usage()
		return fmt.Errorf("missing SQL query argument")
	}

	runner, err := bench.NewRunner(*seed)
	if err != nil {
		return err
	}
	opts := core.DefaultOptions()
	opts.Optimizer.PromptPushdown = *pushdown
	opts.Optimizer.CostBased = *costbased
	opts.CacheEnabled = *cache
	opts.CacheSize = *cacheSize
	opts.ResultCacheEnabled = *resultCache
	opts.ResultCacheSize = *resultCacheSize
	opts.ResultCacheBytes = *resultCacheBytes
	opts.Pipelined = *pipeline
	if *workers > 0 {
		opts.BatchWorkers = *workers
	}
	opts.Resilient = *resilient
	opts.Retries = *retries
	opts.RetryBackoff = *retryBackoff
	opts.PromptTimeout = *promptTimeout
	opts.BreakerThreshold = *breakerThreshold

	var rt *core.Runtime
	var header string
	if *configPath != "" {
		cfg, err := config.Load(*configPath)
		if err != nil {
			return err
		}
		if *routeFlag != "" {
			routes, err := parseRoutes(*routeFlag)
			if err != nil {
				return err
			}
			opts.Routes = routes
		}
		if rt, err = runner.RuntimeFromConfig(cfg, opts); err != nil {
			return err
		}
		names := make([]string, len(cfg.Backends))
		for i, b := range cfg.Backends {
			names[i] = fmt.Sprintf("%s=%s", b.Name, b.Model)
		}
		header = "routed: " + strings.Join(names, ", ")
	} else {
		if *routeFlag != "" {
			return fmt.Errorf("-route requires -config (no named backends without a routing declaration)")
		}
		profile, ok := simllm.ProfileByName(*model)
		if !ok {
			return fmt.Errorf("unknown model %q (want flan, tk, gpt3 or chatgpt)", *model)
		}
		header = fmt.Sprintf("%s (%s)", profile.DisplayName, profile.Params)
		if rt, err = runner.Runtime(runner.Model(profile), opts); err != nil {
			return err
		}
	}
	if *dataDir != "" {
		// A one-shot CLI has no background traffic: warm-load on open,
		// flush on the way out. Repeated invocations over one -data-dir
		// behave like one long-lived session.
		if err := rt.OpenStore(core.StoreConfig{Dir: *dataDir, MaxBytes: *storeBytes, TTL: *storeTTL}); err != nil {
			return fmt.Errorf("opening durable store: %w", err)
		}
		defer rt.CloseStore()
	}
	engine := rt.Engine()

	ctx := context.Background()
	isExplain := strings.HasPrefix(strings.ToUpper(sql), "EXPLAIN")
	if *explain && !isExplain {
		// Print the chosen plan with its cost estimates instead of
		// executing; EXPLAIN ANALYZE (typed out) executes and annotates.
		sql = "EXPLAIN " + sql
		isExplain = true
	}

	rel, rep, err := engine.Query(ctx, sql)
	if err != nil {
		return err
	}
	fmt.Printf("-- %s (%s) --\n", header, sql)
	fmt.Print(rel.String())
	fmt.Printf("(%d rows)\n", rel.Cardinality())
	if *stats {
		fmt.Printf("\nplan:\n%s\nllm usage: %s\n", rep.Plan, rep.Stats.String())
		if rep.Estimate != nil {
			fmt.Printf("planner:   %s\n", rep.Estimate.String())
		}
	}

	// A plan rendering has no ground-truth relation to compare against.
	if *truth && !isExplain {
		td, err := runner.GroundTruth(ctx, sql)
		if err != nil {
			return fmt.Errorf("ground truth: %w", err)
		}
		fmt.Printf("\n-- ground truth (DBMS) --\n%s(%d rows)\n", td.String(), td.Cardinality())
	}
	return nil
}

// parseRoutes parses "role=backend[,role=backend...]" into the
// per-session route map -route accepts.
func parseRoutes(s string) (map[string]string, error) {
	out := map[string]string{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		role, backend, ok := strings.Cut(part, "=")
		if !ok || strings.TrimSpace(role) == "" || strings.TrimSpace(backend) == "" {
			return nil, fmt.Errorf("bad -route entry %q (want role=backend)", part)
		}
		out[strings.TrimSpace(role)] = strings.TrimSpace(backend)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-route: no routes given")
	}
	return out, nil
}
