// Command galois-serve runs Galois as a long-lived concurrent SQL
// service: one shared runtime (model endpoints, prompt cache, optimizer
// statistics, and the engine-global fair-share prompt scheduler) serving
// any number of concurrent queries over HTTP, each in its own cheap
// session.
//
// Usage:
//
//	galois-serve [-addr :8080] [-model chatgpt] [-seed 1]
//	             [-max-concurrent 16] [-workers 8] [-cache]
//	             [-result-cache] [-result-cache-size 256] [-result-cache-bytes N]
//	             [-data-dir DIR] [-store-bytes N] [-store-ttl D] [-snapshot-interval 1m]
//
// Endpoints:
//
//	POST /query            SQL in the request body (or GET /query?q=...);
//	                       ?plan=1 includes the executed plan, ?class=batch
//	                       runs in the scheduler's batch band, ?weight=N
//	                       scales the deficit share. Returns the relation,
//	                       row count and per-query prompt stats as JSON —
//	                       or as a row stream: Accept: application/x-ndjson
//	                       delivers NDJSON frames (header, rows, stats
//	                       trailer) as the executor yields tuples, and
//	                       ?stream=1 the same frames as SSE events.
//	GET  /healthz          liveness probe.
//	GET  /stats            serving counters, admission-controller and
//	                       scheduler state, shared cache statistics.
//
// Concurrency model: all queries share one per-endpoint LLM worker
// budget (-workers), divided by the engine-global deficit-weighted
// scheduler — interactive queries drain with strict priority, batch
// queries soak up idle slots, and a batch backlog can never delay an
// interactive prompt by more than the one already on the wire. The
// admission controller moves its effective concurrency limit between
// -admission-floor and -max-concurrent by AIMD on backpressure signals;
// excess requests queue FIFO (abandoning the queue when their client
// disconnects) and are shed with 503 + Retry-After only at the floor.
// SIGINT/SIGTERM drain in-flight queries before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/rescache"
	"repro/internal/simllm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "galois-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	model := flag.String("model", "chatgpt", "simulated model: flan, tk, gpt3, chatgpt")
	configPath := flag.String("config", "", "multi-backend routing declaration (galois.yaml): named backends with per-role routes, optimizer pricing and failover chains; overrides -model")
	seed := flag.Int64("seed", 1, "noise seed for the simulated model")
	maxConcurrent := flag.Int("max-concurrent", 16, "admission gate: max concurrently executing queries (0 = 2x workers)")
	workers := flag.Int("workers", llm.DefaultBatchWorkers, "shared per-endpoint LLM worker budget, fair-shared across all in-flight queries")
	cache := flag.Bool("cache", true, "enable the shared prompt cache (dedup + reuse of completions across queries)")
	cacheSize := flag.Int("cache-size", llm.DefaultCacheSize, "max completions the prompt cache retains")
	resultCache := flag.Bool("result-cache", true, "enable the shared result cache (identical LIMIT-free queries served as whole relations: zero prompts, zero planning; invalidated on rebind/ANALYZE)")
	resultCacheSize := flag.Int("result-cache-size", rescache.DefaultSize, "max relations the result cache retains")
	resultCacheBytes := flag.Int("result-cache-bytes", 0, "approximate byte budget for the result cache (0 = unlimited; the LRU evicts past it)")
	costbased := flag.Bool("costbased", true, "enable cost-based plan selection")
	pushdown := flag.Bool("pushdown", false, "enable the prompt-pushdown optimization")
	shutdownGrace := flag.Duration("shutdown-grace", 30*time.Second, "max time to drain in-flight queries on SIGINT/SIGTERM")
	maxQueue := flag.Int("max-queue", 0, "max requests waiting for an execution slot; past it requests are shed with 503 + Retry-After once the adaptive limit is at its floor (0 = 4x max-concurrent)")
	admissionFloor := flag.Int("admission-floor", 0, "lower bound of the adaptive concurrency limit; AIMD moves the limit between this and -max-concurrent (0 = max-concurrent/4, minimum 1)")
	queryTimeout := flag.Duration("query-timeout", 0, "server-imposed deadline per query; expiry answers 504 (0 = none)")
	resilient := flag.Bool("resilient", true, "enable the fault-tolerant LLM transport (deadlines, retries, circuit breaker, retry budget)")
	retries := flag.Int("retries", 0, "max retries per prompt after a retryable failure (0 = default 3, negative = never retry)")
	retryBackoff := flag.Duration("retry-backoff", 0, "base backoff ceiling before the first retry; doubles per attempt with deterministic full jitter (0 = default 100ms)")
	promptTimeout := flag.Duration("prompt-timeout", 0, "per-attempt deadline on each model call; expiry is retried (0 = no per-attempt deadline)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive failed prompts that open an endpoint's circuit breaker (0 = default 5, negative = no breaker)")
	dataDir := flag.String("data-dir", "", "directory for the durable store: statistics and result-cache relations persist across restarts (empty = in-memory only)")
	storeBytes := flag.Int("store-bytes", 0, "approximate on-disk byte budget for the durable store (0 = unlimited; oldest relations evicted past it)")
	storeTTL := flag.Duration("store-ttl", 0, "expire persisted relations this long after they were written (0 = never)")
	snapshotInterval := flag.Duration("snapshot-interval", time.Minute, "how often the background snapshot flushes statistics and epochs to the durable store (0 = only on drain)")
	flag.Parse()

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
	opts.BatchWorkers = *workers
	opts.Resilient = *resilient
	opts.Retries = *retries
	opts.RetryBackoff = *retryBackoff
	opts.PromptTimeout = *promptTimeout
	opts.BreakerThreshold = *breakerThreshold

	var rt *core.Runtime
	var modelDesc string
	if *configPath != "" {
		cfg, err := config.Load(*configPath)
		if err != nil {
			return err
		}
		if rt, err = runner.RuntimeFromConfig(cfg, opts); err != nil {
			return err
		}
		names := make([]string, len(cfg.Backends))
		for i, b := range cfg.Backends {
			names[i] = fmt.Sprintf("%s=%s", b.Name, b.Model)
		}
		modelDesc = "routed: " + strings.Join(names, ", ")
	} else {
		profile, ok := simllm.ProfileByName(*model)
		if !ok {
			return fmt.Errorf("unknown model %q (want flan, tk, gpt3 or chatgpt)", *model)
		}
		modelDesc = fmt.Sprintf("%s (%s)", profile.DisplayName, profile.Params)
		if rt, err = runner.Runtime(runner.Model(profile), opts); err != nil {
			return err
		}
	}
	if *dataDir != "" {
		if err := rt.OpenStore(core.StoreConfig{
			Dir:              *dataDir,
			MaxBytes:         *storeBytes,
			TTL:              *storeTTL,
			SnapshotInterval: *snapshotInterval,
		}); err != nil {
			return fmt.Errorf("opening durable store: %w", err)
		}
		p := rt.Persistence()
		log.Printf("galois-serve: durable store at %s — warm-loaded %d relations, %d stats tables (dropped %d stale, %d corrupt)",
			*dataDir, p.WarmRelations, p.WarmStatsTables, p.DroppedStale, p.DroppedCorrupt)
	}

	handler := newServer(rt, serverConfig{
		maxConcurrent:  *maxConcurrent,
		maxQueue:       *maxQueue,
		queryTimeout:   *queryTimeout,
		admissionFloor: *admissionFloor,
	})
	srv := &http.Server{Addr: *addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("galois-serve: %s listening on %s — workers=%d max-concurrent=%d cache=%v result-cache=%v",
		modelDesc, *addr, *workers, *maxConcurrent, *cache, *resultCache)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("galois-serve: draining in-flight queries (grace %s)", *shutdownGrace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Drain the durable store only after in-flight queries finished, so
	// the final flush captures everything they learned.
	if *dataDir != "" {
		if err := rt.CloseStore(); err != nil {
			return fmt.Errorf("draining durable store: %w", err)
		}
	}
	log.Printf("galois-serve: bye")
	return nil
}
