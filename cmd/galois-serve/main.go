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
//	             [-cpuprofile FILE] [-memprofile FILE]
//
// The endpoints and the concurrency model are internal/serve's; this
// command parses the flags, opens the durable store, listens, and on
// SIGINT/SIGTERM drains in-flight queries before the store's final
// flush. -cpuprofile profiles the server's CPU from the moment it
// listens until it has drained and -memprofile writes its allocation
// profile at drain, both in pprof's gzipped format (go tool pprof BIN
// FILE); both are off by default.
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
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/serve"
)

func main() {
	c, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2) // the flag set has printed the error and the usage
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, c); err != nil {
		fmt.Fprintln(os.Stderr, "galois-serve:", err)
		os.Exit(1)
	}
}

// cliConfig is galois-serve's parsed command line.
type cliConfig struct {
	addr, model, configPath string
	cpuProfile, memProfile  string
	seed                    int64
	shutdownGrace           time.Duration
	opts                    core.Options
	store                   core.StoreConfig
	server                  serve.Config
}

// parseFlags parses the command-line arguments (program name excluded).
func parseFlags(args []string) (*cliConfig, error) {
	c := &cliConfig{opts: core.ServeOptions(), store: core.StoreConfig{SnapshotInterval: time.Minute}}
	fs := flag.NewFlagSet("galois-serve", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.model, "model", "chatgpt", "simulated model: flan, tk, gpt3, chatgpt")
	fs.StringVar(&c.configPath, "config", "", "multi-backend routing declaration (galois.yaml): named backends with per-role routes, optimizer pricing and failover chains; overrides -model")
	fs.Int64Var(&c.seed, "seed", 1, "noise seed for the simulated model")
	fs.DurationVar(&c.shutdownGrace, "shutdown-grace", 30*time.Second, "max time to drain in-flight queries on SIGINT/SIGTERM")
	fs.IntVar(&c.server.MaxConcurrent, "max-concurrent", 16, "admission gate: max concurrently executing queries (0 = 2x workers)")
	fs.IntVar(&c.server.MaxQueue, "max-queue", 0, "max requests waiting for an execution slot; past it requests are shed with 503 + Retry-After once the adaptive limit is at its floor (0 = 4x max-concurrent)")
	fs.IntVar(&c.server.AdmissionFloor, "admission-floor", 0, "lower bound of the adaptive concurrency limit; AIMD moves the limit between this and -max-concurrent (0 = max-concurrent/4, minimum 1)")
	fs.DurationVar(&c.server.QueryTimeout, "query-timeout", 0, "server-imposed deadline per query; expiry answers 504 (0 = none)")
	c.opts.BindFlags(fs)
	c.store.BindFlags(fs)
	fs.DurationVar(&c.store.SnapshotInterval, "snapshot-interval", c.store.SnapshotInterval, "how often the background snapshot flushes statistics and epochs to the durable store (0 = only on drain)")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "profile the server's CPU from listening until drained into `FILE` (pprof format; off when empty)")
	fs.StringVar(&c.memProfile, "memprofile", "", "write the server's allocation profile to `FILE` at drain (pprof format; off when empty)")
	return c, fs.Parse(args)
}

// run serves until ctx is done, then drains.
func run(ctx context.Context, c *cliConfig) error {
	runner, err := bench.NewRunner(c.seed)
	if err != nil {
		return err
	}
	rt, modelDesc, err := runner.RuntimeFor(c.model, c.configPath, c.opts)
	if err != nil {
		return err
	}
	if c.store.Dir != "" {
		if err := rt.OpenStore(c.store); err != nil {
			return fmt.Errorf("opening durable store: %w", err)
		}
		p := rt.Stats().Persistence
		log.Printf("galois-serve: durable store at %s — warm-loaded %d relations, %d stats tables (dropped %d stale, %d corrupt)",
			c.store.Dir, p.WarmRelations, p.WarmStatsTables, p.DroppedStale, p.DroppedCorrupt)
	}

	srv := newHTTPServer(c.addr, serve.New(rt, c.server))
	stopProfiles, err := startProfiles(c)
	if err != nil {
		return err
	}
	defer stopProfiles()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("galois-serve: %s listening on %s — workers=%d max-concurrent=%d cache=%v result-cache=%v",
		modelDesc, c.addr, c.opts.BatchWorkers, c.server.MaxConcurrent, c.opts.CacheEnabled, c.opts.ResultCacheEnabled)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("galois-serve: draining in-flight queries (grace %s)", c.shutdownGrace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), c.shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Drain the durable store only after in-flight queries finished, so
	// the final flush captures everything they learned.
	if c.store.Dir != "" {
		if err := rt.CloseStore(); err != nil {
			return fmt.Errorf("draining durable store: %w", err)
		}
	}
	if err := stopProfiles(); err != nil {
		return err
	}
	log.Printf("galois-serve: bye")
	return nil
}

// startProfiles starts the CPU profile -cpuprofile asks for and returns
// the function that ends the profiling at drain: it stops the CPU
// profile and writes the allocation profile -memprofile asks for. Only
// its first call does anything.
func startProfiles(c *cliConfig) (stop func() error, err error) {
	var cpu *os.File
	if c.cpuProfile != "" {
		if cpu, err = os.Create(c.cpuProfile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	stopped := false
	return func() error {
		if stopped {
			return nil
		}
		stopped = true
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if c.memProfile != "" {
			errs = append(errs, writeAllocProfile(c.memProfile))
		}
		return errors.Join(errs...)
	}, nil
}

// writeAllocProfile writes the allocation profile, every allocation
// since startup and the live heap as of a fresh collection, to path.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	err = pprof.Lookup("allocs").WriteTo(f, 0)
	return errors.Join(err, f.Close())
}

// newHTTPServer puts h on addr. A client must finish its request headers
// within serve.StallTimeout, or it would hold a connection and a
// goroutine forever. There is deliberately no ReadTimeout: it would
// expire in net/http's background read while a long streamed query
// runs, and that cancels the request's context.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: serve.StallTimeout}
}
