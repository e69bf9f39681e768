// Command benchmark is the repository's benchmark: galois-serve measured
// end to end under four traffic mixes, plus a traced replay that splits
// a request's cost by layer. See README.md in this directory.
//
// One run of one workload (the form BENCHMARK.json names):
//
//	bash benchmark/run.sh --workload hot_repeat --seed 1 --seconds 12 --trace 0
//
// Every workload, untraced and traced, as one table:
//
//	bash benchmark/run.sh
//
// Both exit non-zero when any answer was wrong or an accounting
// invariant broke. -aa runs the A/A comparison that sets the bounds in
// BENCHMARK.json; -smoke is a seconds-long pass over all four workloads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	name := flag.String("workload", "", "run one workload and print one JSON result line (default: all four, as a table)")
	seed := flag.Int64("seed", 1, "seed of the generated request lists")
	seconds := flag.Int("seconds", 12, "measured seconds per run the request counts are sized for")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of the traced replay")
	aa := flag.Bool("aa", false, "run two full sets on the same build and compare them against the bounds in BENCHMARK.json")
	runs := flag.Int("runs", 10, "with -aa: runs per workload and set, each with another seed")
	smoke := flag.Bool("smoke", false, "tiny request counts, all four workloads, untraced and traced")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}

	bin, err := buildServer(ctx)
	if err != nil {
		return err
	}
	o, err := newOracle()
	if err != nil {
		return err
	}
	cfg := &settings{serverBin: bin, clients: runtime.NumCPU(), scale: 1, oracle: o}
	if *smoke {
		cfg.scale = 0.02
	}
	echoEnvironment(cfg)

	switch {
	case *aa:
		return runAA(ctx, cfg, *seed, *seconds, *runs)
	case *name == "":
		return runAll(ctx, cfg, *seed, *seconds)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	var res *runResult
	if *trace == 0 {
		res, err = runEndToEnd(ctx, cfg, w, *seed, *seconds)
	} else {
		res, err = runTraced(ctx, cfg, w, *seed, *seconds)
	}
	if err != nil {
		return err
	}
	describe(os.Stderr, res)
	return emit(res)
}

// echoEnvironment records what the numbers were measured on.
func echoEnvironment(cfg *settings) {
	env := func(k string) string {
		if v, ok := os.LookupEnv(k); ok {
			return v
		}
		return "unset"
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s nproc=%d clients=%d (closed loop) GOMAXPROCS=%s GOGC=%s repetitions=%d\n",
		runtime.Version(), runtime.NumCPU(), cfg.clients, env("GOMAXPROCS"), env("GOGC"), repetitions)
}

// emit prints the contract's result object as the last line of standard
// output and fails the process when the run was not clean.
func emit(res *runResult) error {
	for name, m := range res.metrics {
		// A run in which every request failed has no latency to report;
		// JSON has no NaN, and the line must stay parseable.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.metrics[name] = metric{Value: 0, Unit: m.Unit}
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0 && len(res.violations) == 0, res.attempted, res.failed, res.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return verdictOf(res)
}

func verdictOf(res *runResult) error {
	if res.failed > 0 {
		return fmt.Errorf("%s: %d of %d requests failed", res.workload, res.failed, res.attempted)
	}
	if len(res.violations) > 0 {
		return fmt.Errorf("%s: %d invariants broken", res.workload, len(res.violations))
	}
	return nil
}

// describe prints a run for a human: the list's shape, every metric by
// name with its unit, and what went wrong.
func describe(f *os.File, res *runResult) {
	s := res.shares
	fmt.Fprintf(f, "%s (%s; galois-serve %s): %d requests/repetition, distinct %.3f, verbatim repeats %.3f, exact %.2f near %.2f adhoc %.2f, stream %.2f batch %.2f; attempted %d failed %d\n",
		res.workload, res.kind, res.server, s.Requests, s.Distinct, s.VerbatimRepeat, s.Exact, s.Near, s.Adhoc, s.Stream, s.Batch, res.attempted, res.failed)
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "  %-34s %14.4f %s\n", n, res.metrics[n].Value, res.metrics[n].Unit)
	}
	for _, msg := range res.failures {
		fmt.Fprintln(f, "  FAILED", msg)
	}
	for _, msg := range res.violations {
		fmt.Fprintln(f, "  VIOLATION", msg)
	}
}
