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
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "galois:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	opts := core.ServeOptions()
	var store core.StoreConfig
	model := flag.String("model", "chatgpt", "simulated model: flan, tk, gpt3, chatgpt")
	configPath := flag.String("config", "", "multi-backend routing declaration (galois.yaml): named backends with per-role routes, optimizer pricing and failover chains; overrides -model")
	routeFlag := flag.String("route", "", "per-session role routes as role=backend[,role=backend...] (requires -config)")
	seed := flag.Int64("seed", 1, "noise seed for the simulated model")
	explain := flag.Bool("explain", false, "print the optimized plan instead of executing")
	stats := flag.Bool("stats", false, "print prompt statistics after the result")
	truth := flag.Bool("truth", false, "also execute on the ground-truth DBMS and print both")
	flag.BoolVar(&opts.Pipelined, "pipeline", opts.Pipelined, "run the streaming execution policy (overlap prompt waves across operators; off = the paper's stop-and-go policy)")
	opts.BindFlags(flag.CommandLine)
	store.BindFlags(flag.CommandLine)
	flag.Parse()

	sql := strings.TrimSpace(strings.Join(flag.Args(), " "))
	if sql == "" {
		flag.Usage()
		return fmt.Errorf("missing SQL query argument")
	}
	if *routeFlag != "" {
		if *configPath == "" {
			return fmt.Errorf("-route requires -config (no named backends without a routing declaration)")
		}
		routes, err := config.ParseRoutes(*routeFlag)
		if err != nil {
			return fmt.Errorf("-route: %w", err)
		}
		opts.Routes = routes
	}

	runner, err := bench.NewRunner(*seed)
	if err != nil {
		return err
	}
	rt, header, err := runner.RuntimeFor(*model, *configPath, opts)
	if err != nil {
		return err
	}
	if store.Dir != "" {
		// A one-shot CLI has no background traffic: warm-load on open,
		// flush on the way out. Repeated invocations over one -data-dir
		// behave like one long-lived session, so a failed final flush
		// fails the run: the next one would silently pay again.
		if err := rt.OpenStore(store); err != nil {
			return fmt.Errorf("opening durable store: %w", err)
		}
		defer func() {
			if cerr := rt.CloseStore(); cerr != nil && err == nil {
				err = fmt.Errorf("draining durable store: %w", cerr)
			}
		}()
	}
	sess := rt.NewSession()

	ctx := context.Background()
	isExplain := strings.HasPrefix(strings.ToUpper(sql), "EXPLAIN")
	if *explain && !isExplain {
		// Print the chosen plan with its cost estimates instead of
		// executing; EXPLAIN ANALYZE (typed out) executes and annotates.
		sql = "EXPLAIN " + sql
		isExplain = true
	}

	rel, rep, err := sess.Query(ctx, sql)
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
