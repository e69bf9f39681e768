// Command galois-bench regenerates every experiment in the paper's
// evaluation section: Table 1 (result cardinality per model), Table 2
// (cell-value matches per method and query class on ChatGPT), the latency
// note of Section 5, the Figure 3 plan and Figure 4 prompt, plus the
// ablations called out in DESIGN.md.
//
// Usage:
//
//	galois-bench                 # everything
//	galois-bench -table 1       # just Table 1
//	galois-bench -table 2
//	galois-bench -figure 3      # the lowered plan for q'
//	galois-bench -figure 4      # the few-shot prompt
//	galois-bench -latency
//	galois-bench -ablation pushdown|cleaning|joins|more|cache|pipeline|optimizer|
//	                       concurrency|resultcache|chaos|persist|sched|routing|
//	                       verify|portability|schemafree
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
	"repro/internal/prompt"
	"repro/internal/rescache"
	"repro/internal/simllm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "galois-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	table := flag.Int("table", 0, "regenerate one table (1 or 2); 0 = all")
	figure := flag.Int("figure", 0, "regenerate one figure (3 or 4); 0 = all")
	latency := flag.Bool("latency", false, "only the latency measurement")
	ablation := flag.String("ablation", "", "one ablation: pushdown, cleaning, joins, more, cache, pipeline, optimizer, concurrency, resultcache, chaos, persist, sched, routing, verify, portability, schemafree")
	explain := flag.String("explain", "", "print EXPLAIN ANALYZE for the given SQL under the cost-based engine and exit")
	configPath := flag.String("config", "", "multi-backend routing declaration (galois.yaml) for -explain: plans are priced and routed across the declared backends")
	seed := flag.Int64("seed", 1, "noise seed")
	model := flag.String("model", "chatgpt", "model for Table 2 and ablations")
	cache := flag.Bool("cache", false, "run the table/latency/extension experiments with the engine prompt cache on (default off = the paper's configuration; ablations define their own configs)")
	cacheSize := flag.Int("cache-size", llm.DefaultCacheSize, "max completions the prompt cache retains when -cache is set")
	resultCache := flag.Bool("result-cache", false, "run the table/latency/extension experiments with the relation-level result cache on (default off = the paper's configuration)")
	resultCacheSize := flag.Int("result-cache-size", rescache.DefaultSize, "max relations the result cache retains when -result-cache is set")
	resultCacheBytes := flag.Int("result-cache-bytes", 0, "approximate byte budget for the result cache (0 = unlimited; the LRU evicts past it)")
	pipeline := flag.Bool("pipeline", false, "run the table/latency/extension experiments under the streaming execution policy (default off = the paper's stop-and-go policy)")
	workers := flag.Int("workers", 0, "LLM worker budget (0 = the engine default): the scheduler's concurrent calls per endpoint, and under -pipeline=false also the width of a stop-and-go prompt wave")
	flag.Parse()

	runner, err := bench.NewRunner(*seed)
	if err != nil {
		return err
	}
	profile, ok := simllm.ProfileByName(*model)
	if !ok {
		return fmt.Errorf("unknown model %q", *model)
	}
	ctx := context.Background()
	opts := bench.PaperOptions()
	opts.CacheEnabled = *cache
	opts.CacheSize = *cacheSize
	opts.ResultCacheEnabled = *resultCache
	opts.ResultCacheSize = *resultCacheSize
	opts.ResultCacheBytes = *resultCacheBytes
	opts.Pipelined = *pipeline
	if *workers > 0 {
		opts.BatchWorkers = *workers
	}

	if *explain != "" {
		return printExplain(ctx, runner, profile, *configPath, *explain)
	}
	if *configPath != "" {
		return fmt.Errorf("-config only applies to -explain (experiments declare their own backend arms)")
	}

	specific := *table != 0 || *figure != 0 || *latency || *ablation != ""

	if *table == 1 || !specific {
		if err := printTable1(ctx, runner, opts); err != nil {
			return err
		}
	}
	if *table == 2 || !specific {
		if err := printTable2(ctx, runner, profile, opts); err != nil {
			return err
		}
	}
	if *figure == 3 || !specific {
		if err := printFigure3(runner, opts); err != nil {
			return err
		}
	}
	if *figure == 4 || !specific {
		printFigure4()
	}
	if *latency || !specific {
		if err := printLatency(ctx, runner, opts); err != nil {
			return err
		}
	}
	if *ablation != "" || !specific {
		names := []string{"pushdown", "cleaning", "joins", "more", "cache", "pipeline", "optimizer", "concurrency", "resultcache", "chaos", "persist", "sched", "routing", "verify", "portability", "schemafree"}
		if *ablation != "" {
			names = []string{*ablation}
		}
		for _, name := range names {
			if err := printAblation(ctx, runner, profile, name, opts); err != nil {
				return err
			}
		}
	}
	return nil
}

func printTable1(ctx context.Context, r *bench.Runner, opts core.Options) error {
	rows, err := r.Table1(ctx, simllm.AllProfiles(), opts)
	if err != nil {
		return err
	}
	fmt.Println("Table 1: average cardinality difference of R_M vs |R_D| (closer to 0 is better)")
	fmt.Println("  model     paper    measured")
	for _, row := range rows {
		fmt.Printf("  %-8s %+7.1f %+10.1f\n", row.Model, bench.Table1Paper[row.Model], row.DiffPercent)
	}
	fmt.Println()
	return nil
}

func printTable2(ctx context.Context, r *bench.Runner, p simllm.Profile, opts core.Options) error {
	rows, err := r.Table2(ctx, p, opts)
	if err != nil {
		return err
	}
	fmt.Printf("Table 2: cell value matches (%%) on %s — All / Selections / Aggregates / Joins\n", p.DisplayName)
	fmt.Println("  method   paper              measured")
	for i, row := range rows {
		pp := bench.Table2Paper[i]
		fmt.Printf("  %-6s  %3.0f/%3.0f/%3.0f/%3.0f   %5.1f/%5.1f/%5.1f/%5.1f\n",
			row.Method, pp.All, pp.Selections, pp.Aggregates, pp.Joins,
			row.All, row.Selections, row.Aggregates, row.Joins)
	}
	fmt.Println()
	return nil
}

// Figure3SQL is the q' of Figure 3: cities over 1M population joined with
// young politicians (mayors in our world).
const Figure3SQL = `SELECT c.name, p.name FROM city c, mayor p WHERE c.mayor = p.name AND c.population > 1000000 AND p.age < 40`

func printFigure3(r *bench.Runner, opts core.Options) error {
	engine, err := r.Engine(r.Model(simllm.ChatGPT), opts)
	if err != nil {
		return err
	}
	plan, err := engine.Explain(Figure3SQL)
	if err != nil {
		return err
	}
	fmt.Println("Figure 3: logical plan for q' (LLM operators injected by lowering)")
	fmt.Println("  q' =", Figure3SQL)
	fmt.Print(plan)
	fmt.Println()
	return nil
}

func printFigure4() {
	fmt.Println("Figure 4: few-shot examples for the GPT-3 prompt")
	fmt.Print(prompt.FewShotPreamble)
	fmt.Println()
}

func printLatency(ctx context.Context, r *bench.Runner, opts core.Options) error {
	stats, err := r.Latency(ctx, simllm.GPT3, opts)
	if err != nil {
		return err
	}
	fmt.Println("Section 5 latency note (paper: ~110 batched prompts, ~20 s per query on GPT-3)")
	fmt.Printf("  model=%s avg_prompts=%.0f max_prompts=%d avg_simulated_latency=%s\n\n",
		stats.Model, stats.AvgPrompts, stats.MaxPrompts, stats.AvgLatency)
	return nil
}

func printAblation(ctx context.Context, r *bench.Runner, p simllm.Profile, name string, opts core.Options) error {
	var rows []bench.AblationRow
	var err error
	var title string
	switch name {
	case "pushdown":
		title = "Ablation A: prompt pushdown (selection queries)"
		rows, err = r.AblationPushdown(ctx, p)
	case "cleaning":
		title = "Ablation B: answer cleaning / type enforcement (all queries)"
		rows, err = r.AblationCleaning(ctx, p)
	case "joins":
		title = "Ablation C: surface-form canonicalization before joins (join queries)"
		rows, err = r.AblationJoinFormats(ctx, p)
	case "more":
		title = "Ablation D: termination threshold for the more-results loop (projection queries)"
		rows, err = r.AblationMoreResults(ctx, p, []int{1, 2, 4, 8, 12})
	case "cache":
		title = "Ablation E: engine-level prompt cache (LRU + singleflight + batch dedup; prompts = model calls issued)"
		rows, err = r.AblationCache(ctx, p)
	case "pipeline":
		return printPipeline(ctx, r, p)
	case "optimizer":
		return printOptimizer(ctx, r, p)
	case "concurrency":
		return printConcurrency(ctx, r, p)
	case "resultcache":
		return printResultCache(ctx, r, p)
	case "chaos":
		return printChaos(ctx, r, p)
	case "persist":
		return printPersist(ctx, r, p)
	case "sched":
		return printSched(ctx, r, p)
	case "routing":
		return printRouting(ctx, r, p)
	case "verify":
		title = "Extension: verification by a second model (Section 6, Knowledge of the Unknown)"
		rows, err = r.AblationVerification(ctx, p, simllm.GPT3)
	case "portability":
		return printPortability(ctx, r, opts)
	case "schemafree":
		return printSchemaFree(ctx, r, p, opts)
	default:
		return fmt.Errorf("unknown ablation %q", name)
	}
	if err != nil {
		return err
	}
	fmt.Println(title)
	fmt.Println("  config                cell%   card-diff%   prompts/query")
	for _, row := range rows {
		fmt.Printf("  %-20s %6.1f %+11.1f %11.1f\n", row.Config, row.CellMatch, row.CardDiff, row.AvgPrompts)
	}
	fmt.Println()
	return nil
}

func printPipeline(ctx context.Context, r *bench.Runner, p simllm.Profile) error {
	rep, err := r.PipelineComparison(ctx, p, simllm.GPT3)
	if err != nil {
		return err
	}
	fmt.Println("Ablation F: pipelined streaming executor vs stop-and-go (identical result sets asserted)")
	for _, bm := range rep.Benchmarks {
		fmt.Printf("  %s (%d queries, results identical: %v, speedup %.2fx)\n",
			bm.Name, bm.Configs[0].Queries, bm.ResultsIdentical, bm.Speedup)
		for _, cfg := range bm.Configs {
			fmt.Printf("    %-12s %6.1f prompts/query %8.1f s/query simulated\n",
				cfg.Config, cfg.PromptsPerQuery, cfg.AvgSimLatencyMS/1000)
		}
	}
	fmt.Println()
	return nil
}

func printOptimizer(ctx context.Context, r *bench.Runner, p simllm.Profile) error {
	rep, err := r.OptimizerComparison(ctx, p)
	if err != nil {
		return err
	}
	fmt.Println("Ablation G: cost-based plan selection vs fixed rewrite heuristics")
	fmt.Println("  config                prompts/query   cell%")
	for _, arm := range rep.Corpus {
		fmt.Printf("  %-20s %13.1f %7.1f\n", arm.Config, arm.PromptsPerQuery, arm.CellMatch)
	}
	fmt.Println("  multi-predicate suite (fixed → cost-based prompts):")
	for _, q := range rep.MultiPredicate {
		fmt.Printf("    %-22s %4d → %4d  (%+.1f%% saved)\n", q.Name, q.FixedPrompts, q.CostBasedPrompts, q.SavingsPercent)
	}
	fmt.Printf("  estimate accuracy over the corpus: mean ratio %.2f, max ratio %.2f (must stay ≤ 2)\n\n",
		rep.Estimates.MeanRatio, rep.Estimates.MaxRatio)
	return nil
}

func printConcurrency(ctx context.Context, r *bench.Runner, p simllm.Profile) error {
	rep, err := r.ConcurrencyComparison(ctx, p, bench.DefaultConcurrency, bench.DefaultServeWorkers)
	if err != nil {
		return err
	}
	fmt.Println("Ablation H: shared-runtime concurrency (one engine-global fair-share scheduler)")
	fmt.Printf("  corpus of %d queries, per-endpoint worker budget W=%d\n", rep.Serial.Queries, rep.Workers)
	fmt.Printf("  %-16s aggregate simulated makespan %8.1f s  (%d prompts)\n",
		rep.Serial.Config, rep.Serial.AggregateMakespanMS/1000, rep.Serial.TotalPrompts)
	fmt.Printf("  %-16s aggregate simulated makespan %8.1f s  (%d prompts)\n",
		rep.Concurrent.Config, rep.Concurrent.AggregateMakespanMS/1000, rep.Concurrent.TotalPrompts)
	fmt.Printf("  speedup %.2fx — results identical: %v, per-query prompts identical: %v\n\n",
		rep.SpeedupX, rep.ResultsIdentical, rep.PromptsIdentical)
	return nil
}

func printSched(ctx context.Context, r *bench.Runner, p simllm.Profile) error {
	rep, err := r.SchedComparison(ctx, p, bench.DefaultConcurrency, bench.DefaultServeWorkers)
	if err != nil {
		return err
	}
	fmt.Println("Ablation K: deficit-weighted fair scheduling (strict-priority classes + token-deficit rotation)")
	fmt.Printf("  simulated contention: %d interactive chains over %d saturating batch tenants, W=%d\n",
		rep.SimInteractive, rep.SimBatch, rep.Workers)
	fmt.Printf("  %-18s interactive p50/p99 %7.1f / %7.1f s   batch p99 %6.1f s   makespan %6.1f s\n",
		rep.RoundRobin.Policy, rep.RoundRobin.InteractiveP50MS/1000, rep.RoundRobin.InteractiveP99MS/1000,
		rep.RoundRobin.BatchP99MS/1000, rep.RoundRobin.MakespanMS/1000)
	fmt.Printf("  %-18s interactive p50/p99 %7.1f / %7.1f s   batch p99 %6.1f s   makespan %6.1f s\n",
		rep.Deficit.Policy, rep.Deficit.InteractiveP50MS/1000, rep.Deficit.InteractiveP99MS/1000,
		rep.Deficit.BatchP99MS/1000, rep.Deficit.MakespanMS/1000)
	fmt.Printf("  interactive p99 improvement %.2fx; worst first-dispatch wait %.0f ms within the %.0f ms one-prompt bound\n",
		rep.P99ImprovementX, rep.Deficit.MaxFirstWaitMS, rep.StarvationBoundMS)
	fmt.Printf("  live corpus %-9s aggregate simulated makespan %8.1f s  (%d prompts)\n",
		rep.Solo.Config, rep.Solo.AggregateMakespanMS/1000, rep.Solo.TotalPrompts)
	fmt.Printf("  live corpus %-9s aggregate simulated makespan %8.1f s  (%d prompts)\n",
		rep.Mixed.Config, rep.Mixed.AggregateMakespanMS/1000, rep.Mixed.TotalPrompts)
	fmt.Printf("  results identical: %v, per-query prompts identical: %v\n\n",
		rep.ResultsIdentical, rep.PromptsIdentical)
	return nil
}

func printRouting(ctx context.Context, r *bench.Runner, p simllm.Profile) error {
	rep, err := r.RoutingComparison(ctx, p)
	if err != nil {
		return err
	}
	fmt.Println("Ablation L: multi-backend routing (cheap backend on keyscan/filter; failover on outage)")
	fmt.Printf("  corpus of %d queries per arm; cheap backend priced at %.2fx the strong backend\n",
		rep.Queries, rep.CheapCostWeight)
	for _, arm := range []bench.RoutingArm{rep.Single, rep.Routed, rep.Failover} {
		fmt.Printf("  %-28s weighted cost %7.1f (%4d prompts", arm.Config, arm.WeightedCost, arm.Prompts)
		for _, name := range []string{"cheap", "strong"} {
			if n, ok := arm.BackendPrompts[name]; ok {
				fmt.Printf(", %s=%d", name, n)
			}
		}
		fmt.Printf("), identical: %v/%v, failed: %d\n", arm.ResultsIdentical, arm.PromptsIdentical, arm.FailedQueries)
	}
	fmt.Printf("  outage at query %d: %d prompts failed over down the declared chain, breaker opened: %v\n\n",
		rep.Failover.OutageAtQuery, rep.Failover.Failovers, rep.Failover.BreakerOpened)
	return nil
}

func printResultCache(ctx context.Context, r *bench.Runner, p simllm.Profile) error {
	rep, err := r.ResultCacheComparison(ctx, p, bench.DefaultResultCacheRepeats)
	if err != nil {
		return err
	}
	fmt.Println("Ablation I: semantic result cache (repeated dashboard traffic; prompt cache off in both arms)")
	fmt.Printf("  corpus of %d queries (%d storable, %d LIMIT-bearing consume-only), %d hot passes\n",
		rep.Queries, rep.CacheableQueries, rep.LimitQueries, rep.Repeats)
	fmt.Printf("  first pass:   %d prompts uncached vs %d cached — %d queries already subsumed cold (results identical: %v)\n",
		rep.UncachedFirstPrompts, rep.CachedFirstPrompts, rep.ColdSubsumed, rep.FirstRunIdentical)
	fmt.Printf("  hot passes:   %d prompts on storable queries, %d on LIMIT queries (relations identical: %v)\n",
		rep.RepeatPromptsCacheable, rep.RepeatPromptsLimit, rep.RepeatIdentical)
	fmt.Printf("  result cache: %d exact hits / %d subsumed / %d misses / %d entries\n",
		rep.ResultCacheHits, rep.ResultCacheSubsumedHits, rep.ResultCacheMisses, rep.ResultCacheEntries)
	fmt.Printf("  per-table bump (ANALYZE): primed table re-executed: %v, unrelated tables retained: %v, relations still identical: %v\n\n",
		rep.InvalidationReexecuted, rep.InvalidationRetained, rep.InvalidationIdentical)
	return nil
}

func printChaos(ctx context.Context, r *bench.Runner, p simllm.Profile) error {
	rep, err := r.ChaosComparison(ctx, p)
	if err != nil {
		return err
	}
	fmt.Println("Ablation J: fault-tolerant LLM transport (seeded chaos differential)")
	fmt.Printf("  corpus of %d queries per arm; identical = relations/prompts/makespan bit-identical to fault-free\n", rep.Queries)
	for _, arm := range []bench.ChaosArm{rep.Transient, rep.Malformed} {
		fmt.Printf("  %-20s %3d faults healed by %3d retries, %d queries lost, identical: %v/%v/%v (hot pass: %v)\n",
			arm.Config, arm.Faults, arm.Retries, arm.FailedQueries,
			arm.ResultsIdentical, arm.PromptsIdentical, arm.MakespanIdentical, arm.HotIdentical)
	}
	fmt.Printf("  %-20s %d of %d queries lost without retries (all failures classified: %v)\n",
		rep.NoRetry.Config, rep.NoRetry.FailedQueries, rep.NoRetry.Queries, rep.NoRetry.FailuresClassified)
	o := rep.Outage
	fmt.Printf("  outage: breaker opened after %d classified failures, shed fast while open: %v, cache kept serving: %v\n",
		o.FailedDuringOutage, o.FastFailed && o.ShedClassified, o.CacheServedDuringOutage)
	fmt.Printf("  recovery: half-open probe healed: %v, post-recovery identical (no stale cache entries): %v\n\n",
		o.ProbeHealed, o.PostRecoveryOK && o.PostRecoveryIdentical)
	return nil
}

func printPersist(ctx context.Context, r *bench.Runner, p simllm.Profile) error {
	dir, err := os.MkdirTemp("", "galois-persist-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rep, err := r.PersistComparison(ctx, p, dir)
	if err != nil {
		return err
	}
	fmt.Println("Ablation K: durable store (four runtime generations over one data directory; prompt cache off)")
	fmt.Printf("  corpus of %d queries (%d storable, %d LIMIT-bearing bypass the store)\n",
		rep.Queries, rep.CacheableQueries, rep.LimitQueries)
	fmt.Printf("  cold pass:    %d prompts; drained %d relations and %d statistics tables to disk\n",
		rep.ColdPrompts, rep.WarmRelations, rep.WarmStatsTables)
	fmt.Printf("  warm restart: %d prompts, relations bit-identical: %v, statistics restored: %v (all observed: %v)\n",
		rep.WarmPrompts, rep.WarmIdentical, rep.StatsRestored, rep.AllStatsSeen)
	fmt.Printf("  rebind probe: re-executed: %v, unrelated retained: %v, identical: %v; next restart warm-loads %d again\n",
		rep.RebindReexecuted, rep.RebindRetained, rep.RebindIdentical, rep.ReopenWarmRelations)
	fmt.Printf("  ANALYZE across drain: warm-loaded %d of %d (primed table's %d re-pay), stale served: %d, re-executed: %v, retained: %v, identical: %v\n\n",
		rep.PostPrimeWarmRelations, rep.CacheableQueries, rep.PrimedCacheable,
		rep.PostPrimeDroppedStale, rep.PrimedReexecuted, rep.PrimedRetained, rep.PrimedIdentical)
	return nil
}

func printExplain(ctx context.Context, r *bench.Runner, p simllm.Profile, configPath, sql string) error {
	opts := bench.CostBasedOptions()
	var engine *core.Engine
	if configPath != "" {
		cfg, err := config.Load(configPath)
		if err != nil {
			return err
		}
		rt, err := r.RuntimeFromConfig(cfg, opts)
		if err != nil {
			return err
		}
		engine = rt.Engine()
	} else {
		var err error
		engine, err = r.Engine(r.Model(p), opts)
		if err != nil {
			return err
		}
	}
	if !strings.HasPrefix(strings.ToUpper(strings.TrimSpace(sql)), "EXPLAIN") {
		sql = "EXPLAIN ANALYZE " + sql
	}
	rel, _, err := engine.Query(ctx, sql)
	if err != nil {
		return err
	}
	fmt.Print(rel.String())
	return nil
}

func printPortability(ctx context.Context, r *bench.Runner, opts core.Options) error {
	cells, err := r.Portability(ctx, simllm.AllProfiles(), opts)
	if err != nil {
		return err
	}
	fmt.Println("Extension: portability — pairwise result overlap across models (Section 6)")
	for _, c := range cells {
		fmt.Printf("  %-8s vs %-8s overlap %5.1f%%\n", c.ModelA, c.ModelB, c.Overlap)
	}
	fmt.Println()
	return nil
}

func printSchemaFree(ctx context.Context, r *bench.Runner, p simllm.Profile, opts core.Options) error {
	fmt.Println("Extension: schema-less equivalence — Q1 (join) vs Q2 (flat) (Section 6)")
	for _, prof := range []simllm.Profile{simllm.GPT3, p} {
		res, err := r.SchemaFreedom(ctx, prof, opts)
		if err != nil {
			return err
		}
		fmt.Printf("  %s: Q1 rows=%d (truth %.1f%%), Q2 rows=%d (truth %.1f%%), mutual overlap=%.1f%% (DBMS would guarantee 100%%)\n",
			prof.ID, res.Q1Rows, res.Q1Truth, res.Q2Rows, res.Q2Truth, res.MutualOverlap)
		if prof.ID == p.ID {
			break
		}
	}
	fmt.Println()
	return nil
}
