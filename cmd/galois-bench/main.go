// Command galois-bench regenerates every experiment in the paper's
// evaluation section: Table 1 (result cardinality per model), Table 2
// (cell-value matches per method and query class on ChatGPT), the latency
// note of Section 5, the Figure 3 plan and Figure 4 prompt, plus the
// ablations, the Section 6 explorations and the committed BENCH_*.json
// artifacts (bench.Artifacts).
//
// Tables, figures and the latency note run under the paper's
// configuration (bench.PaperOptions); every other configuration is an
// -ablation row or a committed artifact with its own arms.
//
// Usage:
//
//	galois-bench                 # everything
//	galois-bench -table 1       # just Table 1
//	galois-bench -table 2
//	galois-bench -figure 3      # the lowered plan for q'
//	galois-bench -figure 4      # the few-shot prompt
//	galois-bench -latency
//	galois-bench -ablation pushdown|cleaning|joins|more|cache|verify|portability|schemafree
//	galois-bench -ablation chaos # any artifact: its report JSON and acceptance verdict
//	galois-bench -explain "SELECT ..." [-config galois.yaml]
//
// -model (default chatgpt) picks the model of Table 2, the ablations and
// -explain; -seed (default 1) the simulated models' noise seed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/prompt"
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
	ablation := flag.String("ablation", "", "one ablation or committed artifact: "+strings.Join(ablationNames(), ", "))
	explain := flag.String("explain", "", "print EXPLAIN ANALYZE for the given SQL under the cost-based engine and exit")
	configPath := flag.String("config", "", "multi-backend routing declaration (galois.yaml) for -explain: plans are priced and routed across the declared backends")
	seed := flag.Int64("seed", 1, "noise seed")
	model := flag.String("model", "chatgpt", "model for Table 2, the ablations and -explain")
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

	if *explain != "" {
		return printExplain(ctx, runner, *model, *configPath, *explain)
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
		names := ablationNames()
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
	rt, err := r.Runtime(r.Model(simllm.ChatGPT), opts)
	if err != nil {
		return err
	}
	plan, err := rt.NewSession().Explain(Figure3SQL)
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

// paperAblations are the ablations and Section 6 explorations printed as
// tables; every other -ablation name is a row of bench.Artifacts.
var paperAblations = []string{"pushdown", "cleaning", "joins", "more", "cache", "verify", "portability", "schemafree"}

// ablationNames lists every -ablation value: the paper ablations, then
// the committed artifacts.
func ablationNames() []string {
	names := slices.Clone(paperAblations)
	for _, a := range bench.Artifacts {
		names = append(names, a.Name)
	}
	return names
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
	case "verify":
		title = "Extension: verification by a second model (Section 6, Knowledge of the Unknown)"
		rows, err = r.AblationVerification(ctx, p, simllm.GPT3)
	case "portability":
		return printPortability(ctx, r, opts)
	case "schemafree":
		return printSchemaFree(ctx, r, p, opts)
	default:
		for _, a := range bench.Artifacts {
			if a.Name == name {
				return printArtifact(ctx, r, p, a)
			}
		}
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

// printArtifact runs one committed artifact's harness on p and prints its
// report exactly as BENCH_<name>.json holds it (the committed file is the
// chatgpt, seed 1 run), then its acceptance verdict.
func printArtifact(ctx context.Context, r *bench.Runner, p simllm.Profile, a bench.Artifact) error {
	dir, err := os.MkdirTemp("", "galois-bench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rep, err := a.Run(ctx, r, p, dir)
	if err != nil {
		return err
	}
	data, err := bench.EncodeArtifact(rep)
	if err != nil {
		return err
	}
	fmt.Printf("Artifact %s (BENCH_%s.json):\n%s", a.Name, a.Name, data)
	if err := rep.CheckAcceptance(); err != nil {
		fmt.Printf("acceptance: FAILED\n%v\n\n", err)
	} else {
		fmt.Print("acceptance: ok\n\n")
	}
	return nil
}

func printExplain(ctx context.Context, r *bench.Runner, model, configPath, sql string) error {
	rt, _, err := r.RuntimeFor(model, configPath, bench.CostBasedOptions())
	if err != nil {
		return err
	}
	if !strings.HasPrefix(strings.ToUpper(strings.TrimSpace(sql)), "EXPLAIN") {
		sql = "EXPLAIN ANALYZE " + sql
	}
	rel, _, err := rt.NewSession().Query(ctx, sql)
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
