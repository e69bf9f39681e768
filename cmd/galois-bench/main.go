// Command galois-bench regenerates every experiment in the paper's
// evaluation and every committed BENCH_*.json artifact (bench.Artifacts):
// the Figure 3 plan and the Figure 4 prompt, then each artifact's report
// JSON and acceptance verdict. The paper artifact holds Table 1
// (result cardinality per model), Table 2 (cell-value matches per method
// and query class), the latency note of Section 5, the ablations and the
// Section 6 explorations, beside the published numbers.
//
// Usage:
//
//	galois-bench                  # everything
//	galois-bench -figure 3        # the lowered plan for q'
//	galois-bench -figure 4        # the few-shot prompt
//	galois-bench -ablation paper  # one artifact: its report JSON and acceptance verdict
//	galois-bench -explain "SELECT ..." [-config galois.yaml]
//
// -model (default chatgpt) picks the model the artifacts and -explain
// run on (the committed files are chatgpt's); -seed (default 1) the
// simulated models' noise seed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/logical"
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
	var names []string
	for _, a := range bench.Artifacts {
		names = append(names, a.Name)
	}
	figure := flag.Int("figure", 0, "regenerate one figure (3 or 4); 0 = all")
	ablation := flag.String("ablation", "", "one committed artifact: "+strings.Join(names, ", "))
	explain := flag.String("explain", "", "print EXPLAIN ANALYZE for the given SQL under the cost-based engine and exit")
	configPath := flag.String("config", "", "multi-backend routing declaration (galois.yaml) for -explain: plans are priced and routed across the declared backends")
	seed := flag.Int64("seed", 1, "noise seed")
	model := flag.String("model", "chatgpt", "model for the artifacts and -explain")
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

	if *explain != "" {
		return printExplain(ctx, runner, *model, *configPath, *explain)
	}
	if *configPath != "" {
		return fmt.Errorf("-config only applies to -explain (experiments declare their own backend arms)")
	}

	specific := *figure != 0 || *ablation != ""
	var artifacts []bench.Artifact
	for _, a := range bench.Artifacts {
		if !specific || a.Name == *ablation {
			artifacts = append(artifacts, a)
		}
	}
	if *ablation != "" && len(artifacts) == 0 {
		return fmt.Errorf("unknown artifact %q (want one of %s)", *ablation, strings.Join(names, ", "))
	}

	if *figure == 3 || !specific {
		if err := printFigure3(runner); err != nil {
			return err
		}
	}
	if *figure == 4 || !specific {
		printFigure4()
	}
	for _, a := range artifacts {
		if err := printArtifact(ctx, runner, profile, a); err != nil {
			return err
		}
	}
	return nil
}

func printFigure3(r *bench.Runner) error {
	rt, err := r.Runtime(r.Model(simllm.ChatGPT), bench.PaperOptions())
	if err != nil {
		return err
	}
	plan, err := rt.NewSession().Plan(bench.PipelineQuery)
	if err != nil {
		return err
	}
	fmt.Println("Figure 3: logical plan for q' (LLM operators injected by lowering)")
	fmt.Println("  q' =", bench.PipelineQuery)
	fmt.Print(logical.Explain(plan))
	fmt.Println()
	return nil
}

func printFigure4() {
	fmt.Println("Figure 4: few-shot examples for the GPT-3 prompt")
	fmt.Print(prompt.FewShotPreamble)
	fmt.Println()
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
