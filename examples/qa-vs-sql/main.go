// qa-vs-sql: run one benchmark query through all three evaluated methods —
// Galois (R_M), plain question answering (T_M), and question answering
// with a fixed chain-of-thought prompt (T_M^C) — and score each against
// the ground truth with the paper's metrics (cardinality ratio and 5%-
// tolerance cell matching).
//
//	go run ./examples/qa-vs-sql            # default query 11
//	go run ./examples/qa-vs-sql -query 37  # the Figure 1 join
//	go run ./examples/qa-vs-sql -model gpt3 -query 26
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/clean"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/prompt"
	"repro/internal/qa"
	"repro/internal/simllm"
	"repro/internal/spider"
)

func main() {
	queryID := flag.Int("query", 11, "benchmark query ID (1-46)")
	modelName := flag.String("model", "chatgpt", "simulated model")
	flag.Parse()

	var query *spider.Query
	for i, q := range spider.Queries() {
		if q.ID == *queryID {
			query = &spider.Queries()[i]
			break
		}
	}
	if query == nil {
		log.Fatalf("no benchmark query with ID %d", *queryID)
	}
	profile, ok := simllm.ProfileByName(*modelName)
	if !ok {
		log.Fatalf("unknown model %q", *modelName)
	}

	runner, err := bench.NewRunner(1)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	model := runner.Model(profile)
	rt, err := runner.Runtime(model, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	sess := rt.NewSession()
	cellOpts := runner.CellOptions()
	cleaner := clean.New(clean.DefaultOptions())
	builder := prompt.NewBuilder()

	fmt.Printf("query %d (%s): %s\nNL: %s\n\n", query.ID, query.Class, query.SQL, query.NL)

	truth, err := runner.GroundTruth(ctx, query.SQL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ground truth R_D (%d rows):\n%s\n", truth.Cardinality(), truth.String())

	report := func(name string, rel interface {
		Cardinality() int
	}, pct float64, card float64) {
		fmt.Printf("%-6s rows=%-3d cell-match=%5.1f%% cardinality-diff=%+.1f%%\n", name, rel.Cardinality(), pct, card)
	}

	// (a) Galois.
	rm, rep, err := sess.Query(ctx, query.SQL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("R_M — Galois over %s (%d prompts, simulated %s):\n%s\n",
		profile.DisplayName, rep.Stats.Prompts, rep.Stats.SimulatedLatency, rm.String())

	// (c) plain QA and (d) QA with chain of thought.
	tm, err := qa.Ask(ctx, model, builder, query.NL, truth.Schema, cleaner, false)
	if err != nil {
		log.Fatal(err)
	}
	tmc, err := qa.Ask(ctx, model, builder, query.NL, truth.Schema, cleaner, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("T_M — raw QA answer:\n%s\n\n", tm.Text)
	fmt.Printf("T_M^C — chain-of-thought answer:\n%s\n\n", tmc.Text)

	fmt.Println("scores:")
	report("R_M", rm, eval.MatchContent(truth, rm, cellOpts).Percent(),
		eval.CardinalityDiffPercent(truth.Cardinality(), rm.Cardinality()))
	report("T_M", tm.Relation, eval.MatchContent(truth, tm.Relation, cellOpts).Percent(),
		eval.CardinalityDiffPercent(truth.Cardinality(), tm.Relation.Cardinality()))
	report("T_M^C", tmc.Relation, eval.MatchContent(truth, tmc.Relation, cellOpts).Percent(),
		eval.CardinalityDiffPercent(truth.Cardinality(), tmc.Relation.Cardinality()))
}
