// Package repro's root benchmarks regenerate the tables and figures of
// the paper's evaluation (Section 5), the ablations and the Section 6
// explorations, and time the query hot path:
//
//	go test -bench=BenchmarkTable1 -benchmem         # Table 1
//	go test -bench=BenchmarkTable2 -benchmem         # Table 2
//	go test -bench=BenchmarkFigure3 -benchmem        # Figure 3 plan
//	go test -bench=BenchmarkFigure4 -benchmem        # Figure 4 prompt
//	go test -bench=BenchmarkPromptCounts -benchmem   # §5 latency note
//	go test -bench=BenchmarkAblation -benchmem       # ablations A–C, E
//	go test -bench='Query' -benchmem                 # one query, cold and cached
//	go test -bench=AdhocPlan -benchmem               # never-seen templated statements, warm
//
// Each benchmark reports the paper-relevant quantities as custom metrics
// (cardinality diff %, cell match %, prompts/query) so `go test -bench=.`
// output doubles as the reproduction record. The committed BENCH_*.json
// artifacts are not benchmarks: internal/bench's TestArtifacts checks
// them and `make bench-artifacts` regenerates them.
package main

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/prompt"
	"repro/internal/simllm"
	"repro/internal/spider"
)

func mustRunner(b *testing.B) *bench.Runner {
	b.Helper()
	r, err := bench.NewRunner(1)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTable1 regenerates the cardinality experiment. Each model's
// measured diff % is reported as a metric named after the model.
func BenchmarkTable1(b *testing.B) {
	r := mustRunner(b)
	ctx := context.Background()
	var rows []bench.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = r.Table1(ctx, simllm.AllProfiles(), bench.PaperOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rows {
		b.ReportMetric(row.DiffPercent, row.Model+"_card_diff_%")
	}
}

// BenchmarkTable2 regenerates the content experiment on ChatGPT.
func BenchmarkTable2(b *testing.B) {
	r := mustRunner(b)
	ctx := context.Background()
	var rows []bench.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = r.Table2(ctx, simllm.ChatGPT, bench.PaperOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rows {
		tag := map[string]string{"R_M": "galois", "T_M": "qa", "T_M^C": "qa_cot"}[row.Method]
		b.ReportMetric(row.All, tag+"_all_%")
		b.ReportMetric(row.Selections, tag+"_sel_%")
		b.ReportMetric(row.Aggregates, tag+"_agg_%")
		b.ReportMetric(row.Joins, tag+"_join_%")
	}
}

// BenchmarkFigure3 measures planning+lowering for the paper's q' (the
// Figure 3 plan); the golden-content check lives in the optimizer tests.
func BenchmarkFigure3(b *testing.B) {
	r := mustRunner(b)
	rt, err := r.Runtime(r.Model(simllm.ChatGPT), bench.PaperOptions())
	if err != nil {
		b.Fatal(err)
	}
	sess := rt.NewSession()
	const q = `SELECT c.name, p.name FROM city c, mayor p WHERE c.mayor = p.name AND c.population > 1000000 AND p.age < 40`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Explain(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 measures prompt construction with the Figure 4
// preamble.
func BenchmarkFigure4(b *testing.B) {
	builder := prompt.NewBuilder()
	for i := 0; i < b.N; i++ {
		_ = builder.Question("What is the capital of France?")
	}
}

// BenchmarkPromptCounts regenerates the Section 5 latency note (~110
// batched prompts, ~20 s per query on GPT-3), reporting prompts/query and
// simulated seconds/query.
func BenchmarkPromptCounts(b *testing.B) {
	r := mustRunner(b)
	ctx := context.Background()
	var stats *bench.LatencyStats
	for i := 0; i < b.N; i++ {
		var err error
		stats, err = r.Latency(ctx, simllm.GPT3, bench.PaperOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(stats.AvgPrompts, "prompts/query")
	b.ReportMetric(stats.AvgLatency.Seconds(), "sim_s/query")
}

// BenchmarkAblationPushdown compares staged prompts vs merged list prompts
// (Ablation A).
func BenchmarkAblationPushdown(b *testing.B) {
	r := mustRunner(b)
	ctx := context.Background()
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = r.AblationPushdown(ctx, simllm.ChatGPT)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].AvgPrompts, "staged_prompts/query")
	b.ReportMetric(rows[1].AvgPrompts, "pushdown_prompts/query")
	b.ReportMetric(rows[0].CellMatch, "staged_cell_%")
	b.ReportMetric(rows[1].CellMatch, "pushdown_cell_%")
}

// BenchmarkAblationCleaning toggles answer normalization (Ablation B).
func BenchmarkAblationCleaning(b *testing.B) {
	r := mustRunner(b)
	ctx := context.Background()
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = r.AblationCleaning(ctx, simllm.ChatGPT)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].CellMatch, "cleaning_on_cell_%")
	b.ReportMetric(rows[1].CellMatch, "cleaning_off_cell_%")
}

// BenchmarkAblationJoinFormats toggles surface-form canonicalization
// before joins (Ablation C).
func BenchmarkAblationJoinFormats(b *testing.B) {
	r := mustRunner(b)
	ctx := context.Background()
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = r.AblationJoinFormats(ctx, simllm.ChatGPT)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].CellMatch, "raw_join_cell_%")
	b.ReportMetric(rows[1].CellMatch, "canon_join_cell_%")
}

// BenchmarkMoreResultsThreshold sweeps the termination threshold of the
// more-results loop (Ablation D).
func BenchmarkMoreResultsThreshold(b *testing.B) {
	r := mustRunner(b)
	ctx := context.Background()
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = r.AblationMoreResults(ctx, simllm.GPT3, []int{1, 2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rows {
		b.ReportMetric(row.CellMatch, row.Config+"_cell_%")
	}
}

// BenchmarkAblationCache compares model calls per query with the
// engine-level prompt cache off vs on across the corpus (Ablation E): the
// cache-on arm reuses key scans and attribute fetches across queries,
// collapses concurrent identical prompts, and deduplicates batches.
func BenchmarkAblationCache(b *testing.B) {
	r := mustRunner(b)
	ctx := context.Background()
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = r.AblationCache(ctx, simllm.ChatGPT)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].AvgPrompts, "cache_off_prompts/query")
	b.ReportMetric(rows[1].AvgPrompts, "cache_on_prompts/query")
	b.ReportMetric(rows[0].CellMatch, "cache_off_cell_%")
	b.ReportMetric(rows[1].CellMatch, "cache_on_cell_%")
}

// BenchmarkRepeatedQueryCached measures the repeated-traffic hot path the
// cache targets: the same query against one warm runtime. After the first
// iteration every prompt is a cache hit, so this is the zero-model-call
// serving cost.
func BenchmarkRepeatedQueryCached(b *testing.B) {
	r := mustRunner(b)
	rt, err := r.Runtime(r.Model(simllm.ChatGPT), core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	sess := rt.NewSession()
	ctx := context.Background()
	const q = `SELECT name FROM country WHERE independence_year > 1950`
	if _, _, err := sess.Query(ctx, q); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	var prompts int
	for i := 0; i < b.N; i++ {
		_, rep, err := sess.Query(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		prompts += rep.Stats.Prompts
	}
	b.ReportMetric(float64(prompts)/float64(b.N), "prompts/query")
}

// BenchmarkAdhocPlan measures ad-hoc serving on a warm ServeOptions()
// runtime: one full scan per LLM table leaves every fact resident in the
// prompt cache, so each iteration — a templated statement with fresh
// literals, text the runtime has never seen (difftest's Adhoc) — issues
// no prompt, and parsing, planning, execution and the result cache's
// insert and evict are the whole cost.
func BenchmarkAdhocPlan(b *testing.B) {
	r := mustRunner(b)
	rt, err := r.Runtime(r.Model(simllm.ChatGPT), core.ServeOptions())
	if err != nil {
		b.Fatal(err)
	}
	sess := rt.NewSession()
	ctx := context.Background()
	for _, name := range bench.LLMTables {
		var cols []string
		for _, c := range r.World.Table(name).Def.Schema.Columns {
			cols = append(cols, c.Name)
		}
		if _, _, err := sess.Query(ctx, "SELECT "+strings.Join(cols, ", ")+" FROM "+name); err != nil {
			b.Fatal(err)
		}
	}
	gen := difftest.New(1)
	run := func(n int) (prompts int) {
		for i := 0; i < n; i++ {
			_, rep, err := sess.Query(ctx, gen.Adhoc().SQL)
			if err != nil {
				b.Fatal(err)
			}
			prompts += rep.Stats.Prompts
		}
		return prompts
	}
	run(500) // every template once, then some
	before := rt.Stats().PlanCache
	b.ReportAllocs()
	b.ResetTimer()
	prompts := run(b.N)
	b.StopTimer()
	after := rt.Stats().PlanCache
	b.ReportMetric(float64(prompts)/float64(b.N), "prompts/query")
	b.ReportMetric(float64(after.Hits-before.Hits)/float64(b.N), "plan_hits/query")
}

// BenchmarkGaloisQuery measures one representative end-to-end query on the
// simulated ChatGPT (micro-benchmark of the full pipeline).
func BenchmarkGaloisQuery(b *testing.B) {
	r := mustRunner(b)
	rt, err := r.Runtime(r.Model(simllm.ChatGPT), bench.PaperOptions())
	if err != nil {
		b.Fatal(err)
	}
	sess := rt.NewSession()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sess.Query(ctx, `SELECT name FROM country WHERE independence_year > 1950`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroundTruthCorpus measures the DBMS baseline across the whole
// corpus (result b of Section 5).
func BenchmarkGroundTruthCorpus(b *testing.B) {
	r := mustRunner(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range spider.Queries() {
			if _, err := r.GroundTruth(ctx, q.SQL); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkQABaseline measures one QA round trip (text in, parsed relation
// out) on the simulated ChatGPT.
func BenchmarkQABaseline(b *testing.B) {
	r := mustRunner(b)
	model := r.Model(simllm.ChatGPT)
	q := spider.Queries()[10] // query 11, the independence question
	builder := prompt.NewBuilder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Complete(context.Background(), builder.Question(q.NL)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPortability regenerates the Section 6 portability exploration:
// pairwise result overlap across models.
func BenchmarkPortability(b *testing.B) {
	r := mustRunner(b)
	ctx := context.Background()
	var cells []bench.PortabilityCell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = r.Portability(ctx, simllm.AllProfiles(), bench.PaperOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		b.ReportMetric(c.Overlap, c.ModelA+"_"+c.ModelB+"_overlap_%")
	}
}

// BenchmarkSchemaFreedom regenerates the Section 6 schema-less
// equivalence exploration (Q1 join vs Q2 flat formulation).
func BenchmarkSchemaFreedom(b *testing.B) {
	r := mustRunner(b)
	ctx := context.Background()
	var res *bench.SchemaFreedomResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = r.SchemaFreedom(ctx, simllm.GPT3, bench.PaperOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MutualOverlap, "mutual_overlap_%")
	b.ReportMetric(res.Q1Truth, "q1_truth_%")
	b.ReportMetric(res.Q2Truth, "q2_truth_%")
}

// BenchmarkVerification regenerates the Section 6 "Knowledge of the
// Unknown" exploration: a second model double-checks fetched values.
func BenchmarkVerification(b *testing.B) {
	r := mustRunner(b)
	ctx := context.Background()
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = r.AblationVerification(ctx, simllm.ChatGPT, simllm.GPT3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].CellMatch, "unverified_cell_%")
	b.ReportMetric(rows[1].CellMatch, "verified_cell_%")
	b.ReportMetric(rows[1].AvgPrompts-rows[0].AvgPrompts, "extra_prompts/query")
}
