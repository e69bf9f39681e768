// Package repro's root benchmarks time the query hot path end to end:
//
//	go test -bench='Query' -benchmem     # one query, cold and cached
//	go test -bench=AdhocPlan -benchmem   # never-seen templated statements, warm
//	go test -bench='GroundTruth|QA'      # the DBMS baseline and one QA round trip
//
// The paper's numbers (Tables 1 and 2, the latency note, the ablations
// and the Section 6 explorations) are not benchmarks: they are
// BENCH_paper.json, one of the committed BENCH_*.json artifacts that
// internal/bench's TestArtifacts checks and `make bench-artifacts`
// regenerates.
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

// BenchmarkRepeatedQueryCached measures the repeated-traffic hot path the
// cache targets: the same query against one warm runtime. After the first
// iteration every prompt is a cache hit, so this is the zero-model-call
// serving cost.
func BenchmarkRepeatedQueryCached(b *testing.B) {
	query := repeatedQuery(b)
	b.ResetTimer()
	var prompts int
	for i := 0; i < b.N; i++ {
		prompts += query()
	}
	b.ReportMetric(float64(prompts)/float64(b.N), "prompts/query")
}

// repeatedQuery is BenchmarkRepeatedQueryCached's body: query runs the
// statement once more on the warm runtime and returns its prompt count.
func repeatedQuery(tb testing.TB) (query func() (prompts int)) {
	r, err := bench.NewRunner(1)
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := r.Runtime(r.Model(simllm.ChatGPT), core.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	sess := rt.NewSession()
	ctx := context.Background()
	const q = `SELECT name FROM country WHERE independence_year > 1950`
	query = func() int {
		_, rep, err := sess.Query(ctx, q)
		if err != nil {
			tb.Fatal(err)
		}
		return rep.Stats.Prompts
	}
	query() // warm the cache
	return query
}

// BenchmarkAdhocPlan measures ad-hoc serving on a warm ServeOptions()
// runtime: one full scan per LLM table leaves every fact resident in the
// prompt cache, so each iteration — a templated statement with fresh
// literals, text the runtime has never seen (difftest's Adhoc) — issues
// no prompt, and parsing, planning, execution and the result cache's
// insert and evict are the whole cost.
func BenchmarkAdhocPlan(b *testing.B) {
	rt, next, run := adhocPlan(b)
	sqls := next(b.N)
	before := rt.Stats().PlanCache
	b.ReportAllocs()
	b.ResetTimer()
	prompts := run(sqls)
	b.StopTimer()
	after := rt.Stats().PlanCache
	b.ReportMetric(float64(prompts)/float64(b.N), "prompts/query")
	b.ReportMetric(float64(after.Hits-before.Hits)/float64(b.N), "plan_hits/query")
}

// adhocPlan is BenchmarkAdhocPlan's body: the warm runtime; next, which
// generates the next n ad-hoc statements, outside the measured body; and
// run, which executes statements and returns their prompt count. Every
// template has run once when it returns.
func adhocPlan(tb testing.TB) (*core.Runtime, func(n int) []string, func(sqls []string) (prompts int)) {
	r, err := bench.NewRunner(1)
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := r.Runtime(r.Model(simllm.ChatGPT), core.ServeOptions())
	if err != nil {
		tb.Fatal(err)
	}
	sess := rt.NewSession()
	ctx := context.Background()
	for _, name := range bench.LLMTables {
		var cols []string
		for _, c := range r.World.Table(name).Def.Schema.Columns {
			cols = append(cols, c.Name)
		}
		if _, _, err := sess.Query(ctx, "SELECT "+strings.Join(cols, ", ")+" FROM "+name); err != nil {
			tb.Fatal(err)
		}
	}
	gen := difftest.New(1)
	next := func(n int) []string {
		sqls := make([]string, n)
		for i := range sqls {
			sqls[i] = gen.Adhoc().SQL
		}
		return sqls
	}
	run := func(sqls []string) (prompts int) {
		for _, sql := range sqls {
			_, rep, err := sess.Query(ctx, sql)
			if err != nil {
				tb.Fatal(err)
			}
			prompts += rep.Stats.Prompts
		}
		return prompts
	}
	run(next(500)) // every template once, then some
	return rt, next, run
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
