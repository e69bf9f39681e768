package bench

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/simllm"
)

// PipelineQuery is the multi-operator benchmark query of the pipelined
// executor: two LLM key scans, an LLM filter and an attribute fetch per
// side, a hash join on top — the paper's Figure 3 q'. With a verifier
// configured it exercises every overlap the scheduler provides
// (scan→fetch→filter chains per side, verify concurrent with fetch, the
// two sides independent).
const PipelineQuery = `SELECT c.name, p.name FROM city c, mayor p WHERE c.mayor = p.name AND c.population > 1000000 AND p.age < 40`

// PipelineConfig aggregates one execution mode over a query set.
type PipelineConfig struct {
	Config            string  `json:"config"` // "stop-and-go" or "pipelined"
	Queries           int     `json:"queries"`
	PromptsPerQuery   float64 `json:"prompts_per_query"`
	AvgSimLatencyMS   float64 `json:"avg_simulated_latency_ms"`
	TotalSimLatencyMS float64 `json:"total_simulated_latency_ms"`
}

// PipelineBenchmark compares the two modes on one query set.
type PipelineBenchmark struct {
	Name string `json:"name"`
	SQL  string `json:"sql,omitempty"` // single-query benchmarks
	// Configs holds stop-and-go first, pipelined second.
	Configs []PipelineConfig `json:"configs"`
	// Speedup is stop-and-go latency over pipelined latency.
	Speedup float64 `json:"speedup"`
	// ResultsIdentical reports whether every query returned the same
	// rendered relation under both modes.
	ResultsIdentical bool `json:"results_identical"`
}

// PipelineReport is the machine-readable pipelining record
// (BENCH_pipeline.json): prompts/query and simulated latency per
// configuration, for the multi-operator benchmark query and the corpus.
type PipelineReport struct {
	Model      string              `json:"model"`
	Verifier   string              `json:"verifier"`
	Workers    int                 `json:"workers"`
	Benchmarks []PipelineBenchmark `json:"benchmarks"`
}

// pipelineBenchmark compares both modes on one query set, each on a
// fresh runtime (cache off — both arms pay for every prompt).
func (r *Runner) pipelineBenchmark(ctx context.Context, p simllm.Profile, verifier simllm.Profile, name string, queries []string) (PipelineBenchmark, error) {
	bm := PipelineBenchmark{Name: name}
	if len(queries) == 1 {
		bm.SQL = queries[0]
	}
	var passes [2][]queryOutcome
	for i, mode := range []string{"stop-and-go", "pipelined"} {
		opts := PaperOptions()
		opts.Pipelined = i == 1
		rt, err := r.verifiedRuntime(p, &verifier, opts)
		if err != nil {
			return PipelineBenchmark{}, err
		}
		if passes[i], err = cleanPass(ctx, rt, queries, mode); err != nil {
			return PipelineBenchmark{}, err
		}
		prompts, latency := totals(passes[i])
		n := len(queries)
		cfg := PipelineConfig{Config: mode, Queries: n, TotalSimLatencyMS: ms(latency)}
		if n > 0 {
			cfg.PromptsPerQuery = float64(prompts) / float64(n)
			cfg.AvgSimLatencyMS = cfg.TotalSimLatencyMS / float64(n)
		}
		bm.Configs = append(bm.Configs, cfg)
	}
	bm.ResultsIdentical = diffPasses(passes[0], passes[1]).rels
	if on := bm.Configs[1].TotalSimLatencyMS; on > 0 {
		bm.Speedup = bm.Configs[0].TotalSimLatencyMS / on
	}
	return bm, nil
}

// PipelineComparison measures the pipelined streaming executor against
// stop-and-go execution: the multi-operator benchmark query
// (scan→fetch→filter per join side, cross-model verify) and the whole
// corpus, asserting identical results and recording prompts/query plus
// simulated latency per configuration.
//
// Every query set here must stay LIMIT-free: under a LIMIT, pipelined
// early termination issues a timing-dependent number of prompts, which
// would make the committed BENCH_pipeline.json (diffed in CI)
// nondeterministic. Without LIMIT both modes issue exactly the same
// prompts and the report is a pure function of the seed.
func (r *Runner) PipelineComparison(ctx context.Context, p simllm.Profile, verifier simllm.Profile) (*PipelineReport, error) {
	rep := &PipelineReport{
		Model:    p.ID,
		Verifier: verifier.ID,
		Workers:  core.DefaultOptions().BatchWorkers,
	}

	multi, err := r.pipelineBenchmark(ctx, p, verifier, "multiop-scan-fetch-filter-verify", []string{PipelineQuery})
	if err != nil {
		return nil, err
	}
	full, err := r.pipelineBenchmark(ctx, p, verifier, "corpus", corpusSQL())
	if err != nil {
		return nil, err
	}
	rep.Benchmarks = append(rep.Benchmarks, multi, full)
	return rep, nil
}

// CheckAcceptance enforces the pipelining acceptance criteria: on the
// multi-operator benchmark query the pipelined policy cuts simulated
// latency at least 2x with identical results and the same number of
// issued prompts, and on the whole corpus it is never slower and never
// changes a result.
func (rep *PipelineReport) CheckAcceptance() error {
	if len(rep.Benchmarks) != 2 {
		return fmt.Errorf("benchmarks = %d, want multiop + corpus", len(rep.Benchmarks))
	}
	var errs []error
	multi, corpus := rep.Benchmarks[0], rep.Benchmarks[1]
	if !multi.ResultsIdentical {
		errs = append(errs, errors.New("multiop: pipelined execution changed the result"))
	}
	if multi.Speedup < 2 {
		errs = append(errs, fmt.Errorf("multiop: speedup = %.2fx, want >= 2x (stop-and-go %.0f ms vs pipelined %.0f ms)",
			multi.Speedup, multi.Configs[0].AvgSimLatencyMS, multi.Configs[1].AvgSimLatencyMS))
	}
	if multi.Configs[0].PromptsPerQuery != multi.Configs[1].PromptsPerQuery {
		errs = append(errs, fmt.Errorf("multiop: prompt counts diverged: %.1f vs %.1f",
			multi.Configs[0].PromptsPerQuery, multi.Configs[1].PromptsPerQuery))
	}
	if !corpus.ResultsIdentical {
		errs = append(errs, errors.New("corpus: pipelined execution changed a result"))
	}
	if corpus.Speedup < 1 {
		errs = append(errs, fmt.Errorf("corpus: pipelining slowed the corpus down: %.2fx", corpus.Speedup))
	}
	return errors.Join(errs...)
}
