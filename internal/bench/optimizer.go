package bench

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/simllm"
	"repro/internal/spider"
)

// CostBasedOptions is the paper configuration with cost-based plan
// selection switched on: stop-and-go execution and no cache (so reported
// prompts are model calls), but the optimizer enumerates candidate plans
// and picks the cheapest instead of applying the fixed heuristics.
func CostBasedOptions() core.Options {
	opts := PaperOptions()
	opts.Optimizer.CostBased = true
	return opts
}

// OptimizerQuery is one multi-predicate benchmark query where plan choice
// changes the prompt bill: the filtered attributes also appear in the
// projection, so the fixed heuristics pay a per-key boolean prompt AND a
// later fetch, while fetch-then-filter subsumes the filter for free.
type OptimizerQuery struct {
	Name string `json:"name"`
	SQL  string `json:"sql"`
}

// OptimizerQueries is the multi-predicate suite of the optimizer
// comparison (run after the corpus, so the cost-based arm plans with
// refined statistics).
var OptimizerQueries = []OptimizerQuery{
	{Name: "proj-overlap-city", SQL: `SELECT name, population, elevation FROM city WHERE population > 1000000 AND elevation > 500`},
	{Name: "proj-overlap-country", SQL: `SELECT name, gdp FROM country WHERE gdp > 500 AND continent = 'Europe'`},
	{Name: "join-multi-predicate", SQL: `SELECT c.name, c.population, p.age FROM city c, mayor p WHERE c.mayor = p.name AND c.population > 1000000 AND p.age < 40`},
}

// OptimizerArm aggregates one optimizer configuration over the corpus.
type OptimizerArm struct {
	Config          string  `json:"config"` // "fixed-heuristics" or "cost-based"
	Queries         int     `json:"queries"`
	PromptsPerQuery float64 `json:"prompts_per_query"`
	CellMatch       float64 `json:"cell_match_pct"`
}

// OptimizerQueryResult compares both arms on one multi-predicate query.
type OptimizerQueryResult struct {
	Name             string  `json:"name"`
	SQL              string  `json:"sql"`
	FixedPrompts     int     `json:"fixed_prompts"`
	CostBasedPrompts int     `json:"costbased_prompts"`
	SavingsPercent   float64 `json:"savings_pct"`
}

// EstimateAccuracy summarizes EXPLAIN's estimated-vs-actual prompt
// counts over the corpus (ratio = max(est,actual)/min(est,actual), per
// query, after one adaptation pass).
type EstimateAccuracy struct {
	Queries   int     `json:"queries"`
	MeanRatio float64 `json:"mean_ratio"`
	MaxRatio  float64 `json:"max_ratio"`
}

// OptimizerReport is the machine-readable plan-selection record
// (BENCH_optimizer.json): prompts/query under the fixed heuristics vs
// cost-based selection, per-query results on the multi-predicate suite,
// and the estimate accuracy of the cost model.
type OptimizerReport struct {
	Model string `json:"model"`
	// Corpus holds the fixed-heuristic arm first, cost-based second.
	Corpus         []OptimizerArm         `json:"corpus"`
	MultiPredicate []OptimizerQueryResult `json:"multi_predicate"`
	Estimates      EstimateAccuracy       `json:"estimate_accuracy"`
	// CorpusPromptsFixed/CostBased hold per-query prompt counts in
	// corpus order, so regressions ("cost-based must never issue more
	// prompts") are reviewable query by query.
	CorpusPromptsFixed     []int `json:"corpus_prompts_fixed"`
	CorpusPromptsCostBased []int `json:"corpus_prompts_costbased"`
}

// optimizerArm runs the corpus on one session of a fresh runtime,
// returning the aggregate row, the per-query prompt counts and the
// session (its statistics now refined by the corpus).
func (r *Runner) optimizerArm(ctx context.Context, p simllm.Profile, opts core.Options, label string) (OptimizerArm, []int, *core.Session, error) {
	rt, err := r.Runtime(r.Model(p), opts)
	if err != nil {
		return OptimizerArm{}, nil, nil, err
	}
	sess := rt.NewSession()
	cellOpts := r.CellOptions()
	var cells []float64
	var perQuery []int
	total := 0
	for _, q := range spider.Queries() {
		truth, err := r.GroundTruth(ctx, q.SQL)
		if err != nil {
			return OptimizerArm{}, nil, nil, fmt.Errorf("bench: ground truth for query %d: %w", q.ID, err)
		}
		got, rep, err := sess.Query(ctx, q.SQL)
		if err != nil {
			return OptimizerArm{}, nil, nil, fmt.Errorf("bench: %s query %d: %w", label, q.ID, err)
		}
		cells = append(cells, eval.MatchContent(truth, got, cellOpts).Percent())
		perQuery = append(perQuery, rep.Stats.Prompts)
		total += rep.Stats.Prompts
	}
	n := len(spider.Queries())
	arm := OptimizerArm{Config: label, Queries: n, CellMatch: eval.Mean(cells)}
	if n > 0 {
		arm.PromptsPerQuery = float64(total) / float64(n)
	}
	return arm, perQuery, sess, nil
}

// OptimizerComparison measures cost-based plan selection against the
// fixed rewrite heuristics: the whole corpus per arm (one runtime each,
// so the cost-based arm's statistics adapt query over query), then the
// multi-predicate suite on the warmed runtimes, then an estimate-accuracy
// pass re-running the corpus on the cost-based arm and comparing
// EXPLAIN's predicted prompt counts against the actuals. Deterministic
// under the paper configuration (no cache, stop-and-go, fixed order).
func (r *Runner) OptimizerComparison(ctx context.Context, p simllm.Profile) (*OptimizerReport, error) {
	fixedArm, fixedPrompts, fixedSess, err := r.optimizerArm(ctx, p, PaperOptions(), "fixed-heuristics")
	if err != nil {
		return nil, err
	}
	costArm, costPrompts, costSess, err := r.optimizerArm(ctx, p, CostBasedOptions(), "cost-based")
	if err != nil {
		return nil, err
	}

	rep := &OptimizerReport{
		Model:                  p.ID,
		Corpus:                 []OptimizerArm{fixedArm, costArm},
		CorpusPromptsFixed:     fixedPrompts,
		CorpusPromptsCostBased: costPrompts,
	}

	for _, q := range OptimizerQueries {
		_, fixedRep, err := fixedSess.Query(ctx, q.SQL)
		if err != nil {
			return nil, fmt.Errorf("bench: fixed %s: %w", q.Name, err)
		}
		_, costRep, err := costSess.Query(ctx, q.SQL)
		if err != nil {
			return nil, fmt.Errorf("bench: cost-based %s: %w", q.Name, err)
		}
		res := OptimizerQueryResult{
			Name:             q.Name,
			SQL:              q.SQL,
			FixedPrompts:     fixedRep.Stats.Prompts,
			CostBasedPrompts: costRep.Stats.Prompts,
		}
		if res.FixedPrompts > 0 {
			res.SavingsPercent = 100 * float64(res.FixedPrompts-res.CostBasedPrompts) / float64(res.FixedPrompts)
		}
		rep.MultiPredicate = append(rep.MultiPredicate, res)
	}

	// Estimate accuracy: with one adaptation pass behind it, EXPLAIN's
	// predicted prompt count must track what execution actually issues.
	var sum float64
	for _, q := range spider.Queries() {
		_, qRep, err := costSess.Query(ctx, q.SQL)
		if err != nil {
			return nil, fmt.Errorf("bench: estimate pass query %d: %w", q.ID, err)
		}
		est := 0.0
		if qRep.Estimate != nil {
			est = qRep.Estimate.Prompts
		}
		ratio := estRatio(est, float64(qRep.Stats.Prompts))
		sum += ratio
		if ratio > rep.Estimates.MaxRatio {
			rep.Estimates.MaxRatio = ratio
		}
		rep.Estimates.Queries++
	}
	if rep.Estimates.Queries > 0 {
		rep.Estimates.MeanRatio = sum / float64(rep.Estimates.Queries)
	}
	return rep, nil
}

// estRatio is the symmetric estimate error: max(est,actual)/min(est,actual),
// treating prompt-free plans as perfectly estimated. A zero-vs-nonzero
// mismatch is an unboundedly wrong estimate — the sentinel sits far
// above the 2x acceptance gate so it can never slip through.
func estRatio(est, actual float64) float64 {
	if est <= 0 && actual <= 0 {
		return 1
	}
	if est <= 0 || actual <= 0 {
		return 1000
	}
	if est > actual {
		return est / actual
	}
	return actual / est
}

// CheckAcceptance validates the optimizer acceptance criteria against
// this report, returning every violation:
//
//   - on the corpus, the cost-based plan never issues more prompts than
//     the fixed-heuristic plan (strict, per query);
//   - at least one multi-predicate query saves ≥10% prompts, and none
//     regresses beyond noise (a per-key boolean filter and a
//     fetch-then-compare answer the same predicate through different
//     noisy channels, so surviving row sets — and the prompts paid
//     downstream — may drift by a handful of rows);
//   - EXPLAIN's estimated prompt counts stay within 2x of actuals.
func (rep *OptimizerReport) CheckAcceptance() error {
	var errs []error
	if len(rep.CorpusPromptsFixed) != len(rep.CorpusPromptsCostBased) {
		return fmt.Errorf("bench: arm lengths differ: %d vs %d", len(rep.CorpusPromptsFixed), len(rep.CorpusPromptsCostBased))
	}
	for i := range rep.CorpusPromptsFixed {
		if rep.CorpusPromptsCostBased[i] > rep.CorpusPromptsFixed[i] {
			errs = append(errs, fmt.Errorf("corpus query %d: cost-based issued %d prompts, fixed %d — cost-based must never be worse",
				i, rep.CorpusPromptsCostBased[i], rep.CorpusPromptsFixed[i]))
		}
	}
	best := 0.0
	for _, q := range rep.MultiPredicate {
		if q.CostBasedPrompts > q.FixedPrompts+3 {
			errs = append(errs, fmt.Errorf("%s: cost-based issued %d prompts, fixed %d", q.Name, q.CostBasedPrompts, q.FixedPrompts))
		}
		if q.SavingsPercent > best {
			best = q.SavingsPercent
		}
	}
	if best < 10 {
		errs = append(errs, fmt.Errorf("no multi-predicate query saved ≥10%% prompts (best %.1f%%)", best))
	}
	if rep.Estimates.MaxRatio > 2 {
		errs = append(errs, fmt.Errorf("estimated prompts drift beyond 2x of actuals (max ratio %.2f)", rep.Estimates.MaxRatio))
	}
	return errors.Join(errs...)
}
