package bench

import (
	"context"
	"fmt"

	"repro/internal/clean"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/simllm"
	"repro/internal/spider"
)

// AblationRow is one configuration's outcome on the corpus (or a subset).
type AblationRow struct {
	Config     string
	CellMatch  float64 // avg cell match % vs ground truth
	CardDiff   float64 // avg cardinality diff %
	AvgPrompts float64 // prompts per query
	Queries    int
}

// runConfig executes the given queries under one engine configuration and
// aggregates the metrics.
func (r *Runner) runConfig(ctx context.Context, p simllm.Profile, opts core.Options, queries []spider.Query, label string) (AblationRow, error) {
	rt, err := r.Runtime(r.Model(p), opts)
	if err != nil {
		return AblationRow{}, err
	}
	sess := rt.NewSession()
	cellOpts := r.CellOptions()
	var cells, cards []float64
	prompts := 0
	for _, q := range queries {
		truth, err := r.GroundTruth(ctx, q.SQL)
		if err != nil {
			return AblationRow{}, fmt.Errorf("bench: ground truth for query %d: %w", q.ID, err)
		}
		got, rep, err := sess.Query(ctx, q.SQL)
		if err != nil {
			return AblationRow{}, fmt.Errorf("bench: %s query %d: %w", label, q.ID, err)
		}
		cells = append(cells, eval.MatchContent(truth, got, cellOpts).Percent())
		if truth.Cardinality() > 0 {
			cards = append(cards, eval.CardinalityDiffPercent(truth.Cardinality(), got.Cardinality()))
		}
		prompts += rep.Stats.Prompts
	}
	row := AblationRow{Config: label, CellMatch: eval.Mean(cells), CardDiff: eval.Mean(cards), Queries: len(queries)}
	if len(queries) > 0 {
		row.AvgPrompts = float64(prompts) / float64(len(queries))
	}
	return row, nil
}

// AblationPushdown compares staged prompts (key scan + per-key boolean
// filters) against merged prompts (selection pushed into the list prompt),
// the Section 6 optimization: fewer prompt executions, lower per-condition
// accuracy.
func (r *Runner) AblationPushdown(ctx context.Context, p simllm.Profile) ([]AblationRow, error) {
	queries := spider.ByClass(spider.ClassSelection)

	staged := PaperOptions()
	merged := PaperOptions()
	merged.Optimizer.PromptPushdown = true

	a, err := r.runConfig(ctx, p, staged, queries, "staged-prompts")
	if err != nil {
		return nil, err
	}
	b, err := r.runConfig(ctx, p, merged, queries, "prompt-pushdown")
	if err != nil {
		return nil, err
	}
	return []AblationRow{a, b}, nil
}

// AblationCleaning compares the full cleaner against one with numeric
// normalization and type enforcement disabled (Section 4: "a simple but
// crucial step to limit the incorrect output due to model hallucinations").
func (r *Runner) AblationCleaning(ctx context.Context, p simllm.Profile) ([]AblationRow, error) {
	queries := spider.Queries()

	withClean := PaperOptions()
	withoutClean := PaperOptions()
	withoutClean.Clean = clean.Options{NormalizeNumbers: false, EnforceTypes: false}

	a, err := r.runConfig(ctx, p, withClean, queries, "cleaning-on")
	if err != nil {
		return nil, err
	}
	b, err := r.runConfig(ctx, p, withoutClean, queries, "cleaning-off")
	if err != nil {
		return nil, err
	}
	return []AblationRow{a, b}, nil
}

// AblationJoinFormats shows that canonicalizing entity surface forms
// before joining repairs the IT-vs-ITA failures of Section 5.
func (r *Runner) AblationJoinFormats(ctx context.Context, p simllm.Profile) ([]AblationRow, error) {
	queries := spider.ByClass(spider.ClassJoin)

	plain := PaperOptions()
	canon := PaperOptions()
	canon.Clean.Canonicalizer = clean.NewCanonicalizer(r.World.Aliases())

	a, err := r.runConfig(ctx, p, plain, queries, "raw-surface-forms")
	if err != nil {
		return nil, err
	}
	b, err := r.runConfig(ctx, p, canon, queries, "canonicalized")
	if err != nil {
		return nil, err
	}
	return []AblationRow{a, b}, nil
}

// AblationMoreResults sweeps the termination threshold of the "return more
// results" loop (Section 4's user-specified threshold alternative).
func (r *Runner) AblationMoreResults(ctx context.Context, p simllm.Profile, iterations []int) ([]AblationRow, error) {
	queries := spider.ByClass(spider.ClassOther)
	var out []AblationRow
	for _, n := range iterations {
		opts := PaperOptions()
		opts.MaxScanIterations = n
		row, err := r.runConfig(ctx, p, opts, queries, fmt.Sprintf("max-iterations=%d", n))
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// AblationCache measures the engine-level prompt cache on a repeated-key
// workload: one engine per config runs the full corpus, so with the cache
// on the key scans and attribute fetches that recur across queries are
// served from memory, concurrent identical prompts collapse, and
// duplicate prompts inside one batch cost one completion. AvgPrompts
// counts only model calls actually issued — the cache-on arm must show a
// clear drop.
func (r *Runner) AblationCache(ctx context.Context, p simllm.Profile) ([]AblationRow, error) {
	queries := spider.Queries()

	off := core.DefaultOptions()
	off.CacheEnabled = false
	on := core.DefaultOptions()
	on.CacheEnabled = true

	a, err := r.runConfig(ctx, p, off, queries, "cache-off")
	if err != nil {
		return nil, err
	}
	b, err := r.runConfig(ctx, p, on, queries, "cache-on")
	if err != nil {
		return nil, err
	}
	return []AblationRow{a, b}, nil
}
