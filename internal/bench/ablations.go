package bench

import (
	"context"
	"fmt"

	"repro/internal/clean"
	"repro/internal/core"
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

// ablationArm is one engine configuration of an ablation; a non-nil
// verifier turns on Section 6 verification by that model.
type ablationArm struct {
	label    string
	opts     core.Options
	verifier *simllm.Profile
}

// ablation runs queries under each configuration on a fresh runtime and
// aggregates each scored pass into a row.
func (r *Runner) ablation(ctx context.Context, p simllm.Profile, queries []spider.Query, arms ...ablationArm) ([]AblationRow, error) {
	var rows []AblationRow
	for _, a := range arms {
		rt, err := r.verifiedRuntime(p, a.verifier, a.opts)
		if err != nil {
			return nil, err
		}
		scored, err := r.scoredPass(ctx, rt, queries, a.label)
		if err != nil {
			return nil, err
		}
		cell, card, prompts := summarize(scored)
		rows = append(rows, AblationRow{Config: a.label, CellMatch: cell, CardDiff: card, AvgPrompts: prompts, Queries: len(queries)})
	}
	return rows, nil
}

// AblationPushdown compares staged prompts (key scan + per-key boolean
// filters) against merged prompts (selection pushed into the list prompt),
// the Section 6 optimization: fewer prompt executions, lower per-condition
// accuracy.
func (r *Runner) AblationPushdown(ctx context.Context, p simllm.Profile) ([]AblationRow, error) {
	merged := PaperOptions()
	merged.Optimizer.PromptPushdown = true
	return r.ablation(ctx, p, spider.ByClass(spider.ClassSelection),
		ablationArm{"staged-prompts", PaperOptions(), nil},
		ablationArm{"prompt-pushdown", merged, nil})
}

// AblationCleaning compares the full cleaner against one with numeric
// normalization and type enforcement disabled (Section 4: "a simple but
// crucial step to limit the incorrect output due to model hallucinations").
func (r *Runner) AblationCleaning(ctx context.Context, p simllm.Profile) ([]AblationRow, error) {
	withoutClean := PaperOptions()
	withoutClean.Clean = clean.Options{NormalizeNumbers: false, EnforceTypes: false}
	return r.ablation(ctx, p, spider.Queries(),
		ablationArm{"cleaning-on", PaperOptions(), nil},
		ablationArm{"cleaning-off", withoutClean, nil})
}

// AblationJoinFormats shows that canonicalizing entity surface forms
// before joining repairs the IT-vs-ITA failures of Section 5.
func (r *Runner) AblationJoinFormats(ctx context.Context, p simllm.Profile) ([]AblationRow, error) {
	canon := PaperOptions()
	canon.Clean.Canonicalizer = clean.NewCanonicalizer(r.World.Aliases())
	return r.ablation(ctx, p, spider.ByClass(spider.ClassJoin),
		ablationArm{"raw-surface-forms", PaperOptions(), nil},
		ablationArm{"canonicalized", canon, nil})
}

// AblationMoreResults sweeps the termination threshold of the "return more
// results" loop (Section 4's user-specified threshold alternative).
func (r *Runner) AblationMoreResults(ctx context.Context, p simllm.Profile, iterations []int) ([]AblationRow, error) {
	var arms []ablationArm
	for _, n := range iterations {
		opts := PaperOptions()
		opts.MaxScanIterations = n
		arms = append(arms, ablationArm{fmt.Sprintf("max-iterations=%d", n), opts, nil})
	}
	return r.ablation(ctx, p, spider.ByClass(spider.ClassOther), arms...)
}

// AblationCache measures the engine-level prompt cache on a repeated-key
// workload: one engine per config runs the full corpus, so with the cache
// on the key scans and attribute fetches that recur across queries are
// served from memory, concurrent identical prompts collapse, and
// duplicate prompts inside one batch cost one completion. AvgPrompts
// counts only model calls actually issued — the cache-on arm must show a
// clear drop.
func (r *Runner) AblationCache(ctx context.Context, p simllm.Profile) ([]AblationRow, error) {
	off := core.DefaultOptions()
	off.CacheEnabled = false
	on := core.DefaultOptions()
	on.CacheEnabled = true
	return r.ablation(ctx, p, spider.Queries(),
		ablationArm{"cache-off", off, nil},
		ablationArm{"cache-on", on, nil})
}
