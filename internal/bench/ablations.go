package bench

import (
	"context"
	"fmt"

	"repro/internal/clean"
	"repro/internal/core"
	"repro/internal/simllm"
	"repro/internal/spider"
)

// Ablation is one ablation's arms, run on one model.
type Ablation struct {
	Model string        `json:"model"`
	Arms  []AblationRow `json:"arms"`
}

// AblationRow is one configuration's outcome on the corpus (or a subset).
type AblationRow struct {
	Config     string  `json:"config"`
	CellMatch  float64 `json:"cell_match_pct"` // avg cell match % vs ground truth
	CardDiff   float64 `json:"card_diff_pct"`  // avg cardinality diff %
	AvgPrompts float64 `json:"prompts_per_query"`
	Queries    int     `json:"queries"`
}

// ablationArm is one engine configuration of an ablation; a non-nil
// verifier turns on Section 6 verification by that model. An arm with a
// pass is that configuration already run over the ablation's queries,
// and is summarized instead of run again.
type ablationArm struct {
	label    string
	opts     core.Options
	verifier *simllm.Profile
	pass     []scoredOutcome
}

// ablation runs queries under each configuration on a fresh runtime and
// aggregates each scored pass into a row.
func (r *Runner) ablation(ctx context.Context, p simllm.Profile, queries []spider.Query, arms ...ablationArm) (Ablation, error) {
	out := Ablation{Model: p.ID}
	for _, a := range arms {
		scored := a.pass
		if scored == nil {
			rt, err := r.verifiedRuntime(p, a.verifier, a.opts)
			if err != nil {
				return Ablation{}, err
			}
			if scored, err = r.scoredPass(ctx, rt, queries, a.label); err != nil {
				return Ablation{}, err
			}
		}
		cell, card, prompts := summarize(scored)
		out.Arms = append(out.Arms, AblationRow{Config: a.label, CellMatch: cell, CardDiff: card, AvgPrompts: prompts, Queries: len(queries)})
	}
	return out, nil
}

// ablationPushdown compares staged prompts (key scan + per-key boolean
// filters) against merged prompts (selection pushed into the list prompt),
// the Section 6 optimization: fewer prompt executions, lower per-condition
// accuracy.
func (r *Runner) ablationPushdown(ctx context.Context, p simllm.Profile) (Ablation, error) {
	merged := PaperOptions()
	merged.Optimizer.PromptPushdown = true
	return r.ablation(ctx, p, spider.ByClass(spider.ClassSelection),
		ablationArm{label: "staged-prompts", opts: PaperOptions()},
		ablationArm{label: "prompt-pushdown", opts: merged})
}

// ablationCleaning compares the full cleaner against one with numeric
// normalization and type enforcement disabled (Section 4: "a simple but
// crucial step to limit the incorrect output due to model hallucinations").
// paper is p's corpus pass under PaperOptions: the cleaning-on arm.
func (r *Runner) ablationCleaning(ctx context.Context, p simllm.Profile, paper []scoredOutcome) (Ablation, error) {
	withoutClean := PaperOptions()
	withoutClean.Clean = clean.Options{}
	return r.ablation(ctx, p, spider.Queries(),
		ablationArm{label: "cleaning-on", pass: paper},
		ablationArm{label: "cleaning-off", opts: withoutClean})
}

// ablationJoinFormats shows that canonicalizing entity surface forms
// before joining repairs the IT-vs-ITA failures of Section 5.
func (r *Runner) ablationJoinFormats(ctx context.Context, p simllm.Profile) (Ablation, error) {
	canon := PaperOptions()
	canon.Clean.Canonicalizer = clean.NewCanonicalizer(r.World.Aliases())
	return r.ablation(ctx, p, spider.ByClass(spider.ClassJoin),
		ablationArm{label: "raw-surface-forms", opts: PaperOptions()},
		ablationArm{label: "canonicalized", opts: canon})
}

// moreResultsSweep is the more-results ablation's iteration budgets.
var moreResultsSweep = []int{1, 2, 4, 8, 12}

// ablationMoreResults sweeps the termination threshold of the "return
// more results" loop (Section 4's user-specified threshold alternative)
// over moreResultsSweep.
func (r *Runner) ablationMoreResults(ctx context.Context, p simllm.Profile) (Ablation, error) {
	var arms []ablationArm
	for _, n := range moreResultsSweep {
		opts := PaperOptions()
		opts.MaxScanIterations = n
		arms = append(arms, ablationArm{label: fmt.Sprintf("max-iterations=%d", n), opts: opts})
	}
	return r.ablation(ctx, p, spider.ByClass(spider.ClassOther), arms...)
}

// ablationCache measures the engine-level prompt cache on a repeated-key
// workload: one engine per config runs the full corpus, so with the cache
// on the key scans and attribute fetches that recur across queries are
// served from memory, concurrent identical prompts collapse, and
// duplicate prompts inside one batch cost one completion. AvgPrompts
// counts only model calls actually issued — the cache-on arm must show a
// clear drop.
func (r *Runner) ablationCache(ctx context.Context, p simllm.Profile) (Ablation, error) {
	off := core.DefaultOptions()
	off.CacheEnabled = false
	return r.ablation(ctx, p, spider.Queries(),
		ablationArm{label: "cache-off", opts: off},
		ablationArm{label: "cache-on", opts: core.DefaultOptions()})
}
