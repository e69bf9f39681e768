package bench

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/logical"
	"repro/internal/simllm"
	"repro/internal/spider"
	"repro/internal/sql/parser"
)

// DefaultResultCacheRepeats is the number of hot passes of the committed
// result-cache benchmark: how many times the corpus is replayed against
// the warm cache.
const DefaultResultCacheRepeats = 2

// ResultCacheQuery is one corpus query's record in the cached arm.
type ResultCacheQuery struct {
	ID int `json:"id"`
	// Limit marks LIMIT-bearing statements, which are never stored (a
	// truncated relation must never be served as complete) though they
	// may still be answered by subsumption from a cached superset.
	Limit bool `json:"limit"`
	// FirstPrompts is the cold-pass prompt count (model calls; the
	// prompt cache is off in both arms so every prompt is a call).
	FirstPrompts int `json:"first_prompts"`
	// FirstSubsumed marks cold-pass queries answered by a residual plan
	// over a relation an earlier corpus query populated — zero prompts
	// before the query was ever seen verbatim.
	FirstSubsumed bool `json:"first_subsumed,omitempty"`
	// RepeatPrompts sums prompts across the hot passes: 0 for every
	// query the cache answers (exactly or by subsumption).
	RepeatPrompts int `json:"repeat_prompts"`
}

// ResultCacheReport is the machine-readable result-cache record
// (BENCH_resultcache.json): the corpus replayed against one warm runtime
// with the semantic result cache on, versus a cache-off control. The
// prompt cache is off in both arms so prompt counts isolate what the
// result cache alone saves.
type ResultCacheReport struct {
	Model   string `json:"model"`
	Queries int    `json:"queries"`
	Repeats int    `json:"repeats"`
	// CacheableQueries counts LIMIT-free corpus queries (storable);
	// LimitQueries are never stored but may consume by subsumption.
	CacheableQueries int `json:"cacheable_queries"`
	LimitQueries     int `json:"limit_queries"`
	// First-pass prompt totals: populating the cache costs at most what
	// an uncached run costs — strictly less when subsumption answers a
	// later corpus query from an earlier one's relation.
	UncachedFirstPrompts int `json:"uncached_first_prompts"`
	CachedFirstPrompts   int `json:"cached_first_prompts"`
	// ColdSubsumed counts cold-pass queries answered by subsumption.
	ColdSubsumed int `json:"cold_subsumed"`
	// Hot-pass prompt totals: the headline number — repeated identical
	// traffic must cost zero prompts on every query class.
	RepeatPromptsCacheable int `json:"repeat_prompts_cacheable"`
	RepeatPromptsLimit     int `json:"repeat_prompts_limit"`
	// Result-cache counters after all passes (before the epoch bump).
	ResultCacheHits         int `json:"result_cache_hits"`
	ResultCacheSubsumedHits int `json:"result_cache_subsumed_hits"`
	ResultCacheMisses       int `json:"result_cache_misses"`
	ResultCacheEntries      int `json:"result_cache_entries"`
	// FirstRunIdentical: every cold-pass relation of the cached arm is
	// bit-identical to the uncached control's — including the
	// subsumption-answered ones.
	FirstRunIdentical bool `json:"first_run_identical"`
	// RepeatIdentical: every hot-pass relation is bit-identical to its
	// cold-pass relation.
	RepeatIdentical bool `json:"repeat_identical"`
	// Invalidation probe (PrimeTableKeys on one table): the first
	// LIMIT-free query reading the primed table re-executes with
	// prompts (its entries were invalidated), every LIMIT-free query
	// not reading it is still answered for zero prompts (per-table
	// epochs spare unrelated entries), and every relation stays
	// identical.
	InvalidationReexecuted bool `json:"invalidation_reexecuted"`
	InvalidationRetained   bool `json:"invalidation_retained"`
	InvalidationIdentical  bool `json:"invalidation_identical"`

	PerQuery []ResultCacheQuery `json:"per_query"`
}

// resultCacheOptions pins the benchmark configuration: pipelined,
// prompt cache off (so prompt counts isolate the result cache), fixed
// heuristic plans (no cost-based feedback, so every re-execution uses
// the same plan and the report is deterministic).
func resultCacheOptions(resultCache bool) core.Options {
	opts := PaperOptions()
	opts.Pipelined = true
	opts.ResultCacheEnabled = resultCache
	return opts
}

// corpusQuery is one corpus statement with what the invalidation probes
// need to know about it.
type corpusQuery struct {
	id    int
	limit bool     // LIMIT-bearing: never stored in the result cache
	comps []string // the invalidation components its plan reads
}

// reads reports whether q's plan reads the LLM binding of table.
func (q corpusQuery) reads(table string) bool {
	return slices.Contains(q.comps, logical.ComponentLLM(table))
}

// probing classifies a planned corpus for an invalidation probe of
// table's LLM binding: LIMIT-free statements are counted, readers of
// table must re-execute.
func probing(corpus []corpusQuery, table string) func(i int) (counted, reads bool) {
	return func(i int) (bool, bool) { return !corpus[i].limit, corpus[i].reads(table) }
}

// planCorpus parses every corpus query for LIMIT and plans it on a
// throwaway runtime (nothing executes) to find the components it reads.
// Its order is corpus order: statement i of corpusSQL is its entry i.
func (r *Runner) planCorpus(p simllm.Profile) ([]corpusQuery, error) {
	rt, err := r.Runtime(r.Model(p), resultCacheOptions(false))
	if err != nil {
		return nil, err
	}
	sess := rt.NewSession()
	var corpus []corpusQuery
	for _, q := range spider.Queries() {
		sel, err := parser.ParseSelect(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("bench: parsing corpus query %d: %w", q.ID, err)
		}
		plan, err := sess.Plan(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("bench: planning corpus query %d: %w", q.ID, err)
		}
		corpus = append(corpus, corpusQuery{id: q.ID, limit: sel.Limit >= 0, comps: logical.Components(plan)})
	}
	return corpus, nil
}

// ResultCacheComparison measures the semantic result cache on repeated
// corpus traffic — the dashboard pattern: one cold pass populating the
// cache (with later corpus queries already free to subsume earlier
// results), DefaultResultCacheRepeats hot passes replaying the identical
// SQL, then a PrimeTableKeys bump on one table proving per-table
// invalidation. A cache-off control run pins first-pass results
// bit-identical. With the prompt cache off and fixed plans everything is
// a pure function of the corpus, so the report is deterministic.
func (r *Runner) ResultCacheComparison(ctx context.Context, p simllm.Profile) (*ResultCacheReport, error) {
	corpus, err := r.planCorpus(p)
	if err != nil {
		return nil, err
	}

	stmts := corpusSQL()

	// Control arm: result cache off, one pass.
	controlRT, err := r.Runtime(r.Model(p), resultCacheOptions(false))
	if err != nil {
		return nil, err
	}
	control, err := cleanPass(ctx, controlRT, stmts, "control arm")
	if err != nil {
		return nil, err
	}

	// Cached arm: fresh identically seeded runtime, cold pass + hot
	// passes + invalidation probe.
	rt, err := r.Runtime(r.Model(p), resultCacheOptions(true))
	if err != nil {
		return nil, err
	}
	cold, err := cleanPass(ctx, rt, stmts, "cached arm cold pass")
	if err != nil {
		return nil, err
	}
	rep := &ResultCacheReport{
		Model:             p.ID,
		Queries:           len(corpus),
		Repeats:           DefaultResultCacheRepeats,
		FirstRunIdentical: diffPasses(control, cold).rels,
		RepeatIdentical:   true,
	}
	perQuery := make([]ResultCacheQuery, len(corpus))
	for i, q := range corpus {
		perQuery[i] = ResultCacheQuery{
			ID:            q.id,
			Limit:         q.limit,
			FirstPrompts:  cold[i].prompts,
			FirstSubsumed: cold[i].cached == core.CacheSubsumed,
		}
		if perQuery[i].FirstSubsumed {
			rep.ColdSubsumed++
		}
		if q.limit {
			rep.LimitQueries++
		} else {
			rep.CacheableQueries++
		}
	}
	for pass := 0; pass < DefaultResultCacheRepeats; pass++ {
		hot, err := cleanPass(ctx, rt, stmts, fmt.Sprintf("cached arm hot pass %d", pass+1))
		if err != nil {
			return nil, err
		}
		for i, o := range hot {
			perQuery[i].RepeatPrompts += o.prompts
			if corpus[i].limit {
				rep.RepeatPromptsLimit += o.prompts
			} else {
				rep.RepeatPromptsCacheable += o.prompts
			}
		}
		rep.RepeatIdentical = rep.RepeatIdentical && diffPasses(cold, hot).rels
	}
	rcs := rt.Stats().ResultCacheStats
	rep.ResultCacheHits = rcs.Hits
	rep.ResultCacheSubsumedHits = rcs.SubsumedHits
	rep.ResultCacheMisses = rcs.Misses
	rep.ResultCacheEntries = rcs.Entries

	// Invalidation probe: ANALYZE one table (fixed plans, so the primed
	// value cannot change any plan or result) and replay. Only that
	// table's entries are invalidated: the first LIMIT-free query
	// reading it must re-execute with prompts (later ones may already be
	// subsumed by relations this very pass repopulates), while every
	// LIMIT-free query not reading it is still answered for free.
	primed := LLMTables[0]
	rt.PrimeTableKeys(primed, 1)
	rep.InvalidationReexecuted, rep.InvalidationRetained, rep.InvalidationIdentical, err =
		probeInvalidation(ctx, rt, stmts, cold, probing(corpus, primed), "invalidation probe")
	if err != nil {
		return nil, err
	}

	rep.UncachedFirstPrompts, _ = totals(control)
	rep.CachedFirstPrompts, _ = totals(cold)
	rep.PerQuery = perQuery
	return rep, nil
}

// CheckAcceptance enforces the result-cache acceptance criteria:
// repeated identical corpus traffic costs zero prompts, relations stay
// bit-identical with the cache on vs off and across hot passes, the
// cold pass never costs more than the uncached control (subsumption can
// only save), and a PrimeTableKeys bump invalidates the primed table's
// entries while sparing every other table's — without changing a result.
func (rep *ResultCacheReport) CheckAcceptance() error {
	var errs []error
	if rep.CacheableQueries == 0 {
		errs = append(errs, errors.New("no cacheable queries in the corpus"))
	}
	if rep.CacheableQueries+rep.LimitQueries != rep.Queries {
		errs = append(errs, fmt.Errorf("per-class counts don't add up: %d + %d != %d", rep.CacheableQueries, rep.LimitQueries, rep.Queries))
	}
	if rep.RepeatPromptsCacheable != 0 {
		errs = append(errs, fmt.Errorf("repeated cacheable traffic cost %d prompts, want 0", rep.RepeatPromptsCacheable))
	}
	if !rep.FirstRunIdentical {
		errs = append(errs, errors.New("cache-on first pass diverged from the uncached control"))
	}
	if !rep.RepeatIdentical {
		errs = append(errs, errors.New("a hot-pass relation diverged from its cold-pass relation"))
	}
	if rep.CachedFirstPrompts > rep.UncachedFirstPrompts {
		errs = append(errs, fmt.Errorf("cold pass cost %d prompts with the cache on vs %d off", rep.CachedFirstPrompts, rep.UncachedFirstPrompts))
	}
	if want := rep.CacheableQueries * rep.Repeats; rep.ResultCacheHits < want {
		errs = append(errs, fmt.Errorf("result cache hits = %d, want >= %d (every hot-pass cacheable query)", rep.ResultCacheHits, want))
	}
	if !rep.InvalidationReexecuted {
		errs = append(errs, errors.New("the first primed-table query was still served from the cache across its epoch bump"))
	}
	if !rep.InvalidationRetained {
		errs = append(errs, errors.New("priming one table invalidated entries over unrelated tables"))
	}
	if !rep.InvalidationIdentical {
		errs = append(errs, errors.New("re-execution after the epoch bump changed a relation"))
	}
	return errors.Join(errs...)
}
