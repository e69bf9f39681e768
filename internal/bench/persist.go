package bench

import (
	"context"
	"errors"
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/simllm"
)

// PersistQuery is one corpus query's record across the restart.
type PersistQuery struct {
	ID    int  `json:"id"`
	Limit bool `json:"limit,omitempty"`
	// ColdPrompts is the first generation's prompt count; WarmPrompts the
	// second generation's — 0 for every cacheable query when warm start
	// works.
	ColdPrompts int `json:"cold_prompts"`
	WarmPrompts int `json:"warm_prompts"`
}

// PersistReport is the machine-readable warm-restart record
// (BENCH_persist.json): the corpus run cold on one runtime generation,
// drained to disk, and replayed on three successor generations over the
// same data directory — a plain restart, a restart after a live rebind,
// and a restart after an ANALYZE — asserting what each must and must
// not re-pay. Prompt cache off, fixed plans: every number is a pure
// function of the corpus, so CI diffs the artifact byte-for-byte.
type PersistReport struct {
	Model   string `json:"model"`
	Queries int    `json:"queries"`
	// CacheableQueries counts LIMIT-free corpus queries (storable);
	// LimitQueries bypass the result cache and re-pay on every
	// generation.
	CacheableQueries int `json:"cacheable_queries"`
	LimitQueries     int `json:"limit_queries"`
	// ColdPrompts is generation 1's total; WarmPrompts generation 2's
	// over cacheable queries — the headline 0.
	ColdPrompts int `json:"cold_prompts"`
	WarmPrompts int `json:"warm_prompts"`
	// WarmRelations / WarmStatsTables are what generation 2's open
	// restored; StatsRestored pins its statistics bit-identical to
	// generation 1's final snapshot, and AllStatsSeen that every
	// restored table is marked observed (the planner will not fall back
	// to default estimates for any of them).
	WarmRelations   int  `json:"warm_relations"`
	WarmStatsTables int  `json:"warm_stats_tables"`
	StatsRestored   bool `json:"stats_restored"`
	AllStatsSeen    bool `json:"all_stats_seen"`
	// WarmIdentical: every warm-pass relation is bit-identical to its
	// cold-pass relation.
	WarmIdentical bool `json:"warm_identical"`
	// Rebind probe (generation 2, live): BindLLMTable on one table after
	// the warm pass. The first warm-loaded query reading it re-executes
	// with prompts, queries not reading it stay free, results identical.
	RebindReexecuted bool `json:"rebind_reexecuted"`
	RebindRetained   bool `json:"rebind_retained"`
	RebindIdentical  bool `json:"rebind_identical"`
	// ReopenWarmRelations is generation 3's restore count: the rebind
	// probe's re-executed entries persisted under their bumped stamps
	// and every entry warm-loads again.
	ReopenWarmRelations int `json:"reopen_warm_relations"`
	// ANALYZE probe: generation 3 primes one table and drains without
	// replaying. Generation 4 must warm-load everything except that
	// table's entries (PostPrimeWarmRelations), re-execute its first
	// query with prompts, keep every other query free, and serve nothing
	// stale (PostPrimeDroppedStale counts warm-load stamp rejections —
	// 0 here, because the graceful drain also persisted the tombstones).
	PostPrimeWarmRelations int  `json:"post_prime_warm_relations"`
	PostPrimeDroppedStale  int  `json:"post_prime_dropped_stale"`
	PrimedReexecuted       bool `json:"primed_reexecuted"`
	PrimedRetained         bool `json:"primed_retained"`
	PrimedIdentical        bool `json:"primed_identical"`
	// PrimedCacheable counts cacheable queries reading the primed table
	// (the entries generation 4 must re-pay).
	PrimedCacheable int `json:"primed_cacheable"`

	PerQuery []PersistQuery `json:"per_query"`
}

// PersistComparison measures the durable store end to end: four runtime
// generations over one data directory, each built on a freshly seeded
// identical model, so any relation divergence is a persistence bug, not
// noise. dir must be empty (or nonexistent) at entry.
func (r *Runner) PersistComparison(ctx context.Context, p simllm.Profile, dir string) (*PersistReport, error) {
	corpus, err := r.planCorpus(p)
	if err != nil {
		return nil, err
	}
	// The generation-2 probe rebinds one table, the generation-3 probe
	// primes another.
	rebound, primed := LLMTables[0], LLMTables[1]

	generation := func() (*core.Runtime, error) {
		rt, err := r.Runtime(r.Model(p), resultCacheOptions(true))
		if err != nil {
			return nil, err
		}
		if err := rt.OpenStore(core.StoreConfig{Dir: dir}); err != nil {
			return nil, err
		}
		return rt, nil
	}

	rep := &PersistReport{
		Model:           p.ID,
		Queries:         len(corpus),
		WarmIdentical:   true,
		RebindRetained:  true,
		RebindIdentical: true,
		PrimedRetained:  true,
		PrimedIdentical: true,
	}
	perQuery := make([]PersistQuery, len(corpus))
	for i, q := range corpus {
		perQuery[i] = PersistQuery{ID: q.id, Limit: q.limit}
		if q.limit {
			rep.LimitQueries++
		} else {
			rep.CacheableQueries++
			if q.reads(primed) {
				rep.PrimedCacheable++
			}
		}
	}

	// Generation 1: cold — populate the cache, learn the statistics,
	// drain everything to disk.
	rt1, err := generation()
	if err != nil {
		return nil, err
	}
	cold := make([]queryOutcome, len(corpus))
	for i, q := range corpus {
		cold[i] = runQuery(ctx, rt1, q.sql, "", 0)
		if cold[i].err != nil {
			return nil, fmt.Errorf("bench: cold generation: %w", cold[i].err)
		}
		perQuery[i].ColdPrompts = cold[i].prompts
		rep.ColdPrompts += cold[i].prompts
	}
	coldStats := rt1.Statistics().Snapshot()
	if err := rt1.CloseStore(); err != nil {
		return nil, fmt.Errorf("bench: draining cold generation: %w", err)
	}

	// Generation 2: warm restart — the whole corpus for zero prompts,
	// over the persisted statistics; then the live-rebind probe.
	rt2, err := generation()
	if err != nil {
		return nil, err
	}
	p2 := rt2.Persistence()
	rep.WarmRelations = p2.WarmRelations
	rep.WarmStatsTables = p2.WarmStatsTables
	warmStats := rt2.Statistics().Snapshot()
	rep.StatsRestored = reflect.DeepEqual(warmStats.Tables, coldStats.Tables)
	rep.AllStatsSeen = len(warmStats.Tables) > 0
	for _, ts := range warmStats.Tables {
		if !ts.Seen {
			rep.AllStatsSeen = false
		}
	}
	for i, q := range corpus {
		warm := runQuery(ctx, rt2, q.sql, "", 0)
		if warm.err != nil {
			return nil, fmt.Errorf("bench: warm generation: %w", warm.err)
		}
		perQuery[i].WarmPrompts = warm.prompts
		if !q.limit {
			rep.WarmPrompts += warm.prompts
		}
		if warm.rel != cold[i].rel {
			rep.WarmIdentical = false
		}
	}

	// Rebind probe: the warm-loaded entries obey live invalidation. Only
	// the first rebound query must pay prompts — later ones may already
	// be subsumed by relations this very pass repopulates.
	if err := rt2.BindLLMTable(r.World.Table(rebound).Def); err != nil {
		return nil, err
	}
	probedFirst := false
	for i, q := range corpus {
		probe := runQuery(ctx, rt2, q.sql, "", 0)
		if probe.err != nil {
			return nil, fmt.Errorf("bench: rebind probe: %w", probe.err)
		}
		if !q.limit {
			if q.reads(rebound) && !probedFirst {
				probedFirst = true
				rep.RebindReexecuted = probe.prompts > 0
			}
			if !q.reads(rebound) && probe.prompts != 0 {
				rep.RebindRetained = false
			}
		}
		if probe.rel != cold[i].rel {
			rep.RebindIdentical = false
		}
	}
	if err := rt2.CloseStore(); err != nil {
		return nil, fmt.Errorf("bench: draining warm generation: %w", err)
	}

	// Generation 3: everything re-persisted under post-rebind stamps
	// warm-loads again; ANALYZE one table and drain without replaying.
	rt3, err := generation()
	if err != nil {
		return nil, err
	}
	rep.ReopenWarmRelations = rt3.Persistence().WarmRelations
	rt3.PrimeTableKeys(primed, 1)
	if err := rt3.CloseStore(); err != nil {
		return nil, fmt.Errorf("bench: draining primed generation: %w", err)
	}

	// Generation 4: the primed table's entries are gone for good; every
	// other entry still serves for free.
	rt4, err := generation()
	if err != nil {
		return nil, err
	}
	p4 := rt4.Persistence()
	rep.PostPrimeWarmRelations = p4.WarmRelations
	rep.PostPrimeDroppedStale = p4.DroppedStale
	probedFirst = false
	for i, q := range corpus {
		probe := runQuery(ctx, rt4, q.sql, "", 0)
		if probe.err != nil {
			return nil, fmt.Errorf("bench: post-prime generation: %w", probe.err)
		}
		if !q.limit {
			if q.reads(primed) && !probedFirst {
				probedFirst = true
				rep.PrimedReexecuted = probe.prompts > 0
			}
			if !q.reads(primed) && probe.prompts != 0 {
				rep.PrimedRetained = false
			}
		}
		if probe.rel != cold[i].rel {
			rep.PrimedIdentical = false
		}
	}
	if err := rt4.CloseStore(); err != nil {
		return nil, fmt.Errorf("bench: draining post-prime generation: %w", err)
	}

	rep.PerQuery = perQuery
	return rep, nil
}

// CheckAcceptance enforces the warm-restart acceptance criteria: the
// restarted generation serves the hot corpus for zero prompts with
// bit-identical relations over fully restored statistics, a live rebind
// and a persisted ANALYZE each invalidate exactly their own table's
// entries across restarts, and nothing stale is ever served.
func (rep *PersistReport) CheckAcceptance() error {
	var errs []error
	if rep.CacheableQueries == 0 {
		errs = append(errs, errors.New("no cacheable queries in the corpus"))
	}
	if rep.CacheableQueries+rep.LimitQueries != rep.Queries {
		errs = append(errs, fmt.Errorf("per-class counts don't add up: %d + %d != %d", rep.CacheableQueries, rep.LimitQueries, rep.Queries))
	}
	if rep.PrimedCacheable == 0 {
		errs = append(errs, errors.New("ANALYZE probe vacuous: no cacheable query reads the primed table"))
	}
	if rep.ColdPrompts == 0 {
		errs = append(errs, errors.New("cold generation issued no prompts; fixture vacuous"))
	}
	if rep.WarmPrompts != 0 {
		errs = append(errs, fmt.Errorf("warm restart re-paid %d prompts on cacheable queries, want 0", rep.WarmPrompts))
	}
	if rep.WarmRelations != rep.CacheableQueries {
		errs = append(errs, fmt.Errorf("warm start restored %d relations, want %d (every cacheable query)", rep.WarmRelations, rep.CacheableQueries))
	}
	if !rep.WarmIdentical {
		errs = append(errs, errors.New("a warm relation diverged from its cold relation"))
	}
	if !rep.StatsRestored || rep.WarmStatsTables == 0 {
		errs = append(errs, fmt.Errorf("statistics not restored bit-identical (%d tables, restored=%v)", rep.WarmStatsTables, rep.StatsRestored))
	}
	if !rep.AllStatsSeen {
		errs = append(errs, errors.New("a restored table is not marked observed; the planner would fall back to defaults"))
	}
	if !rep.RebindReexecuted {
		errs = append(errs, errors.New("a warm-loaded entry was still served across a live rebind"))
	}
	if !rep.RebindRetained {
		errs = append(errs, errors.New("a live rebind invalidated warm-loaded entries over unrelated tables"))
	}
	if !rep.RebindIdentical {
		errs = append(errs, errors.New("re-execution after the live rebind changed a relation"))
	}
	if rep.ReopenWarmRelations != rep.CacheableQueries {
		errs = append(errs, fmt.Errorf("post-rebind reopen restored %d relations, want %d", rep.ReopenWarmRelations, rep.CacheableQueries))
	}
	if want := rep.CacheableQueries - rep.PrimedCacheable; rep.PostPrimeWarmRelations != want {
		errs = append(errs, fmt.Errorf("post-ANALYZE reopen restored %d relations, want %d (all but the primed table's)", rep.PostPrimeWarmRelations, want))
	}
	if !rep.PrimedReexecuted {
		errs = append(errs, errors.New("a primed table's entry survived the restart it was invalidated before"))
	}
	if !rep.PrimedRetained {
		errs = append(errs, errors.New("a persisted ANALYZE invalidated entries over unrelated tables"))
	}
	if !rep.PrimedIdentical {
		errs = append(errs, errors.New("re-execution after the persisted ANALYZE changed a relation"))
	}
	return errors.Join(errs...)
}
