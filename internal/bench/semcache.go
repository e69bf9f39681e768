package bench

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/simllm"
)

// semCacheParent is one producer query of the semantic-cache corpus with
// the near-miss children its cached relation must answer.
type semCacheParent struct {
	table    string // the LLM table the pair family reads
	sql      string
	children []string
}

// semCacheCorpus is the fixed near-miss corpus: every child is a query
// the matching parent's plan subsumes — narrower projections, extra
// key-column predicates (the only predicate class a residual plan may
// evaluate locally), DISTINCT, ORDER BY, LIMIT/OFFSET and aggregates —
// but never a statement the cache has seen verbatim, so the exact tier
// cannot answer it. The families span filtered and unfiltered parents
// and a join producer.
var semCacheCorpus = []semCacheParent{
	{table: "country", sql: `SELECT name, continent, population FROM country`, children: []string{
		`SELECT name FROM country`,
		`SELECT name, continent FROM country LIMIT 5`,
		`SELECT name FROM country WHERE name > 'M'`,
		`SELECT DISTINCT continent FROM country`,
		`SELECT COUNT(*) FROM country`,
		`SELECT name FROM country ORDER BY population DESC LIMIT 3`,
	}},
	{table: "city", sql: `SELECT name, population FROM city WHERE population > 1000000`, children: []string{
		`SELECT name FROM city WHERE population > 1000000`,
		`SELECT name, population FROM city WHERE population > 1000000 ORDER BY population DESC LIMIT 3`,
		`SELECT COUNT(*) FROM city WHERE population > 1000000`,
	}},
	{table: "mountain", sql: `SELECT name, height FROM mountain`, children: []string{
		`SELECT name FROM mountain ORDER BY height DESC LIMIT 3`,
		`SELECT MAX(height) FROM mountain`,
		`SELECT name, height FROM mountain WHERE name != 'Olympus Mons' OFFSET 2`,
	}},
	{table: "singer", sql: `SELECT name, genre FROM singer WHERE genre = 'Pop'`, children: []string{
		`SELECT name FROM singer WHERE genre = 'Pop'`,
		`SELECT name FROM singer WHERE genre = 'Pop' ORDER BY name LIMIT 2`,
	}},
	{table: "stadium", sql: `SELECT s.name, s.capacity, c.name FROM stadium s, city c WHERE s.city = c.name`, children: []string{
		`SELECT s.name FROM stadium s, city c WHERE s.city = c.name`,
		`SELECT s.name, s.capacity FROM stadium s, city c WHERE s.city = c.name ORDER BY s.capacity DESC LIMIT 3`,
	}},
}

// SemCacheChild is one near-miss child's record.
type SemCacheChild struct {
	Parent string `json:"parent"`
	Child  string `json:"child"`
	// Prompts the child cost on first sight against the warm cache —
	// zero when subsumption answered it.
	Prompts  int  `json:"prompts"`
	Subsumed bool `json:"subsumed"`
}

// SemCacheReport is the machine-readable semantic-cache record
// (BENCH_semcache.json): cold producers, an exact-hot replay, a
// near-miss pass of never-seen children, and a per-table invalidation
// probe — with a cache-off control pinning every child bit-identical.
type SemCacheReport struct {
	Model    string `json:"model"`
	Parents  int    `json:"parents"`
	Children int    `json:"children"`
	// ColdPrompts is what populating the cache with every parent cost.
	ColdPrompts int `json:"cold_prompts"`
	// ExactHotPrompts replays every parent verbatim: must be 0.
	ExactHotPrompts int `json:"exact_hot_prompts"`
	// NearMissPrompts sums the children's first-sight prompt counts:
	// must be 0 — every child is answered by a residual plan.
	NearMissPrompts  int `json:"near_miss_prompts"`
	NearMissSubsumed int `json:"near_miss_subsumed"`
	// ChildrenIdentical: every cache-answered child relation is
	// bit-identical to direct execution on a cache-off control engine.
	ChildrenIdentical bool `json:"children_identical"`
	// Result-cache counters after the near-miss pass.
	ResultCacheHits         int `json:"result_cache_hits"`
	ResultCacheSubsumedHits int `json:"result_cache_subsumed_hits"`
	ResultCacheEntries      int `json:"result_cache_entries"`
	ResultCacheBytes        int `json:"result_cache_bytes"`
	// Invalidation probe (PrimeTableKeys on the first family's table):
	// that family's first child re-executes with prompts, every other
	// family's children still cost zero, and every relation is unchanged.
	InvalidationReexecuted bool `json:"invalidation_reexecuted"`
	InvalidationRetained   bool `json:"invalidation_retained"`
	InvalidationIdentical  bool `json:"invalidation_identical"`

	PerChild []SemCacheChild `json:"per_child"`
}

// SemanticCacheComparison measures the subsumption tier on the fixed
// near-miss corpus: parents execute cold (populating the cache), replay
// exactly hot, and then children the cache has never seen verbatim must
// each be answered by a residual plan over a cached relation for zero
// prompts — bit-identical to direct execution on a cache-off control.
// Finally a PrimeTableKeys bump on one table proves invalidation stays
// per-table. Prompt counts are a pure function of the corpus (prompt
// cache off, fixed plans), so the report is deterministic and CI diffs
// the committed artifact.
func (r *Runner) SemanticCacheComparison(ctx context.Context, p simllm.Profile) (*SemCacheReport, error) {
	rt, err := r.Runtime(r.Model(p), resultCacheOptions(true))
	if err != nil {
		return nil, err
	}
	control, err := r.Runtime(r.Model(p), resultCacheOptions(false))
	if err != nil {
		return nil, err
	}

	rep := &SemCacheReport{Model: p.ID, Parents: len(semCacheCorpus), ChildrenIdentical: true}

	// Cold pass: parents populate the cache.
	for _, fam := range semCacheCorpus {
		out := runQuery(ctx, rt, fam.sql, "", 0)
		if out.err != nil {
			return nil, fmt.Errorf("bench: semcache cold parent: %w", out.err)
		}
		rep.ColdPrompts += out.prompts
	}
	// Exact-hot pass: the same statements verbatim.
	for _, fam := range semCacheCorpus {
		out := runQuery(ctx, rt, fam.sql, "", 0)
		if out.err != nil {
			return nil, fmt.Errorf("bench: semcache hot parent: %w", out.err)
		}
		rep.ExactHotPrompts += out.prompts
	}
	// Near-miss pass: children on first sight, against the control.
	childRels := map[string]string{}
	for _, fam := range semCacheCorpus {
		for _, child := range fam.children {
			rep.Children++
			out := runQuery(ctx, rt, child, "", 0)
			if out.err != nil {
				return nil, fmt.Errorf("bench: semcache child: %w", out.err)
			}
			direct := runQuery(ctx, control, child, "", 0)
			if direct.err != nil {
				return nil, fmt.Errorf("bench: semcache control child: %w", direct.err)
			}
			if out.rel != direct.rel {
				rep.ChildrenIdentical = false
			}
			childRels[child] = out.rel
			rec := SemCacheChild{
				Parent:   fam.sql,
				Child:    child,
				Prompts:  out.prompts,
				Subsumed: out.cached == core.CacheSubsumed,
			}
			rep.NearMissPrompts += rec.Prompts
			if rec.Subsumed {
				rep.NearMissSubsumed++
			}
			rep.PerChild = append(rep.PerChild, rec)
		}
	}
	rcs := rt.ResultCacheStats()
	rep.ResultCacheHits = rcs.Hits
	rep.ResultCacheSubsumedHits = rcs.SubsumedHits
	rep.ResultCacheEntries = rcs.Entries
	rep.ResultCacheBytes = rcs.Bytes

	// Invalidation probe: bump the first family's table and replay all
	// children. The first bumped-family child must re-execute (its
	// producer is gone; LIMIT-free children may repopulate producers that
	// answer later siblings again), every other family stays free, and
	// no relation changes.
	bumped := semCacheCorpus[0].table
	rt.PrimeTableKeys(bumped, 1)
	rep.InvalidationRetained = true
	rep.InvalidationIdentical = true
	probedFirst := false
	for _, fam := range semCacheCorpus {
		for _, child := range fam.children {
			out := runQuery(ctx, rt, child, "", 0)
			if out.err != nil {
				return nil, fmt.Errorf("bench: semcache invalidation probe: %w", out.err)
			}
			if fam.table == bumped && !probedFirst {
				probedFirst = true
				rep.InvalidationReexecuted = out.prompts > 0
			}
			if fam.table != bumped && out.prompts != 0 {
				rep.InvalidationRetained = false
			}
			if out.rel != childRels[child] {
				rep.InvalidationIdentical = false
			}
		}
	}
	return rep, nil
}

// CheckAcceptance enforces the semantic-cache acceptance criteria: the
// exact tier answers verbatim replays and the subsumption tier answers
// every near-miss child — all for zero prompts, all bit-identical to
// direct execution — and invalidation stays per-table.
func (rep *SemCacheReport) CheckAcceptance() error {
	var errs []error
	if rep.Children == 0 || rep.ColdPrompts == 0 {
		errs = append(errs, fmt.Errorf("degenerate corpus: %d children, %d cold prompts", rep.Children, rep.ColdPrompts))
	}
	if rep.ExactHotPrompts != 0 {
		errs = append(errs, fmt.Errorf("verbatim replays cost %d prompts, want 0", rep.ExactHotPrompts))
	}
	if rep.NearMissPrompts != 0 {
		errs = append(errs, fmt.Errorf("near-miss children cost %d prompts, want 0", rep.NearMissPrompts))
	}
	if rep.NearMissSubsumed != rep.Children {
		errs = append(errs, fmt.Errorf("%d/%d children answered by subsumption, want all", rep.NearMissSubsumed, rep.Children))
	}
	if !rep.ChildrenIdentical {
		errs = append(errs, errors.New("a cache-answered child diverged from direct execution"))
	}
	if rep.ResultCacheSubsumedHits < rep.Children {
		errs = append(errs, fmt.Errorf("subsumed hits = %d, want >= %d", rep.ResultCacheSubsumedHits, rep.Children))
	}
	if !rep.InvalidationReexecuted {
		errs = append(errs, errors.New("the bumped table's first child was still served across its epoch bump"))
	}
	if !rep.InvalidationRetained {
		errs = append(errs, errors.New("bumping one table invalidated entries over unrelated tables"))
	}
	if !rep.InvalidationIdentical {
		errs = append(errs, errors.New("re-execution after the epoch bump changed a relation"))
	}
	return errors.Join(errs...)
}
