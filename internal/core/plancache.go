package core

import (
	"sync/atomic"

	"repro/internal/lru"
	"repro/internal/optimizer"
)

// planCacheSize bounds the plan cache: one entry per statement template
// and planning configuration.
const planCacheSize = 128

// planCache holds the runtime's cost-based plan choices by statement
// template (optimizer.Template: the built plan with its comparison
// literals taken out) and planning configuration. An entry is reused
// only when every input its enumeration read answers the same for the
// new statement's literals (optimizer.Guarded), so a statement gets the
// plan a fresh enumeration would pick, without the enumeration.
// Session.choose reads and fills it.
type planCache struct {
	entries *lru.Map[string, *optimizer.Guarded]
	// hits replanned from an entry; guardFailures found an entry whose
	// guards failed and planned afresh; misses found none, or had a
	// template that cannot be cached.
	hits, guardFailures, misses atomic.Int64
}

func newPlanCache() *planCache {
	return &planCache{entries: lru.NewMap[string, *optimizer.Guarded](planCacheSize)}
}

// PlanCacheStats are the plan cache's runtime-lifetime counters.
type PlanCacheStats struct {
	Hits          int64 `json:"hits"`
	GuardFailures int64 `json:"guard_failures"`
	Misses        int64 `json:"misses"`
	Entries       int   `json:"entries"`
}
