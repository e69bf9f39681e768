package core

import (
	"sort"

	"repro/internal/llm"
	"repro/internal/rescache"
)

// ResultCacheStats are the result cache's runtime-lifetime counters, as
// Stats embeds them.
type ResultCacheStats = rescache.Stats

// Stats is the runtime's one observability snapshot: every counter and
// gauge of the shared tiers, under the keys galois-serve's /stats renders
// them with. The embedded cache counters flatten into the cache_* and
// result_cache_* keys.
type Stats struct {
	// Workers is the shared scheduler's default per-endpoint worker
	// budget.
	Workers int `json:"workers_per_endpoint"`
	// CacheStats counts the prompt cache (zero when it is off).
	llm.CacheStats
	// ResultCacheStats counts the result cache: whole relations served
	// without planning or prompts (exact hits), queries answered by a
	// residual plan over a cached relation (subsumed hits), resident
	// entries and their approximate bytes (zero when it is off).
	ResultCacheStats
	// TableEpochs are the per-component binding epochs ("llm:<table>"
	// per LLM binding, "db" for the attached store) result-cache keys
	// are stamped with.
	TableEpochs map[string]uint64 `json:"table_epochs"`
	// Resilience is every resilient endpoint's breaker position and
	// fault-recovery counters, sorted by endpoint; /healthz renders it
	// too.
	Resilience []EndpointHealth `json:"resilience,omitempty"`
	// Backends lists every backend the runtime routes over, in
	// declaration order.
	Backends []BackendStatus `json:"backends,omitempty"`
	// Failovers counts the prompts that failed over to a fallback
	// backend.
	Failovers int64 `json:"failovers"`
	// Sched is the shared scheduler's dispatch state: per-class
	// queued/busy prompt counts and the cumulative drain counters of the
	// deficit-weighted bands.
	Sched llm.SchedulerGauges `json:"sched"`
	// Persistence is the durable tier's accounting: what warm start
	// restored, what it rejected, and the segment store's own counters
	// (zero without a store; frozen at their final values after
	// CloseStore).
	Persistence PersistCounters `json:"persistence"`
	// PlanCache counts the cost-based planner's plan-cache outcomes.
	PlanCache PlanCacheStats `json:"plan_cache"`
}

// EndpointHealth is one model endpoint's resilience snapshot: breaker
// position plus lifetime fault-recovery counters.
type EndpointHealth struct {
	Endpoint string                 `json:"endpoint"`
	Breaker  string                 `json:"breaker"`
	Counters llm.ResilienceCounters `json:"counters"`
}

// BackendStatus is one backend's routing metadata plus its lifetime
// traffic and resilience state.
type BackendStatus struct {
	Name        string                 `json:"name"`
	Model       string                 `json:"model"`
	Default     bool                   `json:"default,omitempty"`
	Workers     int                    `json:"workers,omitempty"`
	CostWeight  float64                `json:"cost_weight"`
	SpeedFactor float64                `json:"speed_factor"`
	Fallback    []string               `json:"fallback,omitempty"`
	Prompts     int64                  `json:"prompts"`
	Breaker     string                 `json:"breaker,omitempty"`
	Counters    llm.ResilienceCounters `json:"counters"`
}

// Stats snapshots the runtime's counters and gauges.
func (rt *Runtime) Stats() Stats {
	st := Stats{
		Workers:     rt.opts.BatchWorkers,
		TableEpochs: rt.tableEpochs(),
		Failovers:   rt.registry.Failovers(),
		Sched:       rt.sched.Gauges(),
	}
	if rt.cache != nil {
		st.CacheStats = rt.cache.Stats()
	}
	if rt.resultCache != nil {
		st.ResultCacheStats = rt.resultCache.Stats()
	}
	def := rt.registry.Default()
	for _, b := range rt.registry.Backends() {
		bs := BackendStatus{
			Name:        b.Name(),
			Model:       b.Raw().Name(),
			Default:     b == def,
			Workers:     b.Workers(),
			CostWeight:  b.CostWeight(),
			SpeedFactor: b.SpeedFactor(),
			Fallback:    b.Fallback(),
			Prompts:     b.Prompts(),
		}
		if rc, ok := b.Resilience(); ok {
			bs.Breaker, bs.Counters = rc.State().String(), rc.Counters()
			st.Resilience = append(st.Resilience, EndpointHealth{Endpoint: bs.Name, Breaker: bs.Breaker, Counters: bs.Counters})
		}
		st.Backends = append(st.Backends, bs)
	}
	sort.Slice(st.Resilience, func(i, j int) bool { return st.Resilience[i].Endpoint < st.Resilience[j].Endpoint })
	rt.persistMu.Lock()
	st.Persistence = rt.pctr
	if rt.pstore != nil {
		st.Persistence.Store = rt.pstore.Counters()
	}
	rt.persistMu.Unlock()
	if pc := rt.plans; pc != nil {
		st.PlanCache = PlanCacheStats{
			Hits:          pc.hits.Load(),
			GuardFailures: pc.guardFailures.Load(),
			Misses:        pc.misses.Load(),
			Entries:       pc.entries.Len(),
		}
	}
	return st
}

// Congested reports whether this instant looks like backpressure: the
// shared scheduler holding more queued prompts than its worker budget can
// start (queries are stacking up behind the model), or any endpoint's
// circuit breaker away from closed (the backend is failing or still
// probing its way back). It allocates nothing, so an admission
// controller may sample it on every query completion.
func (rt *Runtime) Congested() bool {
	g := rt.sched.Gauges()
	return g.Interactive.Queued+g.Batch.Queued > g.Workers || !rt.registry.BreakersClosed()
}
