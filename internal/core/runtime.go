package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/llm"
	"repro/internal/logical"
	"repro/internal/memdb"
	"repro/internal/optimizer"
	"repro/internal/prompt"
	"repro/internal/rescache"
	"repro/internal/schema"
	"repro/internal/store"
)

// Runtime is the process-wide, concurrency-safe tier of the engine: the
// stateful pieces every query shares, mirroring the classic DBMS split
// between a database and the sessions over it. It owns
//
//   - the LLM client registry (the primary model the table bindings
//     resolve against),
//   - the table bindings themselves (LLM-side schema plus the optional
//     relational store), guarded for concurrent Bind/Resolve,
//   - the prompt cache, shared so repeated traffic across queries and
//     across sessions reuses completions,
//   - the optimizer statistics, refined by every executed query and
//     consulted by every planner, and
//   - the engine-global llm.Scheduler: one bounded worker pool per model
//     endpoint, alive for the runtime's lifetime, fair-sharing its
//     budget across all in-flight queries.
//
// Queries never run on the Runtime directly: NewSession opens a cheap
// per-query/per-connection Session on top. A Runtime is safe for any
// number of concurrent sessions.
type Runtime struct {
	// registry is the named-backend set this runtime routes prompts
	// over. A single-client runtime (NewRuntime) holds an implicit
	// one-backend registry named after the client; a multi-backend
	// runtime (NewRuntimeWithBackends) declares backends, routes and
	// failover chains explicitly.
	registry *llm.Registry
	// routed reports whether backends were declared explicitly — only
	// then does the optimizer price plans per backend and EXPLAIN
	// annotate routes; an implicit registry reproduces single-client
	// behavior bit for bit.
	routed  bool
	opts    Options
	optsFP  string // optionsFingerprint(&opts): opening a session formats nothing
	builder *prompt.Builder
	// cache is the runtime-level prompt cache (nil when disabled): the
	// shared stateful tier between the executor and the model, persistent
	// across queries and sessions.
	cache *llm.Cache
	// resultCache is the relation-level result cache (nil when
	// disabled): whole query results keyed by plan fingerprint + the
	// per-table epoch stamp of the bindings the plan reads, shared
	// across sessions so repeated identical traffic skips planning and
	// execution entirely, and subsumed traffic skips the prompts.
	resultCache *rescache.Cache
	// memo maps SQL text to its parsed, built and fingerprinted form, so
	// exact result-cache hits skip the front end (nil when the result
	// cache is off).
	memo *stmtMemo
	// epochMu guards compEpochs: one binding epoch per invalidation
	// component ("llm:<table>" per LLM binding, "db" for the attached
	// store). Any operation that can change what a query observes —
	// BindLLMTable, AttachDB, PrimeTableKeys — bumps the component it
	// touches, invalidating exactly the results that read it; entries
	// over other tables survive. Statistics refined passively by
	// executed queries do NOT bump anything: they steer plan choice,
	// and the differential harness pins all candidate plans
	// result-identical.
	//
	// Lock order: the result cache validates inserts by calling
	// stampFor while holding its own mutex, so epochMu is always
	// acquired after (never around) the cache lock; bumpComponent
	// writes the epoch first and only then — with no lock held —
	// invalidates, which is what makes a stale straddling insert
	// impossible: either it re-reads the bumped stamp and drops
	// itself, or it lands early enough for the invalidation scan to
	// remove it.
	epochMu    sync.Mutex
	compEpochs map[string]uint64
	// stats feed the cost-based optimizer: table cardinalities, page
	// sizes and predicate selectivities, starting from defaults and
	// refined from the per-operator counters of every executed query.
	// Concurrency-safe; sessions observe into it concurrently.
	stats *optimizer.Statistics
	// sched is the engine-global prompt scheduler, created on first use
	// (see scheduler()).
	schedOnce sync.Once
	sched     *llm.Scheduler

	// mu guards the table bindings and the attached store: BindLLMTable /
	// AttachDB write, concurrent session planners read through
	// ResolveTable.
	mu      sync.RWMutex
	llmDefs map[string]*schema.TableDef
	db      *memdb.DB

	// persistMu guards the durable tier (nil pstore = persistence off).
	// It is a leaf below the result-cache mutex and epochMu: sink hooks
	// and flushes acquire it only with no other runtime lock held, and
	// nothing under it calls back into the cache or the epoch table.
	persistMu sync.Mutex
	pstore    *store.Store
	pctr      PersistCounters
	snapStop  chan struct{}
	snapDone  chan struct{}
}

// NewRuntime builds the shared runtime tier over the given LLM client.
// opts become the default options of every session opened on it;
// runtime-tier settings (CacheEnabled/CacheSize, BatchWorkers as the
// shared scheduler's per-endpoint budget) are fixed here. The client
// becomes the sole backend of an implicit registry under its own name;
// runtimes routing across several models use NewRuntimeWithBackends.
// A nil client yields an empty registry: DB-only plans run, LLM-bound
// operators fail at Open exactly as before.
func NewRuntime(client llm.Client, opts Options) *Runtime {
	var defs []BackendDef
	if client != nil {
		defs = []BackendDef{{Name: client.Name(), Client: client}}
	}
	rt, err := newRuntimeBackends(defs, "", nil, opts)
	if err != nil {
		// Unreachable: at most one backend, no routes, no fallbacks.
		panic(fmt.Sprintf("core: implicit registry: %v", err))
	}
	rt.routed = false
	return rt
}

// BackendDef declares one named model backend for a multi-backend
// runtime: the transport, the scheduler worker budget, the optimizer's
// pricing coefficients and the failover chain.
type BackendDef struct {
	// Name is the backend's identity: routes, table pins, fallback
	// chains, scheduler pools and error attribution all use it.
	Name string
	// Client is the raw transport. The runtime wraps it in its own
	// ResilientClient (independent breaker, retry budget) unless
	// resilience is off or the caller pre-wrapped it.
	Client llm.Client
	// Workers overrides the shared scheduler's per-endpoint worker
	// budget for this backend (0 = the runtime default).
	Workers int
	// CostWeight is the relative price per prompt the optimizer charges
	// plans routing to this backend (0 = 1.0).
	CostWeight float64
	// SpeedFactor scales the backend's estimated per-prompt latency in
	// plan pricing (0 = 1.0; below 1 is faster).
	SpeedFactor float64
	// Fallback names the backends calls fail over to, in order, when
	// this backend sheds or exhausts a call.
	Fallback []string
}

// NewRuntimeWithBackends builds a runtime routing prompts across named
// backends. defaultName selects the backend unrouted roles use (""
// means the first declared); routes binds prompt roles ("keyscan",
// "fetch", "filter", "verify") to backends runtime-wide, with
// per-table pins (schema.TableDef.Backend) and per-session overrides
// (Options.Routes) layering on top.
func NewRuntimeWithBackends(defs []BackendDef, defaultName string, routes map[string]string, opts Options) (*Runtime, error) {
	if len(defs) == 0 {
		return nil, fmt.Errorf("core: no backends declared")
	}
	return newRuntimeBackends(defs, defaultName, routes, opts)
}

// newRuntimeBackends is the shared runtime constructor. An empty defs
// slice (the implicit nil-client path) builds an empty registry and
// skips validation; explicit construction requires at least one
// backend.
func newRuntimeBackends(defs []BackendDef, defaultName string, routes map[string]string, opts Options) (*Runtime, error) {
	opts.normalize()
	wrap := func(inner llm.Client, endpoint string) llm.Client {
		if !opts.Resilient {
			return inner
		}
		// Never re-wrap: the chaos bench hands in a pre-built
		// ResilientClient to control its test seams (fake clock, instant
		// sleep), and double-wrapping would hide its breaker from the
		// health surfaces.
		if _, ok := inner.(*llm.ResilientClient); ok {
			return inner
		}
		cfg := opts.resilientConfig()
		cfg.Endpoint = endpoint
		return llm.NewResilient(inner, cfg)
	}
	registry := llm.NewRegistry(wrap)
	for _, def := range defs {
		if _, err := registry.Add(llm.BackendSpec{
			Name:        def.Name,
			Client:      def.Client,
			Workers:     def.Workers,
			CostWeight:  def.CostWeight,
			SpeedFactor: def.SpeedFactor,
			Fallback:    def.Fallback,
		}); err != nil {
			return nil, err
		}
	}
	if defaultName != "" {
		if err := registry.SetDefault(defaultName); err != nil {
			return nil, err
		}
	}
	for roleName, backend := range routes {
		role, err := llm.ParseRole(roleName)
		if err != nil {
			return nil, err
		}
		if err := registry.SetRoute(role, backend); err != nil {
			return nil, err
		}
	}
	if len(defs) > 0 {
		if err := registry.Validate(); err != nil {
			return nil, err
		}
	}
	rt := &Runtime{
		registry:   registry,
		routed:     true,
		llmDefs:    map[string]*schema.TableDef{},
		compEpochs: map[string]uint64{},
		opts:       opts,
		optsFP:     optionsFingerprint(&opts),
		builder:    prompt.NewBuilder(),
		stats:      optimizer.NewStatistics(),
	}
	if opts.CacheEnabled {
		rt.cache = llm.NewCache(opts.CacheSize)
	}
	if opts.ResultCacheEnabled {
		rt.resultCache = rescache.New(rescache.Config{
			Capacity:     opts.ResultCacheSize,
			MaxBytes:     opts.ResultCacheBytes,
			CurrentStamp: rt.stampFor,
		})
		size := opts.ResultCacheSize
		if size <= 0 {
			size = rescache.DefaultSize
		}
		rt.memo = newStmtMemo(size)
	}
	return rt, nil
}

// TableEpochs snapshots the per-component binding epochs ("llm:<table>"
// per LLM binding, "db" for the attached store) — the stamps result-cache
// keys carry (stampFor), as /stats exposes them.
func (rt *Runtime) TableEpochs() map[string]uint64 {
	rt.epochMu.Lock()
	defer rt.epochMu.Unlock()
	out := make(map[string]uint64, len(rt.compEpochs))
	for k, v := range rt.compEpochs {
		out[k] = v
	}
	return out
}

// bumpComponent advances one component's binding epoch and eagerly
// evicts the results that read it. The epoch write strictly precedes the
// invalidation (see the epochMu lock-order note).
func (rt *Runtime) bumpComponent(comp string) {
	rt.epochMu.Lock()
	rt.compEpochs[comp]++
	rt.epochMu.Unlock()
	if rt.resultCache != nil {
		rt.resultCache.InvalidateComponent(comp)
	}
	// Make the bump durable last, after the in-memory invalidation has
	// already tombstoned the stale relations through the sink. Even if
	// the process dies between the tombstones and this write, reopening
	// replays the un-bumped epochs against un-dropped entries — merely
	// the pre-bump state, still self-consistent. The dangerous ordering
	// would be the reverse: durable entries outliving a durable bump is
	// exactly what the stamp check on warm load rejects.
	rt.persistEpochs()
}

// stampFor serializes the current epochs of exactly the given components
// into the stamp result-cache keys carry. comps must be sorted, as
// logical.Components returns them; every exact hit pays for this call.
func (rt *Runtime) stampFor(comps []string) string {
	b := make([]byte, 0, 64)
	rt.epochMu.Lock()
	for _, c := range comps {
		b = append(b, c...)
		b = append(b, '=')
		b = strconv.AppendUint(b, rt.compEpochs[c], 10)
		b = append(b, ';')
	}
	rt.epochMu.Unlock()
	return string(b)
}

// ResultCacheStats reports the runtime-lifetime result-cache counters
// (zero value when the result cache is disabled).
func (rt *Runtime) ResultCacheStats() rescache.Stats {
	if rt.resultCache == nil {
		return rescache.Stats{}
	}
	return rt.resultCache.Stats()
}

// NewSession opens a lightweight per-query session carrying the
// runtime's default options. Sessions are cheap (no pools, no maps) and
// any number may run queries concurrently against one runtime.
func (rt *Runtime) NewSession() *Session {
	return &Session{rt: rt, opts: rt.opts, optsFP: rt.optsFP}
}

// Options returns the runtime's session defaults.
func (rt *Runtime) Options() Options { return rt.opts }

// scheduler returns the engine-global prompt scheduler, creating it on
// first use. It lives for the runtime's lifetime: every pipelined query
// of every session shares its per-endpoint worker budget.
func (rt *Runtime) scheduler() *llm.Scheduler {
	rt.schedOnce.Do(func() {
		rt.sched = llm.NewScheduler(rt.cache, rt.opts.BatchWorkers)
		// Declared per-backend worker budgets override the shared
		// default for their endpoint's pool.
		for _, b := range rt.registry.Backends() {
			if b.Workers() > 0 {
				rt.sched.SetEndpointWorkers(b.Name(), b.Workers())
			}
		}
	})
	return rt.sched
}

// SchedulerGauges snapshots the shared scheduler's dispatch state:
// per-class queued/busy counts and cumulative deficit-scheduler drain
// counters. The observability feed for galois-serve /stats and the
// queue-depth signal its adaptive admission controller samples.
func (rt *Runtime) SchedulerGauges() llm.SchedulerGauges {
	return rt.scheduler().Gauges()
}

// Statistics exposes the planner's statistics store (never nil).
func (rt *Runtime) Statistics() *optimizer.Statistics { return rt.stats }

// Client exposes the runtime's default backend (its calls traverse that
// backend's resilient transport when resilience is on). Nil when the
// runtime was built without a client.
func (rt *Runtime) Client() llm.Client {
	if b := rt.registry.Default(); b != nil {
		return b
	}
	return nil
}

// Registry exposes the runtime's named-backend set.
func (rt *Runtime) Registry() *llm.Registry { return rt.registry }

// Routed reports whether backends were declared explicitly — the
// configuration under which the optimizer prices plans per backend and
// EXPLAIN annotates routes.
func (rt *Runtime) Routed() bool { return rt.routed }

// Failovers reports how many prompts failed over to a fallback backend,
// runtime-lifetime.
func (rt *Runtime) Failovers() int64 { return rt.registry.Failovers() }

// tableBackend resolves a table name to its pinned backend ("" when the
// table is unbound or unpinned).
func (rt *Runtime) tableBackend(name string) string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if def := rt.llmDefs[strings.ToLower(name)]; def != nil {
		return def.Backend
	}
	return ""
}

// EndpointHealth is one model endpoint's resilience snapshot: breaker
// position plus lifetime fault-recovery counters. Serve's /healthz and
// /stats render these.
type EndpointHealth struct {
	Endpoint string                 `json:"endpoint"`
	Breaker  string                 `json:"breaker"`
	Counters llm.ResilienceCounters `json:"counters"`
}

// ResilienceHealth snapshots every resilient endpoint the runtime
// manages — declared backends plus adopted session verifiers — sorted
// by endpoint name. Empty when resilience is off.
func (rt *Runtime) ResilienceHealth() []EndpointHealth {
	var out []EndpointHealth
	for _, b := range rt.registry.All() {
		rc, ok := b.Resilience()
		if !ok {
			continue
		}
		out = append(out, EndpointHealth{Endpoint: b.Name(), Breaker: rc.State().String(), Counters: rc.Counters()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}

// BackendStatus is one backend's /stats row: routing metadata plus
// lifetime traffic and resilience state.
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

// BackendStatuses snapshots every backend the runtime routes over, in
// declaration order (adopted verifier backends follow, sorted by name).
func (rt *Runtime) BackendStatuses() []BackendStatus {
	def := rt.registry.Default()
	var out []BackendStatus
	for _, b := range rt.registry.All() {
		st := BackendStatus{
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
			st.Breaker = rc.State().String()
			st.Counters = rc.Counters()
		}
		out = append(out, st)
	}
	return out
}

// PrimeTableKeys seeds the planner's cardinality estimate for one table
// — the engine's ANALYZE equivalent for operators who know their data's
// scale before the first query runs.
func (rt *Runtime) PrimeTableKeys(table string, keys int) {
	rt.stats.SetTableKeys(table, keys)
	// Primed statistics can redirect plan choice wholesale (unlike the
	// passive per-query refinement), so treat ANALYZE as a state change
	// for that table: results reading it are no longer served. Priming
	// targets LLM tables (DB cardinalities are known exactly), so the
	// LLM component is the one bumped.
	rt.bumpComponent(logical.ComponentLLM(table))
}

// CacheStats reports the runtime-lifetime prompt-cache counters (zero
// value when the cache is disabled).
func (rt *Runtime) CacheStats() llm.CacheStats {
	if rt.cache == nil {
		return llm.CacheStats{}
	}
	return rt.cache.Stats()
}

// AttachDB connects a relational store for DB-bound (and hybrid) queries.
func (rt *Runtime) AttachDB(db *memdb.DB) {
	rt.mu.Lock()
	rt.db = db
	rt.mu.Unlock()
	rt.bumpComponent(logical.ComponentDB)
}

// BindLLMTable declares a relation whose tuples live in the LLM. The
// definition supplies the schema and the single-attribute key the paper
// assumes (Section 3). Safe to call concurrently with running queries:
// bindings are guarded, and a query planned before the bind simply does
// not see the new table.
func (rt *Runtime) BindLLMTable(def *schema.TableDef) error {
	if def.KeyIndex() < 0 {
		return fmt.Errorf("core: table %s: key column %q not in schema", def.Name, def.KeyColumn)
	}
	if def.Backend != "" {
		if _, ok := rt.registry.Get(def.Backend); !ok {
			return fmt.Errorf("core: table %s: pinned backend %q not declared", def.Name, def.Backend)
		}
	}
	rt.mu.Lock()
	rt.llmDefs[strings.ToLower(def.Name)] = def
	rt.mu.Unlock()
	rt.bumpComponent(logical.ComponentLLM(def.Name))
	return nil
}

// ResolveTable implements logical.Resolver with the runtime's default
// source. Sessions resolve through their own Session.ResolveTable so a
// per-session DefaultSource override takes effect.
func (rt *Runtime) ResolveTable(name, explicit string) (*schema.TableDef, string, error) {
	return rt.resolveTable(name, explicit, rt.opts.DefaultSource)
}

// resolveTable resolves one table reference. Explicit LLM./DB.
// qualifiers win; otherwise defaultSource breaks ties between an LLM
// binding and a DB table of the same name.
func (rt *Runtime) resolveTable(name, explicit, defaultSource string) (*schema.TableDef, string, error) {
	rt.mu.RLock()
	llmDef := rt.llmDefs[strings.ToLower(name)]
	db := rt.db
	rt.mu.RUnlock()
	var dbDef *schema.TableDef
	if db != nil {
		dbDef = db.Table(name)
	}
	switch explicit {
	case "LLM":
		if llmDef == nil {
			return nil, "", fmt.Errorf("core: no LLM binding for table %s", name)
		}
		return llmDef, "LLM", nil
	case "DB":
		if dbDef == nil {
			return nil, "", fmt.Errorf("core: no DB table %s", name)
		}
		return dbDef, "DB", nil
	}
	switch {
	case llmDef != nil && dbDef != nil:
		if defaultSource == "DB" {
			return dbDef, "DB", nil
		}
		return llmDef, "LLM", nil
	case llmDef != nil:
		return llmDef, "LLM", nil
	case dbDef != nil:
		return dbDef, "DB", nil
	default:
		return nil, "", fmt.Errorf("core: unknown table %s", name)
	}
}

// database returns the attached relational store (nil when none).
func (rt *Runtime) database() *memdb.DB {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.db
}
