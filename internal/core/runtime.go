package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/llm"
	"repro/internal/logical"
	"repro/internal/lru"
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
	routed bool
	opts   Options
	// res is opts resolved, shared by every session under the defaults:
	// opening a session formats and resolves nothing.
	res     *resolved
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
	// cache is off); shapes maps a SELECT's shape to its build prepared
	// for binding other literals (see memo.go).
	memo   *stmtMemo
	shapes *shapeMemo
	// plans is the cost-based planner's cache of plan choices by
	// statement template, each reused only while the inputs it was chosen
	// on are unchanged (nil: every statement enumerates).
	plans *planCache
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
	// Lock order: epochMu is a leaf. The result cache validates inserts
	// by calling stampFor while holding its own mutex, and the durable
	// tier copies the table while holding persistMu, so epochMu may be
	// taken inside either lock, never around one. bumpComponent writes
	// the epoch first and only then — with no lock held — invalidates,
	// which is what makes a stale straddling insert impossible: either
	// it re-reads the bumped stamp and drops itself, or it lands early
	// enough for the invalidation scan to remove it.
	epochMu    sync.Mutex
	compEpochs map[string]uint64
	// stats feed the cost-based optimizer: table cardinalities, page
	// sizes and predicate selectivities, starting from defaults and
	// refined from the per-operator counters of every executed query.
	// Concurrency-safe; sessions observe into it concurrently.
	stats *optimizer.Statistics
	// sched is the engine-global prompt scheduler, built with the
	// runtime over the declared per-backend worker budgets. It lives for
	// the runtime's lifetime: every pipelined query of every session
	// shares its per-endpoint worker budget.
	sched *llm.Scheduler

	// mu guards the table bindings and the attached store: BindLLMTable /
	// AttachDB write, concurrent session planners read through
	// ResolveTable.
	mu      sync.RWMutex
	llmDefs map[string]*schema.TableDef
	db      *memdb.DB

	// persistMu guards the durable tier (nil pstore = persistence off).
	// It is never taken inside the result-cache mutex or epochMu: sink
	// hooks and flushes acquire it with no other runtime lock held, and
	// nothing under it calls back into the cache. FlushStore and
	// persistEpochs copy the epoch table under it (epochMu inside
	// persistMu, never the reverse), so the durable table is written in
	// the order it was copied and cannot go back behind a completed bump.
	persistMu sync.Mutex
	pstore    *store.Store
	pctr      PersistCounters
	snapStop  chan struct{}
	snapDone  chan struct{}
}

// NewRuntime builds the shared runtime tier over the given LLM client.
// opts become the default options of every session opened on it;
// runtime-tier settings (CacheEnabled/CacheSize, the ResultCache*
// fields, BatchWorkers as the shared scheduler's per-endpoint budget,
// and the transport's Retries, RetryBackoff, PromptTimeout,
// BreakerThreshold and BreakerCooldown) are fixed here. The client
// becomes the sole backend of an implicit registry under its own name;
// runtimes routing across several models use NewRuntimeWithBackends.
// A nil client yields an empty registry: DB-only plans run, LLM-bound
// operators fail at Open exactly as before.
func NewRuntime(client llm.Client, opts Options) *Runtime {
	var defs []BackendDef
	if client != nil {
		defs = []BackendDef{{Name: client.Name(), Client: client}}
	}
	rt, err := newRuntimeBackends(defs, "", nil, opts, false)
	if err != nil {
		// Unreachable: at most one backend, no routes, no fallbacks.
		panic(fmt.Sprintf("core: implicit registry: %v", err))
	}
	return rt
}

// BackendDef declares one named model backend for a multi-backend
// runtime: the transport, the scheduler worker budget, the optimizer's
// pricing coefficients and the failover chain. It is the registry's own
// declaration (llm.BackendSpec); the runtime wraps each Client in its
// own ResilientClient (independent breaker, retry budget) unless the
// caller pre-wrapped it, and Workers = 0 means the runtime default.
type BackendDef = llm.BackendSpec

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
	return newRuntimeBackends(defs, defaultName, routes, opts, true)
}

// newRuntimeBackends is the shared runtime constructor; routed reports
// whether the backends were declared explicitly. An empty defs slice
// (the implicit nil-client path) builds an empty registry; explicit
// construction requires at least one backend.
func newRuntimeBackends(defs []BackendDef, defaultName string, routes map[string]string, opts Options, routed bool) (*Runtime, error) {
	opts.normalize()
	wrap := func(inner llm.Client, endpoint string) llm.Client {
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
	registry, err := llm.NewRegistry(defs, defaultName, routes, wrap)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		registry:   registry,
		routed:     routed,
		llmDefs:    map[string]*schema.TableDef{},
		compEpochs: map[string]uint64{},
		opts:       opts,
		builder:    prompt.NewBuilder(),
		stats:      optimizer.NewStatistics(),
		plans:      newPlanCache(),
		shapes:     lru.NewMap[string, *shapeEntry](planCacheSize),
	}
	if opts.CacheEnabled {
		rt.cache = llm.NewCache(opts.CacheSize)
	}
	rt.sched = llm.NewScheduler(rt.cache, opts.BatchWorkers, registry.Backends()...)
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
		rt.memo = lru.NewMap[string, *memoEntry](size)
	}
	rt.res = rt.resolve(&rt.opts, optionsFingerprint(&rt.opts))
	rt.opts.Routes = rt.res.routes
	return rt, nil
}

// tableEpochs copies the per-component binding epochs ("llm:<table>" per
// LLM binding, "db" for the attached store): the stamps result-cache keys
// carry (stampFor).
func (rt *Runtime) tableEpochs() map[string]uint64 {
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

// NewSession opens a lightweight per-query session carrying the
// runtime's default options. Sessions are cheap (no pools, no maps) and
// any number may run queries concurrently against one runtime.
func (rt *Runtime) NewSession() *Session {
	return &Session{rt: rt, opts: rt.opts, res: rt.res}
}

// Options returns the runtime's session defaults.
func (rt *Runtime) Options() Options { return rt.opts }

// Statistics exposes the planner's statistics store (never nil).
func (rt *Runtime) Statistics() *optimizer.Statistics { return rt.stats }

// Client exposes the runtime's default backend (its calls traverse that
// backend's resilient transport). Nil when the
// runtime was built without a client.
func (rt *Runtime) Client() llm.Client {
	if b := rt.registry.Default(); b != nil {
		return b
	}
	return nil
}

// Registry exposes the runtime's named-backend set.
func (rt *Runtime) Registry() *llm.Registry { return rt.registry }

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

// ResolveTable implements logical.Resolver over the runtime's bindings.
// Explicit LLM./DB. qualifiers win; otherwise an LLM binding wins over a
// DB table of the same name.
func (rt *Runtime) ResolveTable(name, explicit string) (*schema.TableDef, string, error) {
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
