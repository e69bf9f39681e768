package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/llm"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/schema"
	"repro/internal/sql/ast"
	"repro/internal/value"
)

// Session is the lightweight per-query (or per-connection) tier over a
// shared Runtime: it carries the query options and holds nothing
// heavier — the model endpoints, the prompt cache, the optimizer
// statistics and the global scheduler all live in the Runtime. Open one
// with Runtime.NewSession.
//
// A Session is safe for concurrent use, but its unit of isolation is the
// query: each Query call plans and executes independently, opening its
// own tenant on the shared scheduler so accounting, cancellation and
// fair-share attribution stay exact per query.
type Session struct {
	rt *Runtime
	// opts are this session's options, seeded from the runtime defaults.
	// Mutate via SetOptions before issuing queries.
	opts Options
	// res is opts resolved against rt, once per SetOptions rather than on
	// every query: the runtime's own while opts resolve alike.
	res *resolved
}

// Runtime returns the shared tier this session runs on.
func (s *Session) Runtime() *Runtime { return s.rt }

// Options returns the session's current options.
func (s *Session) Options() Options { return s.opts }

// SetOptions replaces the session's per-query options (plan rewrites,
// cleaning, pipelining, route overrides — a verify route, which turns
// on verification, among them) and resolves them once: the options key
// that prefixes the session's result-cache and plan-cache keys, the
// routing view and verifier, the planner's cost parameters and the
// cleaner, which every later query reads. The session keeps its own copy
// of opts.Routes, so the caller may reuse the map. Undeclared or
// misspelled routes fail every query with the route error.
// Runtime-tier settings — the prompt cache, the result cache, the shared
// scheduler's worker budget and the transport's retry, timeout and
// breaker settings — are fixed at NewRuntime and ignored here. Not safe
// concurrently with Query.
func (s *Session) SetOptions(opts Options) {
	opts.normalize()
	key := optionsFingerprint(&opts)
	if s.res = s.rt.res; !s.res.matches(&opts, key) {
		s.res = s.rt.resolve(&opts, key)
	}
	opts.Routes = s.res.routes
	s.opts = opts
}

// Plan plans a query as execution's front end does (front) and returns
// the lowered logical plan a fresh execution would run. Under a
// cost-based configuration this is the cheapest enumerated candidate. It
// never considers residual plans over cached relations, which EXPLAIN
// and execution also weigh.
func (s *Session) Plan(sql string) (logical.Node, error) {
	q, ex, err := s.front(sql)
	if ex != nil {
		err = fmt.Errorf("%w: only a SELECT has a plan", ErrStatement)
	}
	if err != nil {
		return nil, err
	}
	plan, _, err := s.choose(q, nil)
	return plan, err
}

// ResolveTable implements logical.Resolver: every session resolves
// through the runtime's bindings (Runtime.ResolveTable).
func (s *Session) ResolveTable(name, explicit string) (*schema.TableDef, string, error) {
	return s.rt.ResolveTable(name, explicit)
}

// costBased reports whether the session plans through the runtime's
// plan cache: under CostBased, when the runtime has one.
func (s *Session) costBased() bool { return s.opts.Optimizer.CostBased && s.rt.plans != nil }

// choose is the planner entry point: it optimizes q's built plan
// (optimizer.Choose), returning the planner's cost prediction alongside
// it. Fresh candidates compete against any pre-built residual plans over
// cached relations, so cache answering is a plan-choice decision, not a
// bypass. Under CostBased the runtime's plan cache may replace the
// enumeration; it serves q's template only when no two of its slots
// share a literal (Template.Distinct). Its key starts with the session's
// plan key (the options key and the wave), so a session that pins a
// DisableLLMFilter set, which the enumeration does not read, keeps
// entries of its own.
func (s *Session) choose(q *query, extras []optimizer.ExtraPlan) (logical.Node, *optimizer.PlanCost, error) {
	if s.res.err != nil {
		return nil, nil, s.res.err
	}
	o, pc := s.opts.Optimizer, s.rt.plans
	var tpl *optimizer.Template
	switch {
	case !s.costBased():
	case !q.tpl.Distinct():
		pc.misses.Add(1)
	default:
		tpl = q.tpl
		g := pc.entries.Get(tpl.Key())
		if g == nil {
			pc.misses.Add(1)
			break
		}
		if plan, cost := g.Replan(tpl, o, s.rt.stats, s.res.params, extras); plan != nil {
			pc.hits.Add(1)
			return plan, cost, nil
		}
		pc.guardFailures.Add(1)
	}
	plan, cost, g, err := optimizer.Choose(q.built, o, s.rt.stats, s.res.params, extras, tpl)
	if err != nil {
		return nil, nil, err
	}
	if g != nil {
		pc.entries.Put(tpl.Key(), g)
	}
	return plan, cost, nil
}

// CacheOutcome reports how the result cache participated in one query.
type CacheOutcome string

const (
	// CacheNone: the query executed against the base tables.
	CacheNone CacheOutcome = ""
	// CacheExact: the relation was served verbatim from the cache (or a
	// concurrent identical in-flight execution).
	CacheExact CacheOutcome = "exact"
	// CacheSubsumed: the relation was computed by a residual plan over a
	// cached relation whose producing plan subsumes this query — zero
	// prompts, local evaluation only.
	CacheSubsumed CacheOutcome = "subsumed"
)

// Report summarizes one query execution.
type Report struct {
	Stats llm.Stats
	Plan  string
	// Estimate is the planner's cost prediction for the executed plan.
	Estimate *optimizer.PlanCost
	// Metrics hold the per-operator actual prompt/row counters (nil for
	// pure EXPLAIN, which does not execute).
	Metrics *physical.Metrics
	// Sched is the query's simulated-latency accounting on the shared
	// scheduler (critical path, per-endpoint work; a stop-and-go query's
	// critical path is its wave sum) — nil when no live execution ran.
	// Concurrency benchmarks aggregate these across queries with
	// llm.AggregateMakespan.
	Sched *llm.TenantStats
	// Cached reports whether (and how) the runtime's result cache
	// answered the query: CacheExact for a verbatim hit (Plan still
	// holds the plan the populating run executed, Stats all zero),
	// CacheSubsumed for a residual plan evaluated locally over a cached
	// relation (Plan shows the residual plan, Stats all zero).
	Cached CacheOutcome
}

// Query executes sql and returns the result relation plus an execution
// report (prompt counts, simulated latency, the plan used). EXPLAIN and
// EXPLAIN ANALYZE statements return the annotated plan as a one-column
// relation instead of query results. SQL that does not parse, and
// statements other than SELECT and EXPLAIN, fail with an error wrapping
// ErrStatement.
//
// Query is QueryStream drained: buffered and streamed callers share one
// execution path, one result-cache flight per key and one accounting
// point (Stream.Finish). The returned relation is read-only: an exact
// hit hands out the result cache's resident relation itself, and the
// relation an execution returns is the one it leaves resident.
func (s *Session) Query(ctx context.Context, sql string) (*schema.Relation, *Report, error) {
	st, err := s.QueryStream(ctx, sql)
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	return st.drain()
}

// residualCandidates matches the incoming shape against the cache's
// conjunct index and returns one pre-built residual plan per cached
// relation that can answer it: same FROM tree, weaker-or-equal producer
// conjuncts and same result-affecting options (the probe decides all
// three), a residual safe to evaluate locally, and a residual chain that
// compiles against the producer's output columns. The candidates then
// compete in plan on estimated cost.
func (s *Session) residualCandidates(canon logical.Canonical, stamp string) []optimizer.ExtraPlan {
	rc, shape := s.rt.resultCache, canon.Shape
	if rc == nil || shape == nil || s.opts.Optimizer.PromptPushdown {
		return nil
	}
	var extras []optimizer.ExtraPlan
	for _, c := range rc.Subsumers(canon.Components, stamp, s.res.key, shape.FromKey, shape.Conjuncts) {
		// Residual conjuncts run as in-memory comparisons: each must be one
		// direct execution also evaluates locally, never a per-key prompt.
		if !optimizer.ResidualLocalSafe(c.Residual, shape.From) {
			continue
		}
		cs := logical.NewCachedScan(c.Prod.FromLabel, c.Key.Fingerprint, c.Key.Stamp, c.Rows, c.Schema)
		plan, err := logical.BuildResidual(shape, cs, c.Residual)
		if err != nil {
			continue
		}
		// Column coverage is decided here: the residual compiles exactly
		// when everything the query computes resolves over the columns
		// the producer projected. Validation compiles without data; the
		// winning plan re-fetches the relation before execution.
		if _, err := physical.Compile(plan, nil); err != nil {
			continue
		}
		extras = append(extras, optimizer.ExtraPlan{
			Plan:  plan,
			Label: "residual over cached(" + c.Prod.FromLabel + ")",
		})
	}
	return extras
}

// errCachedEntryGone reports that a residual plan's backing cache entry
// was evicted between plan choice and execution; the session replans
// fresh.
var errCachedEntryGone = errors.New("core: cached relation evicted")

// optionsFingerprint renders every session option that can change a
// computed relation. Options that only change how the same relation is
// computed (pipelining, worker budgets, the prompt cache, which
// enumerated candidate wins) are deliberately excluded; the differential
// harness pins them result-identical.
func optionsFingerprint(o *Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "opt=%t,%t,%t|", o.Optimizer.PushdownPredicates, o.Optimizer.PromptPushdown, o.Optimizer.CostBased)
	writeSortedSet(&b, o.Optimizer.DisableLLMFilter)
	fmt.Fprintf(&b, "clean=%t,%s|", o.Clean.Normalize, o.Clean.Canonicalizer.Fingerprint())
	fmt.Fprintf(&b, "scan=%d|", o.MaxScanIterations)
	fingerprintRoutes(&b, o.Routes)
	return b.String()
}

// writeSortedSet renders the per-conjunct option set deterministically.
// Elements are quoted: conjunct keys contain spaces, and a plain join
// would let distinct sets (e.g. {"a b","c"} vs {"a","b c"}) collide.
func writeSortedSet(b *strings.Builder, set map[string]bool) {
	keys := make([]string, 0, len(set))
	for k, on := range set {
		if on {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "%q,", k)
	}
	b.WriteByte('|')
}

// runExplain plans (and for ANALYZE also executes) the inner SELECT and
// replays the annotated plan tree as a one-column relation. With the
// result cache on, residual plans over cached relations compete here
// exactly as they do for execution, so EXPLAIN shows the
// "residual over cached(...)" plan a subsumed query would actually run.
func (s *Session) runExplain(ctx context.Context, ex *ast.Explain) (*Stream, error) {
	q, err := s.prepare(ex.Stmt)
	if err != nil {
		return nil, err
	}
	var stamp string
	if s.rt.resultCache != nil {
		stamp = s.rt.stampFor(q.canon.Components)
	}
	plan, cost, err := s.choose(q, s.residualCandidates(q.canon, stamp))
	if err != nil {
		return nil, err
	}
	rep := &Report{Plan: logical.Explain(plan), Estimate: cost}
	if ex.Analyze {
		st, err := s.openPlan(ctx, q, plan, cost)
		if err != nil {
			return nil, err
		}
		defer st.Close()
		if _, rep, err = st.drain(); err != nil {
			return nil, err
		}
		// A residual winner evicted since planning ran a fresh plan;
		// explain the plan that executed.
		plan, cost = st.plan, st.cost
	}
	text := ExplainText(plan, cost, rep.Metrics, rep.Stats, ex.Analyze)
	rel := schema.NewRelation(schema.New(schema.Column{Name: "QUERY PLAN", Type: value.KindString}))
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		rel.Append(schema.Tuple{value.Text(line)})
	}
	return &Stream{s: s, schema: rel.Schema, cached: rep.Cached, replay: rel, rep: rep}, nil
}

// openTenant opens one query's scheduler tenant in the session's
// admission class and weight, which decide the dispatch band and the
// deficit share within it, and in the session's execution policy (wave).
// Unknown class spellings fall back to interactive (the serve layer
// rejects them before they reach here; direct API callers get the safe
// default).
func (s *Session) openTenant(ctx context.Context) *llm.Tenant {
	class, _ := llm.ParseClass(s.opts.AdmissionClass)
	t := s.rt.sched.TenantFor(ctx, "", class, s.opts.AdmissionWeight)
	t.SetWaves(s.res.wave)
	return t
}

// observe feeds the executed plan's per-operator counters back into the
// runtime's statistics, so later queries — of any session — plan against
// what the engine actually saw (cardinalities, page sizes,
// selectivities). Plans with a LIMIT are excluded: under one, operators
// may not see their full input (the streaming close-cascade stops
// producers mid-stream, and consumed row counts depend on the execution
// policy), so their counters describe the truncated run rather than
// the data and would corrupt the estimates. Residual plans never reach
// here: their counters describe cached rows, not the model.
func (s *Session) observe(plan logical.Node, m *physical.Metrics) {
	if m == nil || hasLimit(plan) {
		return
	}
	logical.Walk(plan, func(n logical.Node) bool {
		switch node := n.(type) {
		case *logical.Scan:
			if node.Source == "LLM" && len(node.Pushed) == 0 {
				if nm, ok := m.Get(node); ok && nm.Prompts > 0 {
					s.rt.stats.ObserveScan(node.Table.Name, nm.RowsOut, nm.Prompts)
				}
			}
		case *logical.LLMFilter:
			if nm, ok := m.Get(node); ok && nm.RowsIn > 0 {
				c := &node.Cond
				s.rt.stats.ObserveFilter(node.Table.Name, c.Col.Name, c.Op, c.LitText, nm.RowsIn, nm.RowsOut)
			}
		}
		return true
	})
}

// hasLimit reports whether the plan contains a Limit node.
func hasLimit(n logical.Node) bool {
	found := false
	logical.Walk(n, func(n logical.Node) bool {
		if !found {
			_, found = n.(*logical.Limit)
		}
		return !found
	})
	return found
}
