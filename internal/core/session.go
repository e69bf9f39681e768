package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/llm"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/rescache"
	"repro/internal/schema"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
	"repro/internal/value"
)

// Session is the lightweight per-query (or per-connection) tier over a
// shared Runtime: it carries the query options, accumulates per-session
// metrics, and holds nothing heavier — the model endpoints, the prompt
// cache, the optimizer statistics and the global scheduler all live in
// the Runtime. Open one with Runtime.NewSession.
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
	// optsFP is optionsFingerprint(&opts), rendered once per SetOptions
	// rather than on every query.
	optsFP string

	mu      sync.Mutex
	queries int
	totals  llm.Stats
}

// Runtime returns the shared tier this session runs on.
func (s *Session) Runtime() *Runtime { return s.rt }

// Options returns the session's current options.
func (s *Session) Options() Options { return s.opts }

// SetOptions replaces the session's per-query options (plan rewrites,
// cleaning, verifier, pipelining). Runtime-tier settings — the prompt
// cache, the result cache, the shared scheduler's worker budget and the
// transport's retry, timeout and breaker settings — are fixed at
// NewRuntime and ignored here. Not safe concurrently with Query.
func (s *Session) SetOptions(opts Options) {
	opts.normalize()
	s.opts = opts
	s.optsFP = optionsFingerprint(&s.opts)
}

// SessionStats summarize a session's lifetime usage.
type SessionStats struct {
	Queries int
	Totals  llm.Stats
}

// Stats returns the session-lifetime counters: queries executed and the
// summed LLM usage across them.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStats{Queries: s.queries, Totals: s.totals}
}

// Plan parses, plans and optimizes a query, returning the lowered logical
// plan a fresh execution would run. Under a cost-based configuration
// this is the cheapest enumerated candidate. It never considers residual
// plans over cached relations, which EXPLAIN and execution also weigh.
func (s *Session) Plan(sql string) (logical.Node, error) {
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	plan, _, err := s.plan(sel, nil, nil)
	return plan, err
}

// ResolveTable implements logical.Resolver over the shared bindings with
// this session's DefaultSource breaking LLM-vs-DB ties.
func (s *Session) ResolveTable(name, explicit string) (*schema.TableDef, string, error) {
	return s.rt.resolveTable(name, explicit, s.opts.DefaultSource)
}

// plan is the planner entry point: it builds and optimizes the plan for
// one SELECT (optimizer.Choose), returning the planner's cost prediction
// alongside it. Fresh candidates compete against any pre-built residual
// plans over cached relations, so cache answering is a plan-choice
// decision, not a bypass. A non-nil built plan (already constructed for
// the result-cache fingerprint) is the first candidate, so a cache miss
// does not build twice. Under CostBased the runtime's plan cache may
// replace the enumeration; sessions that pin per-conjunct or per-join
// knobs bypass it, since those sets are keyed by conjunct text, which
// carries literals.
func (s *Session) plan(sel *ast.Select, built logical.Node, extras []optimizer.ExtraPlan) (logical.Node, *optimizer.PlanCost, error) {
	// Price plans with the worker budget that will actually apply: the
	// runtime scheduler's shared per-endpoint budget under the streaming
	// policy, the session's wave width under stop-and-go.
	workers := s.opts.BatchWorkers
	if s.opts.Pipelined {
		workers = s.rt.opts.BatchWorkers
	}
	// On a multi-backend runtime, plans are priced against the backend
	// each operator role routes to (session overrides included); the
	// single-backend estimate stays unpriced and byte-identical.
	overrides, err := s.routeOverrides()
	if err != nil {
		return nil, nil, err
	}
	router := s.rt.registry.Router(overrides)
	params := optimizer.CostParams{
		Workers:  workers,
		Verifier: s.verifyEnabled(overrides),
		Price:    s.priceFor(router),
		Resident: s.residentFor(router, overrides),
	}
	o := s.opts.Optimizer
	pc := s.rt.plans
	var tpl *optimizer.Template
	if o.CostBased && pc != nil && len(o.DisableLLMFilter) == 0 && len(o.PromptPushdownSkip) == 0 && len(o.SwapJoins) == 0 {
		if built == nil {
			if built, err = logical.Build(sel, s); err != nil {
				return nil, nil, err
			}
		}
		if tpl, _ = optimizer.NewTemplate(built, s.planInputs(params)); tpl == nil {
			pc.misses.Add(1)
		} else if plan, cost, err := pc.replan(built, tpl, o, s.rt.stats, params, extras); plan != nil || err != nil {
			return plan, cost, err
		}
	}
	plan, cost, g, err := optimizer.Choose(s.planFactory(sel, built), o, s.rt.stats, params, extras, tpl)
	if err != nil {
		return nil, nil, err
	}
	if g != nil {
		pc.entries.Put(tpl.Key(), g)
	}
	return plan, cost, nil
}

// Explain renders the optimized plan as an indented tree.
func (s *Session) Explain(sql string) (string, error) {
	plan, err := s.Plan(sql)
	if err != nil {
		return "", err
	}
	return logical.Explain(plan), nil
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
// subsumption index and returns one pre-built residual plan per cached
// relation that can answer it: same FROM tree, weaker-or-equal producer
// conjuncts, same result-affecting options, and a residual chain that
// compiles against the producer's output columns. The candidates then
// compete in plan on estimated cost.
func (s *Session) residualCandidates(canon logical.Canonical, stamp string) []optimizer.ExtraPlan {
	rc, shape := s.rt.resultCache, canon.Shape
	if rc == nil || shape == nil || s.opts.Optimizer.PromptPushdown {
		return nil
	}
	opts := s.optsFP
	var extras []optimizer.ExtraPlan
	for _, c := range rc.Candidates(rescache.TablesKey(canon.Components), stamp) {
		if c.Prod.Opts != opts {
			continue
		}
		residual, ok := logical.Subsumes(shape, c.Prod.FromKey, c.Prod.Conjuncts)
		if !ok {
			continue
		}
		// Residual conjuncts run as plain in-memory comparisons, so every
		// one of them must be a conjunct direct execution also evaluates
		// locally. A predicate the optimizer could lower to a per-key
		// boolean prompt (LLMFilter) is answered by the model's semantic
		// judgment, which need not agree with comparing the fetched
		// attribute value — evaluating it locally would change results.
		// Conjuncts the producer already applied are unaffected: they are
		// matched, not re-evaluated.
		if s.opts.Optimizer.UseLLMFilter && !residualsLocalSafe(residual, shape.From) {
			continue
		}
		cs := logical.NewCachedScan(c.Prod.FromLabel, c.Key.Fingerprint, c.Key.Stamp, c.Rows, c.Schema)
		plan, err := logical.BuildResidual(shape, cs, residual)
		if err != nil {
			continue
		}
		// Column coverage is decided here: the residual compiles exactly
		// when everything the query computes resolves over the columns
		// the producer projected. Rel stays nil for validation; the
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

// residualsLocalSafe reports whether every residual conjunct is safe to
// evaluate as a local comparison (see optimizer.ResidualLocalSafe).
func residualsLocalSafe(residual []ast.Expr, from logical.Node) bool {
	for _, c := range residual {
		if !optimizer.ResidualLocalSafe(c, from) {
			return false
		}
	}
	return true
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
	fmt.Fprintf(&b, "opt=%t,%t,%t,%t|", o.Optimizer.PushdownPredicates, o.Optimizer.UseLLMFilter,
		o.Optimizer.PromptPushdown, o.Optimizer.CostBased)
	writeSortedSet(&b, o.Optimizer.DisableLLMFilter)
	writeSortedSet(&b, o.Optimizer.PromptPushdownSkip)
	writeSortedIntSet(&b, o.Optimizer.SwapJoins)
	fmt.Fprintf(&b, "clean=%t,%t,%s|", o.Clean.NormalizeNumbers, o.Clean.EnforceTypes,
		o.Clean.Canonicalizer.Fingerprint())
	fmt.Fprintf(&b, "scan=%d|", o.MaxScanIterations)
	if o.Verifier != nil {
		fmt.Fprintf(&b, "verify=%s|", o.Verifier.Name())
	}
	fingerprintRoutes(&b, o.Routes)
	return b.String()
}

// writeSortedSet renders a per-conjunct option set deterministically.
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

// writeSortedIntSet renders a join-index option set deterministically.
func writeSortedIntSet(b *strings.Builder, set map[int]bool) {
	keys := make([]int, 0, len(set))
	for k, on := range set {
		if on {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	fmt.Fprintf(b, "%v|", keys)
}

// account folds one executed query into the session-lifetime counters.
func (s *Session) account(rep *Report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queries++
	s.totals.Add(rep.Stats)
}

// runExplain plans (and for ANALYZE also executes) the inner SELECT and
// renders the annotated plan tree as a one-column relation. With the
// result cache on, residual plans over cached relations compete here
// exactly as they do for execution, so EXPLAIN shows the
// "residual over cached(...)" plan a subsumed query would actually run.
func (s *Session) runExplain(ctx context.Context, ex *ast.Explain) (*schema.Relation, *Report, error) {
	var built logical.Node
	var canon logical.Canonical
	var stamp string
	if s.rt.resultCache != nil {
		var err error
		if built, err = logical.Build(ex.Stmt, s); err != nil {
			return nil, nil, err
		}
		canon = logical.Canonicalize(built)
		stamp = s.rt.stampFor(canon.Components)
	}
	plan, cost, err := s.plan(ex.Stmt, built, s.residualCandidates(canon, stamp))
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{Plan: logical.Explain(plan), Estimate: cost}
	if ex.Analyze {
		st, err := s.openPlan(ctx, ex.Stmt, plan, cost)
		if err != nil {
			return nil, nil, err
		}
		defer st.Close()
		if _, rep, err = st.drain(); err != nil {
			return nil, nil, err
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
	return rel, rep, nil
}

// openTenant opens one query's scheduler tenant in the session's
// admission class and weight, which decide the dispatch band and the
// deficit share within it, and in the session's execution policy:
// stop-and-go tenants issue waves as wide as the session's BatchWorkers.
// Unknown class spellings fall back to interactive (the serve layer
// rejects them before they reach here; direct API callers get the safe
// default).
func (s *Session) openTenant(ctx context.Context) *llm.Tenant {
	class, _ := llm.ParseClass(s.opts.AdmissionClass)
	t := s.rt.scheduler().TenantFor(ctx, "", class, s.opts.AdmissionWeight)
	if !s.opts.Pipelined {
		t.SetWaves(s.opts.BatchWorkers)
	}
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
	var walk func(logical.Node)
	walk = func(n logical.Node) {
		switch node := n.(type) {
		case *logical.Scan:
			if node.Source == "LLM" && node.PushedFilter == nil {
				if nm, ok := m.Get(node); ok && nm.Prompts > 0 {
					s.rt.stats.ObserveScan(node.Table.Name, nm.RowsOut, nm.Prompts)
				}
			}
		case *logical.LLMFilter:
			if nm, ok := m.Get(node); ok && nm.RowsIn > 0 {
				ref := node.Cond.Left.(*ast.ColumnRef)
				lit := node.Cond.Right.(*ast.Literal)
				s.rt.stats.ObserveFilter(node.Table.Name, ref.Name, node.Cond.Op, lit.Val.String(), nm.RowsIn, nm.RowsOut)
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(plan)
}

// hasLimit reports whether the plan contains a Limit node.
func hasLimit(n logical.Node) bool {
	if _, ok := n.(*logical.Limit); ok {
		return true
	}
	for _, c := range n.Children() {
		if hasLimit(c) {
			return true
		}
	}
	return false
}
