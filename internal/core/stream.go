package core

import (
	"context"
	"errors"
	"io"

	"repro/internal/clean"
	"repro/internal/llm"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/rescache"
	"repro/internal/schema"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
)

// Stream is one query's incremental result delivery: rows leave as the
// pipelined executor yields them, instead of waiting for the whole
// relation to materialize. The contract mirrors the row iterators the
// executor itself is built from:
//
//	st, err := sess.QueryStream(ctx, sql)
//	defer st.Close()
//	for { row, vt, err := st.Next(); ... }   // io.EOF ends the stream
//	rep, err := st.Finish()                  // stats, makespan, plan
//
// Next returns, next to each tuple, its virtual availability time — the
// simulated instant the prompt chain producing the row completed — so a
// consumer (and the tests) can check "the first row left before the
// full relation was done" against the deterministic latency model
// rather than a racy wall clock. Finish is valid only after Next
// returned io.EOF; it settles accounting exactly like a buffered Query
// (quiesce, observe, session totals, result-cache population). Close is
// idempotent and safe mid-stream: it cascades through the operator tree
// (stopping upstream prompt issue) and closes the scheduler tenant, so
// an abandoned stream releases its slots and queued prompts
// immediately.
//
// Result-cache interplay: an exact hit replays the cached relation row
// by row (zero prompts, vt 0); a subsumed hit streams the residual
// plan's local evaluation; a miss streams the fresh execution while
// accumulating the relation, then populates the cache on Finish. A
// streaming miss executes outside the cache's singleflight — rows must
// reach the client before the relation exists, so the stream cannot
// lead a flight for concurrent buffered callers; identical concurrent
// queries may therefore execute redundantly, and the first Finish wins
// the population race. Results are bit-identical either way.
type Stream struct {
	s      *Session
	schema *schema.Schema
	cached CacheOutcome

	// Live execution state (nil when replaying a materialized result).
	st      *physical.RowStream
	tenant  *llm.Tenant
	penv    *promptEnv
	plan    logical.Node
	cost    *optimizer.PlanCost
	metrics *physical.Metrics

	// Replay state: cache-exact hits and EXPLAIN fall back to a
	// materialized relation with a pre-settled report.
	replay *schema.Relation
	idx    int
	rep    *Report

	// acc accumulates delivered rows: the finished relation for cache
	// population.
	acc      *schema.Relation
	populate func(rel *schema.Relation, rep *Report)

	finished bool
	closed   bool
}

// QueryStream executes sql for incremental row consumption. It accepts
// everything Query does; statements with no incremental production
// (EXPLAIN renders a finished plan tree) run buffered and replay.
func (s *Session) QueryStream(ctx context.Context, sql string) (*Stream, error) {
	stmt, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.RunStream(ctx, stmt)
}

// RunStream is QueryStream over an already parsed statement.
func (s *Session) RunStream(ctx context.Context, stmt ast.Statement) (*Stream, error) {
	sel, ok := stmt.(*ast.Select)
	if !ok {
		rel, rep, err := s.Run(ctx, stmt)
		if err != nil {
			return nil, err
		}
		// Query settled all accounting; the stream only replays.
		return &Stream{s: s, schema: rel.Schema, replay: rel, rep: rep, cached: rep.Cached}, nil
	}

	rc := s.rt.resultCache
	if rc == nil {
		plan, cost, err := s.planSelectFrom(sel, nil)
		if err != nil {
			return nil, err
		}
		return s.openLiveStream(ctx, plan, cost, nil)
	}

	// Mirror runSelect's cache flow (same fingerprints, same stamp-
	// before-execution rule, same LIMIT exclusions) so a streamed query
	// and a buffered query populate and hit identically.
	built, err := logical.Build(sel, s)
	if err != nil {
		return nil, err
	}
	shape := logical.Decompose(built)
	comps := logical.Components(built)
	stamp := s.rt.stampFor(comps)
	if sel.Limit >= 0 || sel.Offset > 0 {
		return s.openShapedStream(ctx, sel, built, shape, stamp, nil)
	}
	key := rescache.Key{Fingerprint: s.resultFingerprint(built), Stamp: stamp}
	if entry, ok := rc.Peek(key); ok {
		rep := &Report{Plan: entry.Plan, Cached: CacheExact}
		s.account(rep)
		return &Stream{s: s, schema: entry.Rel.Schema, replay: entry.Rel, rep: rep, cached: CacheExact}, nil
	}
	populate := func(rel *schema.Relation, rep *Report) {
		e := &rescache.Entry{Rel: rel, Plan: rep.Plan, Tables: comps}
		if shape != nil && shape.Producer && !s.opts.Optimizer.PromptPushdown {
			// Same producer-retention rule as the buffered path: see
			// runSelect.
			e.Prod = &rescache.Producer{
				Opts:      s.optsFP,
				FromKey:   shape.FromKey,
				FromLabel: shape.FromLabel,
				Conjuncts: shape.ConjunctTexts(),
			}
		}
		// Fetch with a prebuilt entry: an identical resident or in-flight
		// result wins the race and this population is dropped — benign,
		// the relations are bit-identical by construction.
		rc.Fetch(ctx, key, func() (*rescache.Entry, error) { return e, nil })
	}
	return s.openShapedStream(ctx, sel, built, shape, stamp, populate)
}

// openShapedStream is executeShaped for streams: residual plans over
// cached relations compete as candidates, and a residual winner whose
// entry was evicted falls back to a fresh plan.
func (s *Session) openShapedStream(ctx context.Context, sel *ast.Select, built logical.Node, shape *logical.Shape, stamp string, populate func(*schema.Relation, *Report)) (*Stream, error) {
	extras := s.residualCandidates(shape, stamp)
	plan, cost, err := s.planSelectExtras(sel, built, extras)
	if err != nil {
		return nil, err
	}
	if cs := logical.FindCachedScan(plan); cs != nil {
		st, err := s.openResidualStream(ctx, plan, cost, cs, populate)
		if !errors.Is(err, errCachedEntryGone) {
			return st, err
		}
		if plan, cost, err = s.planSelectFrom(sel, nil); err != nil {
			return nil, err
		}
	}
	return s.openLiveStream(ctx, plan, cost, populate)
}

// openResidualStream streams a winning residual plan's local evaluation
// over its cached relation: no scheduler tenant, no model client, zero
// prompts.
func (s *Session) openResidualStream(ctx context.Context, plan logical.Node, cost *optimizer.PlanCost, cs *logical.CachedScan, populate func(*schema.Relation, *Report)) (*Stream, error) {
	entry, ok := s.rt.resultCache.Subsumed(rescache.Key{Fingerprint: cs.Source, Stamp: cs.Stamp})
	if !ok {
		return nil, errCachedEntryGone
	}
	cs.Rel = entry.Rel
	op, err := physical.Compile(plan, nil)
	if err != nil {
		return nil, err
	}
	metrics := physical.NewMetrics()
	pctx := &physical.Context{
		Ctx:     ctx,
		Cleaner: clean.New(s.opts.Clean),
		Metrics: metrics,
	}
	st, err := physical.OpenStream(pctx, op)
	if err != nil {
		return nil, err
	}
	return &Stream{
		s:        s,
		schema:   st.Schema(),
		st:       st,
		plan:     plan,
		cost:     cost,
		metrics:  metrics,
		cached:   CacheSubsumed,
		acc:      schema.NewRelation(st.Schema().Clone()),
		populate: populate,
	}, nil
}

// openLiveStream opens a fresh execution for streaming — execute()'s
// environment (recorder, verifier, scheduler tenant in the session's
// admission class) wired to a RowStream instead of a materializing Run.
func (s *Session) openLiveStream(ctx context.Context, plan logical.Node, cost *optimizer.PlanCost, populate func(*schema.Relation, *Report)) (*Stream, error) {
	var env *physical.Env
	if db := s.rt.database(); db != nil {
		env = &physical.Env{Data: db.Relation}
	}
	op, err := physical.Compile(plan, env)
	if err != nil {
		return nil, err
	}
	penv, err := s.promptEnv()
	if err != nil {
		return nil, err
	}
	ctx = llm.WithRecorder(ctx, penv.primary)
	var verifier llm.Client
	if penv.verifier != nil {
		verifier = penv.verifier
	}
	metrics := physical.NewMetrics()
	pctx := &physical.Context{
		Ctx:               ctx,
		Client:            penv.primaryClient(),
		Route:             penv.clientForRole,
		Cache:             s.rt.cache,
		Prompts:           s.rt.builder,
		Cleaner:           clean.New(s.opts.Clean),
		MaxScanIterations: s.opts.MaxScanIterations,
		BatchWorkers:      s.opts.BatchWorkers,
		Metrics:           metrics,
		Verifier:          verifier,
		VerifyTolerance:   s.opts.VerifyTolerance,
	}
	var tenant *llm.Tenant
	if s.opts.Pipelined {
		tenant = s.openTenant(ctx)
		pctx.Scheduler = tenant
	}
	st, err := physical.OpenStream(pctx, op)
	if err != nil {
		if tenant != nil {
			tenant.Close()
		}
		return nil, err
	}
	return &Stream{
		s:        s,
		schema:   st.Schema(),
		st:       st,
		tenant:   tenant,
		penv:     penv,
		plan:     plan,
		cost:     cost,
		metrics:  metrics,
		acc:      schema.NewRelation(st.Schema().Clone()),
		populate: populate,
	}, nil
}

// Schema reports the stream's output columns (available before the
// first row — the header frame of a wire protocol).
func (st *Stream) Schema() *schema.Schema { return st.schema }

// Cached reports how the result cache participated, known at open time.
func (st *Stream) Cached() CacheOutcome { return st.cached }

// Next pulls one row with its virtual availability time; io.EOF ends
// the stream.
func (st *Stream) Next() (schema.Tuple, llm.VTime, error) {
	if st.closed {
		return nil, 0, errors.New("core: stream closed")
	}
	if st.replay != nil {
		if st.idx >= len(st.replay.Rows) {
			return nil, 0, io.EOF
		}
		t := st.replay.Rows[st.idx]
		st.idx++
		return t, 0, nil
	}
	t, vt, err := st.st.Next()
	if err != nil {
		return nil, 0, err
	}
	if st.acc != nil {
		st.acc.Append(t)
	}
	return t, vt, nil
}

// Finish settles the completed stream: it releases the execution,
// quiesces the tenant (abandoned futures were issued and must be
// accounted), builds the Report a buffered Query would have returned,
// feeds the optimizer statistics, folds the session totals, and
// populates the result cache with the accumulated relation. Only valid
// after Next returned io.EOF.
func (st *Stream) Finish() (*Report, error) {
	if st.finished {
		return st.rep, nil
	}
	if st.closed {
		return nil, errors.New("core: stream closed before completion")
	}
	st.finished = true
	st.closed = true
	if st.replay != nil {
		return st.rep, nil // settled at open
	}
	st.st.Close()
	if st.tenant != nil {
		st.tenant.Quiesce()
	}
	rep := &Report{Plan: logical.Explain(st.plan), Estimate: st.cost, Metrics: st.metrics, Cached: st.cached}
	if st.penv != nil {
		rep.Stats = st.penv.stats()
	}
	if st.tenant != nil {
		rep.Stats.SimulatedLatency += st.tenant.Makespan()
		rep.Sched = st.tenant.Stats()
		st.tenant.Close()
	}
	if st.cached == CacheNone {
		st.s.observe(st.plan, st.metrics)
	}
	st.s.account(rep)
	if st.populate != nil && st.acc != nil {
		st.populate(st.acc, rep)
	}
	st.rep = rep
	return rep, nil
}

// Close releases the stream. Safe (and required) mid-stream: the
// operator close cascade stops upstream prompt issue, and closing the
// tenant fails its queued prompts immediately without perturbing other
// tenants — a disconnected client frees its slots right away.
// Idempotent; a no-op after Finish.
func (st *Stream) Close() {
	if st.closed {
		return
	}
	st.closed = true
	if st.st != nil {
		st.st.Close()
	}
	if st.tenant != nil {
		st.tenant.Close()
	}
}
