package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/llm"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/rescache"
	"repro/internal/schema"
	"repro/internal/sql/ast"
	"repro/internal/sql/lexer"
	"repro/internal/sql/parser"
)

// Stream is one query's execution, delivered row by row as the executor
// yields them. It is the session's only executor entry point: a
// buffered Query is a Stream drained to io.EOF. The contract mirrors the
// row iterators the executor itself is built from:
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
// returned io.EOF; it settles accounting (quiesce, observe, session
// totals). Called earlier it releases the stream like Close and reports
// an error: a partial relation is never cached or observed. Close is
// idempotent and safe mid-stream: it
// cascades through the operator tree (stopping upstream prompt issue),
// fails the tenant's queued prompts and waits out the ones already at
// the model, so nothing is in flight once it returns.
//
// Result-cache interplay: an exact hit replays the cached relation row
// by row (zero prompts, vt 0); a subsumed hit streams the residual
// plan's local evaluation; a miss streams the fresh execution while
// accumulating the relation. A miss leads the cache's singleflight for
// its key: concurrent identical queries, buffered or streamed, wait for
// the relation and replay it as an exact hit. The flight is settled the
// moment the executor reports io.EOF, before Finish; a stream closed
// before that settles it with an error, so the waiting callers retry
// rather than inherit the abandonment. Until io.EOF or Close the flight
// follows the consumer's pace (a wire server bounds a stalled reader
// with a write deadline), so a caller must not issue the same statement
// on the same goroutine while one of its streams is still open.
type Stream struct {
	s      *Session
	schema *schema.Schema
	cached CacheOutcome

	// Live execution state (nil when replaying a materialized result):
	// the opened operator tree, which Next pulls and Finish or Close
	// releases.
	op      physical.Operator
	tenant  *llm.Tenant
	plan    logical.Node
	cost    *optimizer.PlanCost
	metrics *physical.Metrics
	// acc accumulates delivered rows: the finished relation a drain
	// returns and a leader caches. explain renders plan once, at io.EOF.
	acc     *schema.Relation
	explain string

	// Replay state: exact hits and EXPLAIN deliver a materialized
	// relation whose report is known at open; an exact hit also carries
	// its entry's encoded-body slots.
	replay *schema.Relation
	idx    int
	rep    *Report
	hit    HitBody

	// lead is this stream's result-cache flight when it executes a miss;
	// entry is the cache entry io.EOF completes and settles it with.
	lead  *rescache.Lead
	entry *rescache.Entry

	eof      bool
	finished bool
	closed   bool
}

// errStreamAbandoned settles the flight of a leading stream closed
// before Finish; its followers retry.
var errStreamAbandoned = errors.New("core: stream closed before completion")

// errMemoStale settles the flight a memoized statement led when its
// rebuilt plan no longer matched the memo; its followers retry.
var errMemoStale = errors.New("core: memoized statement went stale")

// ErrStatement marks a statement the engine cannot execute as written:
// SQL that does not parse, or a statement other than SELECT and EXPLAIN.
// Query and QueryStream wrap such failures in it, so a server can answer
// them as the client's error.
var ErrStatement = errors.New("core: invalid statement")

// QueryStream executes sql for incremental row consumption. It accepts
// everything Query does; statements with no incremental production
// (EXPLAIN renders a finished plan tree) run buffered and replay.
//
// With the result cache on, a SELECT the runtime's statement memo holds
// skips the lexer, the parser, the logical build and the fingerprint
// whenever its table resolutions still replay: its result-cache key is
// the memoized fingerprint under the current stamp, and only a miss
// takes it through the front end (front). Every other statement starts
// there: a SELECT of a shape the shape memo holds is bound instead of
// parsed and built.
func (s *Session) QueryStream(ctx context.Context, sql string) (*Stream, error) {
	if m := s.rt.memo; m != nil {
		if e := m.Get(sql); e != nil && e.res.valid(s.rt) {
			return s.openMemo(ctx, e)
		}
	}
	return s.openStatement(ctx, sql)
}

// query is one SELECT ready to plan: its logical build, that build's
// canonical form and plan-cache template, and the table resolutions the
// build made. A SELECT becomes a query only in prepare (parsed and
// built) or bind (bound from the shape memo). Its template is nil when
// a bind runs without cost-based planning; the plan cache serves it only
// when its slots are distinct (choose).
type query struct {
	built      logical.Node
	canon      logical.Canonical
	tpl        *optimizer.Template
	res        resolutions
	truncating bool
}

// openStatement opens sql past the statement memo: a SELECT through the
// front end (front), an EXPLAIN buffered and replayed.
func (s *Session) openStatement(ctx context.Context, sql string) (*Stream, error) {
	q, ex, err := s.front(sql)
	switch {
	case err != nil:
		return nil, err
	case ex != nil:
		return s.runExplain(ctx, ex)
	}
	return s.openSelect(ctx, sql, q)
}

// front is the one way from statement text to a query. A SELECT of a
// shape the shape memo holds, whose resolutions replay and whose
// literals bind, is bound; any other statement is parsed, and a SELECT
// is prepared and its shape memoized (seenOnce on its first sight). An
// EXPLAIN comes back parsed, for runExplain to prepare its SELECT.
func (s *Session) front(sql string) (*query, *ast.Explain, error) {
	shape, lits, shapeErr := lexer.Shape(sql)
	memo := s.rt.shapes != nil && shapeErr == nil
	var seen *shapeEntry
	if memo {
		seen = s.rt.shapes.Get(shape)
		if e := seen; e != nil && e != seenOnce && e.res.valid(s.rt) {
			if q := s.bind(e, lits); q != nil {
				return q, nil, nil
			}
		}
	}
	stmt, plits, err := parser.ParseLiterals(sql)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrStatement, err)
	}
	switch stmt := stmt.(type) {
	case *ast.Explain:
		return nil, stmt, nil
	case *ast.Select:
		q, err := s.prepare(stmt)
		if err != nil {
			return nil, nil, err
		}
		switch {
		case !memo:
		case seen == nil:
			s.rt.shapes.Put(shape, seenOnce)
		default:
			if e := newShapeEntry(q, lits, plits); e != nil {
				s.rt.shapes.Put(shape, e)
			}
		}
		return q, nil, nil
	default:
		return nil, nil, fmt.Errorf("%w: only SELECT and EXPLAIN statements can be executed", ErrStatement)
	}
}

// prepare builds sel, recording its table resolutions, renders its
// canonical form and cuts its plan-cache template from that rendering.
func (s *Session) prepare(sel *ast.Select) (*query, error) {
	rec := &recordingResolver{rt: s.rt}
	built, err := logical.Build(sel, rec)
	if err != nil {
		return nil, err
	}
	canon := logical.Canonicalize(built)
	return &query{built: built, canon: canon, res: rec.res,
		tpl: optimizer.TemplateOf(canon, s.res.planKey), truncating: sel.Limit >= 0 || sel.Offset > 0}, nil
}

// bind returns the query of a statement of e's shape whose literal vector
// is lits, or nil when its literals do not bind (shapeEntry.values).
func (s *Session) bind(e *shapeEntry, lits []lexer.Literal) *query {
	vals, ok := e.values(lits)
	if !ok {
		return nil
	}
	q := &query{res: e.res, truncating: e.truncating}
	q.built, q.canon = e.skel.Bind(vals)
	if s.costBased() {
		q.tpl = e.tpl.Bind(q.canon, s.res.planKey)
	}
	return q
}

// openSelect opens one SELECT, consulting the runtime's result cache
// when it is on. Truncating statements — LIMIT, and OFFSET even without
// one (the builder lowers both to a Limit node) — are never stored and
// never exact-matched: a truncated relation's content depends on the
// executing plan's row order, so it must never be served as the query's
// one true result — the same observation rule the optimizer statistics
// follow (see observe). They do, however, participate as subsumption
// consumers: a cached LIMIT-free superset relation answers them with a
// local residual evaluation for zero prompts. An exact hit memoizes sql.
func (s *Session) openSelect(ctx context.Context, sql string, q *query) (*Stream, error) {
	rc := s.rt.resultCache
	if rc == nil {
		return s.openShaped(ctx, q, "")
	}
	// The build's components are stamped before execution, so a bind
	// landing mid-flight keys this result under the old epochs, where no
	// post-bind lookup can reach it.
	stamp := s.rt.stampFor(q.canon.Components)
	if q.truncating {
		return s.openShaped(ctx, q, stamp)
	}
	// The exact key is the result-affecting options prefix plus the
	// fingerprint of the built (pre-optimization) plan: literals kept,
	// table bindings folded in.
	key := rescache.Key{Fingerprint: s.res.key + q.canon.Fingerprint, Stamp: stamp}
	entry, lead, err := rc.Lookup(ctx, key)
	if err != nil {
		return nil, err
	}
	if lead == nil {
		s.rt.memo.Put(sql, &memoEntry{sql: sql,
			canon:  logical.Canonical{Fingerprint: q.canon.Fingerprint, Components: q.canon.Components},
			optsFP: s.res.key, key: key.Fingerprint, res: q.res})
		return s.replayHit(key, entry), nil
	}
	return s.openLead(ctx, q, stamp, lead)
}

// openMemo opens a memoized SELECT whose resolutions were just replayed:
// the stamp and the exact probe come straight from the memo entry. A hit
// replays the resident relation; a miss takes the statement through the
// front end (front) and leads the key's flight — unless a bind landed
// since the replay and the query no longer yields the memoized
// fingerprint, in which case the flight is released and the statement
// takes the unmemoized path. A session under the options prefix the
// entry was memoized with reuses its full key; any other concatenates
// its own.
func (s *Session) openMemo(ctx context.Context, e *memoEntry) (*Stream, error) {
	key := rescache.Key{Fingerprint: e.key, Stamp: s.rt.stampFor(e.canon.Components)}
	if s.res.key != e.optsFP {
		key.Fingerprint = s.res.key + e.canon.Fingerprint
	}
	entry, lead, err := s.rt.resultCache.Lookup(ctx, key)
	if err != nil {
		return nil, err
	}
	if lead == nil {
		return s.replayHit(key, entry), nil
	}
	if q, _, _ := s.front(e.sql); q != nil && q.canon.Fingerprint == e.canon.Fingerprint {
		return s.openLead(ctx, q, key.Stamp, lead)
	}
	lead.Settle(nil, errMemoStale)
	return s.openStatement(ctx, e.sql)
}

// replayHit opens an exact hit: the resident relation, replayed row by
// row, with the plan of the run that populated it and the entry's
// encoded-body slots.
func (s *Session) replayHit(key rescache.Key, entry *rescache.Entry) *Stream {
	return &Stream{s: s, schema: entry.Rel.Schema, cached: CacheExact, replay: entry.Rel,
		rep: &Report{Plan: entry.Plan, Cached: CacheExact},
		hit: HitBody{rc: s.rt.resultCache, key: key, entry: entry}}
}

// HitBody is an exact hit's handle on the encoded-body slots of the
// result-cache entry it replays (rescache.Entry.Body). The response of
// an exact hit is a pure function of the entry, so a server can encode
// it once and keep the bytes there, bounded by the result cache's byte
// budget and dropped with the entry.
type HitBody struct {
	rc    *rescache.Cache
	key   rescache.Key
	entry *rescache.Entry
}

// Cached returns the bytes kept in slot, or nil; keep is false once the
// slot declined a body (rescache.Entry.Body).
func (h *HitBody) Cached(slot int) (body []byte, keep bool) { return h.entry.Body(slot) }

// Attach offers body for slot and returns the bytes to serve: body, or
// the identical bytes an earlier attach kept (rescache.Cache.AttachBody).
func (h *HitBody) Attach(slot int, body []byte) []byte {
	return h.rc.AttachBody(h.key, h.entry, slot, body)
}

// Hit returns the encoded-body handle of an exact hit, nil for every
// other stream.
func (st *Stream) Hit() *HitBody {
	if st.hit.entry == nil {
		return nil
	}
	return &st.hit
}

// openLead opens the execution of a result-cache miss whose flight this
// caller leads. An open that fails — or panics — settles the flight
// here; once open, the stream owns it.
func (s *Session) openLead(ctx context.Context, q *query, stamp string, lead *rescache.Lead) (*Stream, error) {
	var st *Stream
	defer func() {
		if st == nil {
			lead.Settle(nil, errStreamAbandoned)
		}
	}()
	st, err := s.openShaped(ctx, q, stamp)
	if err != nil {
		return nil, err
	}
	st.lead = lead
	st.entry = &rescache.Entry{Tables: q.canon.Components}
	if shape := q.canon.Shape; shape != nil && shape.Producer && !s.opts.Optimizer.PromptPushdown {
		// Producer-shaped plans (Project over base filters, no hidden
		// columns) retain their decomposition so this entry can answer
		// subsumed queries. Prompt pushdown merges predicates into the
		// retrieval prompts and can change observable results, so
		// pushdown sessions neither produce nor consume subsumption
		// entries.
		st.entry.Prod = &rescache.Producer{
			Opts:      s.res.key,
			FromKey:   shape.FromKey,
			FromLabel: shape.FromLabel,
			Conjuncts: make([]string, len(shape.Conjuncts)),
		}
		for i := range shape.Conjuncts {
			st.entry.Prod.Conjuncts[i] = shape.Conjuncts[i].Text
		}
	}
	return st, nil
}

// openShaped plans one SELECT with residual plans over cached relations
// competing as candidates, and opens the winner.
func (s *Session) openShaped(ctx context.Context, q *query, stamp string) (*Stream, error) {
	plan, cost, err := s.choose(q, s.residualCandidates(q.canon, stamp))
	if err != nil {
		return nil, err
	}
	return s.openPlan(ctx, q, plan, cost)
}

// openPlan opens one planned SELECT. A residual winner streams locally
// over its cached relation; when that entry was evicted between costing
// and execution, q is planned afresh. Everything else executes live.
func (s *Session) openPlan(ctx context.Context, q *query, plan logical.Node, cost *optimizer.PlanCost) (*Stream, error) {
	if cs := logical.FindCachedScan(plan); cs != nil {
		st, err := s.openResidual(plan, cost, cs)
		if !errors.Is(err, errCachedEntryGone) {
			return st, err
		}
		if plan, cost, err = s.choose(q, nil); err != nil {
			return nil, err
		}
	}
	return s.openLive(ctx, plan, cost)
}

// openResidual streams a winning residual plan's local evaluation over
// its cached relation: no scheduler tenant, no model client, zero
// prompts. The cached rows were cleaned by the producing run, so only
// the relational operators run here.
func (s *Session) openResidual(plan logical.Node, cost *optimizer.PlanCost, cs *logical.CachedScan) (*Stream, error) {
	entry, ok := s.rt.resultCache.Subsumed(rescache.Key{Fingerprint: cs.Source, Stamp: cs.Stamp})
	if !ok {
		return nil, errCachedEntryGone
	}
	// A residual plan reads one cached relation: cs's, the entry's.
	op, err := physical.Compile(plan, func(string) (*schema.Relation, error) { return entry.Rel, nil })
	if err != nil {
		return nil, err
	}
	return s.execute(op, &physical.Context{}, plan, cost, CacheSubsumed)
}

// openLive compiles one plan against the base tables and opens it: the
// query's routed transport, the verifier, and a tenant on the
// engine-global scheduler in the session's admission class and execution
// policy, whose prompts fair-share the per-endpoint worker budget with
// every other in-flight query while the tenant keeps the query's
// accounting.
func (s *Session) openLive(ctx context.Context, plan logical.Node, cost *optimizer.PlanCost) (*Stream, error) {
	var data func(table string) (*schema.Relation, error)
	if db := s.rt.database(); db != nil {
		data = db.Relation
	}
	op, err := physical.Compile(plan, data)
	if err != nil {
		return nil, err
	}
	tenant := s.openTenant(ctx)
	st, err := s.execute(op, s.liveContext(tenant), plan, cost, CacheNone)
	if err != nil {
		tenant.Close()
		tenant.Quiesce()
	}
	return st, err
}

// liveContext is the execution context of a plan over the base tables
// that issues its prompts through tenant, under the session's resolved
// options.
func (s *Session) liveContext(tenant *llm.Tenant) *physical.Context {
	return &physical.Context{
		Route:             s.res.route,
		Prompts:           s.rt.builder,
		Cleaner:           s.res.cleaner,
		MaxScanIterations: s.opts.MaxScanIterations,
		Scheduler:         tenant,
		Verifier:          s.res.verifier,
		Templates:         s.res.templates,
	}
}

// execute opens a compiled operator tree under pctx, collecting its
// per-operator actuals, and hands it to a Stream that drives it row by
// row; the Stream owns pctx's tenant, if any. A failed Open releases the
// tree.
func (s *Session) execute(op physical.Operator, pctx *physical.Context, plan logical.Node, cost *optimizer.PlanCost, cached CacheOutcome) (*Stream, error) {
	pctx.Metrics = physical.NewMetrics()
	if err := op.Open(pctx); err != nil {
		op.Close()
		return nil, err
	}
	out := op.Schema()
	return &Stream{
		s:       s,
		schema:  out,
		cached:  cached,
		op:      op,
		tenant:  pctx.Scheduler,
		plan:    plan,
		cost:    cost,
		metrics: pctx.Metrics,
		acc:     schema.NewRelation(out.Clone()),
	}, nil
}

// Schema reports the stream's output columns (available before the
// first row — the header frame of a wire protocol).
func (st *Stream) Schema() *schema.Schema { return st.schema }

// Cached reports how the result cache participated, known at open time.
func (st *Stream) Cached() CacheOutcome { return st.cached }

// Next pulls one row with its virtual availability time; io.EOF ends
// the stream. Rows are read-only: a replayed row belongs to the result
// cache's resident relation, and a live row becomes part of the relation
// this stream leaves resident.
func (st *Stream) Next() (schema.Tuple, llm.VTime, error) {
	if st.closed {
		return nil, 0, errors.New("core: stream closed")
	}
	if st.replay != nil {
		if st.idx >= len(st.replay.Rows) {
			st.eof = true
			return nil, 0, io.EOF
		}
		t := st.replay.Rows[st.idx]
		st.idx++
		return t, 0, nil
	}
	t, vt, err := st.op.Next()
	if err == io.EOF && !st.eof {
		st.eof = true
		st.explain = logical.Explain(st.plan)
		if st.lead != nil {
			// The relation is complete: settle the flight now, so followers
			// wait on the execution, not on how fast this stream's consumer
			// drains the last frames and calls Finish.
			st.entry.Rel, st.entry.Plan = st.acc, st.explain
			st.lead.Settle(st.entry, nil)
		}
	}
	if err != nil {
		return nil, 0, err
	}
	st.acc.Append(t)
	return t, vt, nil
}

// Finish settles the completed stream: it releases the execution,
// quiesces the tenant (abandoned futures were issued and must be
// accounted), builds the Report and feeds the optimizer statistics.
// Only valid after Next returned io.EOF (which already settled any
// result-cache flight the stream leads).
func (st *Stream) Finish() (*Report, error) {
	if st.finished {
		return st.rep, nil
	}
	if st.closed {
		return nil, errStreamAbandoned
	}
	if !st.eof {
		st.Close()
		return nil, errors.New("core: stream finished before io.EOF")
	}
	st.finished = true
	st.closed = true
	if st.replay != nil {
		return st.rep, nil
	}
	st.op.Close()
	if st.tenant != nil {
		st.tenant.Quiesce()
	}
	rep := &Report{Plan: st.explain, Estimate: st.cost, Metrics: st.metrics, Cached: st.cached}
	if st.tenant != nil {
		// The tenant is the query's accounting. Its simulated wall-clock
		// is the makespan as if it ran alone against the full worker
		// budget (exact per-query attribution under concurrency), or its
		// wave sum under stop-and-go.
		rep.Stats = st.tenant.Usage()
		rep.Sched = st.tenant.Stats()
		st.tenant.Close()
	}
	if st.cached == CacheNone {
		st.s.observe(st.plan, st.metrics)
	}
	st.rep = rep
	return rep, nil
}

// Close releases the stream. Safe (and required) mid-stream: the
// operator close cascade stops upstream prompt issue, closing the tenant
// fails its queued prompts without perturbing other tenants, and the
// prompts already at the model are waited out — a disconnected client
// frees its slots and leaves nothing in flight. A flight this stream
// leads is settled with an error so its followers retry. Idempotent; a
// no-op after Finish.
func (st *Stream) Close() {
	if st.lead != nil {
		st.lead.Settle(nil, errStreamAbandoned) // no-op once Finish settled it
	}
	if st.closed {
		return
	}
	st.closed = true
	if st.op != nil {
		st.op.Close()
	}
	if st.tenant != nil {
		st.tenant.Close()
		st.tenant.Quiesce()
	}
}

// drain consumes the stream to io.EOF and settles it — the buffered
// consumption of the one query path. The relation is the one the stream
// accumulated or replayed, handed back without a copy.
func (st *Stream) drain() (*schema.Relation, *Report, error) {
	for {
		_, _, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
	}
	rep, err := st.Finish()
	if err != nil {
		return nil, nil, err
	}
	if st.replay != nil {
		return st.replay, rep, nil
	}
	return st.acc, rep, nil
}
