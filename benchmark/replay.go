package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/logical"
	"repro/internal/simllm"
	"repro/internal/spider"
	"repro/internal/sql/parser"
)

// tracedModel wraps the simulated model, the innermost llm.Client: its
// span is the fixture's own time, reported so it can be subtracted, and
// the prompts it sees are the ones the per-prompt overhead probes reuse.
type tracedModel struct {
	inner llm.Client
	rec   *recorder // nil = untraced pass

	mu      sync.Mutex
	prompts []string // the first maxProbePrompts seen
}

// maxProbePrompts bounds how many captured prompts the per-prompt
// overhead probes replay.
const maxProbePrompts = 4000

func (m *tracedModel) Name() string { return m.inner.Name() }

func (m *tracedModel) Complete(ctx context.Context, prompt string) (string, error) {
	if m.rec == nil {
		return m.inner.Complete(ctx, prompt)
	}
	request, parent := m.rec.current()
	id := m.rec.begin("llm.complete", parent, request)
	out, err := m.inner.Complete(ctx, prompt)
	m.rec.end(id)
	m.mu.Lock()
	if len(m.prompts) < maxProbePrompts {
		m.prompts = append(m.prompts, prompt)
	}
	m.mu.Unlock()
	return out, err
}

// engine is an in-process runtime built with the options the workload's
// server flags produce, over wrapped models.
type engine struct {
	rt     *core.Runtime
	models []*tracedModel
}

func newEngine(w workload, runner *bench.Runner, rec *recorder) (*engine, error) {
	opts := core.DefaultOptions()
	opts.ResultCacheEnabled = true // galois-serve's default
	opts.CacheSize = w.CacheSize
	opts.ResultCacheSize = w.ResultCacheSize

	e := &engine{}
	wrap := func(p simllm.Profile, seed int64) *tracedModel {
		m := simllm.New(p, runner.World, seed)
		m.RegisterQuestions(spider.QuestionBank())
		tm := &tracedModel{inner: m, rec: rec}
		e.models = append(e.models, tm)
		return tm
	}
	if !w.Routed {
		rt, err := runner.Runtime(wrap(simllm.ChatGPT, runner.Seed), opts)
		e.rt = rt
		return e, err
	}
	// What bench.Runner.RuntimeFromConfig does, over wrapped models.
	cfg, err := config.Load(configPath)
	if err != nil {
		return nil, err
	}
	defs := make([]core.BackendDef, 0, len(cfg.Backends))
	for _, b := range cfg.Backends {
		profile, ok := simllm.ProfileByName(b.Model)
		if !ok {
			return nil, fmt.Errorf("%s: backend %q: unknown model %q", configPath, b.Name, b.Model)
		}
		seed := runner.Seed
		if b.Seed != 0 {
			seed = b.Seed
		}
		defs = append(defs, core.BackendDef{
			Name: b.Name, Client: wrap(profile, seed), Workers: b.Workers,
			CostWeight: b.Cost, SpeedFactor: b.Speed, Fallback: b.Fallback,
		})
	}
	if e.rt, err = core.NewRuntimeWithBackends(defs, cfg.Default, cfg.Routes, opts); err != nil {
		return nil, err
	}
	e.rt.AttachDB(runner.DB)
	for _, name := range bench.LLMTables {
		if err := e.rt.BindLLMTable(runner.World.Table(name).Def); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *engine) query(ctx context.Context, r *request) (*core.Report, error) {
	sess := e.rt.NewSession()
	if r.Batch {
		o := sess.Options()
		o.AdmissionClass = llm.ClassBatch.String()
		sess.SetOptions(o)
	}
	_, rep, err := sess.Query(ctx, r.SQL)
	return rep, err
}

func (e *engine) queryAll(ctx context.Context, sqls []string) error {
	for _, sql := range sqls {
		if _, err := e.query(ctx, &request{SQL: sql}); err != nil {
			return fmt.Errorf("%q: %w", sql, err)
		}
	}
	return nil
}

// pass is one single-client in-process replay of a request list.
type pass struct {
	engine  *engine
	queryNS []time.Duration // Session.Query, per request
	// chooseNS is the optimizer's own share of Session.Plan, per request
	// (traced pass only).
	chooseNS []time.Duration
	cached   []core.CacheOutcome
	prompts  int
	mallocs  uint64 // process-wide, over the replay loop
	bytes    uint64
	// openWarm and flush time Runtime.OpenStore on the filled directory
	// and Runtime.FlushStore after the replay (WarmRestart workloads).
	openWarm, flush time.Duration
}

// storeConfig is what galois-serve passes for -data-dir with its other
// store flags at their defaults.
func storeConfig(dir string) core.StoreConfig {
	return core.StoreConfig{Dir: dir, SnapshotInterval: time.Minute}
}

// replayInProcess runs the list through the layers' public functions on
// a fresh engine set up the way a repetition's server is. With a
// recorder it also calls parse, build and plan directly after each
// query, under their own spans; without one it runs Session.Query alone.
func replayInProcess(ctx context.Context, w workload, runner *bench.Runner, reqs []request, rec *recorder) (*pass, error) {
	p := &pass{queryNS: make([]time.Duration, len(reqs)), cached: make([]core.CacheOutcome, len(reqs))}
	if rec != nil {
		p.chooseNS = make([]time.Duration, len(reqs))
	}
	var err error
	if p.engine, err = newEngine(w, runner, rec); err != nil {
		return nil, err
	}
	if w.WarmRestart {
		dir, err := os.MkdirTemp(buildDir, "replay-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		// First generation: fill the store and drain it.
		if err := p.engine.rt.OpenStore(storeConfig(dir)); err != nil {
			return nil, err
		}
		if err := p.engine.queryAll(ctx, w.Fill()); err != nil {
			return nil, err
		}
		if err := p.engine.rt.CloseStore(); err != nil {
			return nil, err
		}
		// Second generation: the warm load the replay then runs on.
		if p.engine, err = newEngine(w, runner, rec); err != nil {
			return nil, err
		}
		begin := time.Now()
		if err := p.engine.rt.OpenStore(storeConfig(dir)); err != nil {
			return nil, err
		}
		p.openWarm = time.Since(begin)
	}
	if w.Warmup != nil {
		if err := p.engine.queryAll(ctx, w.Warmup()); err != nil {
			return nil, err
		}
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range reqs {
		r := &reqs[i]
		root := rec.begin("request", 0, i)
		q := rec.begin("core.query", root, i)
		rec.setCurrent(i, q)
		begin := time.Now()
		rep, err := p.engine.query(ctx, r)
		p.queryNS[i] = time.Since(begin)
		rec.end(q)
		if err == nil && rec != nil {
			p.chooseNS[i], err = traceFrontEnd(p.engine.rt, r.SQL, rec, root, i)
		}
		rec.end(root)
		if err != nil {
			return nil, fmt.Errorf("in-process replay: %q: %w", r.SQL, err)
		}
		p.cached[i] = rep.Cached
		p.prompts += rep.Stats.Prompts
	}
	runtime.ReadMemStats(&m1)
	p.mallocs, p.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc

	if w.WarmRestart {
		begin := time.Now()
		if err := p.engine.rt.FlushStore(); err != nil {
			return nil, err
		}
		p.flush = time.Since(begin)
		if err := p.engine.rt.CloseStore(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// traceFrontEnd calls the layers in front of the executor directly, one
// span each, right after the request's query: the parser, the logical
// build with the two canonical forms every result-cache probe derives
// from it, and the whole planner. It returns the optimizer's own share
// of the planner: Session.Plan parses and builds again — warm, because
// both just ran — so that share is plan minus a warm parse and build,
// timed once more after it.
func traceFrontEnd(rt *core.Runtime, sql string, rec *recorder, root, request int) (time.Duration, error) {
	id := rec.begin("sql.parse", root, request)
	sel, err := parser.ParseSelect(sql)
	rec.end(id)
	if err != nil {
		return 0, err
	}
	sess := rt.NewSession()
	id = rec.begin("logical.build", root, request)
	built, err := logical.Build(sel, sess)
	if err == nil {
		_ = logical.Fingerprint(built)
		_ = logical.Decompose(built)
	}
	rec.end(id)
	if err != nil {
		return 0, err
	}
	id = rec.begin("core.plan", root, request)
	begin := time.Now()
	_, err = sess.Plan(sql)
	plan := time.Since(begin)
	rec.end(id)
	if err != nil {
		return 0, err
	}
	begin = time.Now()
	if sel, err = parser.ParseSelect(sql); err == nil {
		_, err = logical.Build(sel, sess)
	}
	return plan - time.Since(begin), err
}

// instantClient answers at once: what remains of a Submit+Wait round
// trip is the scheduler's own cost.
type instantClient struct{}

func (instantClient) Name() string { return "instant" }
func (instantClient) Complete(context.Context, string) (string, error) {
	return "ok", nil
}

// schedulerCost is the mean wall time of TenantFor + Submit + Wait per
// prompt on an idle scheduler with an instant client.
func schedulerCost(ctx context.Context, prompts []string) time.Duration {
	if len(prompts) == 0 {
		return 0
	}
	s := llm.NewScheduler(nil, llm.DefaultBatchWorkers)
	begin := time.Now()
	t := s.TenantFor(ctx, "probe", llm.ClassInteractive, 1)
	for _, p := range prompts {
		_, _, _ = t.Submit(instantClient{}, p, 0).Wait()
	}
	t.Close()
	return time.Since(begin) / time.Duration(len(prompts))
}

// stackCost is the mean extra wall time per prompt of the runtime's
// transport stack (backend accounting, resilient client) over the raw
// model, on the prompts the replay actually issued. e is an untraced
// engine, so neither side pays for the recorder.
func stackCost(ctx context.Context, e *engine, prompts []string) (time.Duration, error) {
	if len(prompts) == 0 {
		return 0, nil
	}
	stack := e.rt.Registry().Default()
	raw := stack.Raw()
	var rawNS, stackNS time.Duration
	for _, p := range prompts {
		begin := time.Now()
		if _, err := raw.Complete(ctx, p); err != nil {
			return 0, err
		}
		mid := time.Now()
		if _, err := stack.Complete(ctx, p); err != nil {
			return 0, err
		}
		rawNS += mid.Sub(begin)
		stackNS += time.Since(mid)
	}
	return (stackNS - rawNS) / time.Duration(len(prompts)), nil
}

// parseAllocs is the mean number of heap allocations parser.Parse makes
// per statement of the list.
func parseAllocs(reqs []request) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range reqs {
		_, _ = parser.Parse(reqs[i].SQL)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(reqs))
}

// p50us and pctUS summarize durations in microseconds (0 when empty, so
// a workload without the class reports a plain zero).
func p50us(ds []time.Duration) float64 { return pctUS(ds, 50) }

func pctUS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = us(d)
	}
	sort.Float64s(xs)
	return tailPercentile(xs, p)
}

func pctOrZero(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return percentile(sorted, p)
}

// runTraced produces the per-layer metrics of one workload. Counts come
// from one ordinary closed-loop repetition's /stats deltas; serve-layer
// timings from a single-client HTTP replay; everything below the HTTP
// layer from two single-client in-process replays of the same list, one
// with the span recorder off and one with it on.
func runTraced(ctx context.Context, cfg *settings, w workload, seed int64, seconds int) (*runResult, error) {
	reqs := w.Generate(seed, requestCount(w, seconds, cfg.scale))
	shapes := shapesOf(reqs)
	res := newResult(w, "traced", reqs)

	loaded, err := measure(ctx, cfg, w, reqs, shapes, cfg.clients)
	if err != nil {
		return nil, fmt.Errorf("%s closed-loop repetition: %w", w.Name, err)
	}
	single, err := measure(ctx, cfg, w, reqs, shapes, 1)
	if err != nil {
		return nil, fmt.Errorf("%s single-client repetition: %w", w.Name, err)
	}
	if err := cfg.oracle.prepare(ctx, oracleStatements(reqs)); err != nil {
		return nil, err
	}
	le := evaluate(cfg.oracle, reqs, loaded, res)
	crossCheck(res, loaded, le, len(reqs), cfg.clients)
	se := evaluate(cfg.oracle, reqs, single, res)
	crossCheck(res, single, se, len(reqs), 1)

	plain, err := replayInProcess(ctx, w, cfg.oracle.runner, reqs, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	traced, err := replayInProcess(ctx, w, cfg.oracle.runner, reqs, rec)
	if err != nil {
		return nil, err
	}
	spans := rec.snapshot()

	m := layerMetrics{}
	m.serve(res, le, se, plain, len(reqs))
	m.counts(loaded, le, res.shares.Near*float64(len(reqs)))
	m.engine(reqs, spans, plain, traced)

	// Per-prompt overheads, on the prompts the traced replay issued.
	var prompts []string
	for _, tm := range traced.engine.models {
		prompts = append(prompts, tm.prompts...)
	}
	stack, err := stackCost(ctx, plain.engine, prompts)
	if err != nil {
		return nil, err
	}
	m["llm.stack_us_per_prompt"] = us(stack)
	m["llm.sched_us_per_prompt"] = us(schedulerCost(ctx, prompts))

	for _, def := range perLayer {
		res.metrics[def.Name] = metric{Value: m[def.Name], Unit: def.Unit}
	}
	for name := range m {
		if _, ok := perLayerByName[name]; !ok {
			panic("benchmark: undeclared per-layer metric " + name)
		}
	}

	for _, s := range single.phase.samples {
		rec.add("serve.request", s.req, s.start, s.start+s.latency)
	}
	spans = rec.snapshot()
	path, err := writeTrace(w.Name, seed, spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "benchmark: %d spans written to %s\n", len(spans), path)
	return res, nil
}

// layerMetrics collects the per-layer metrics of a traced run by name;
// a metric no phase of the workload produces stays 0.
type layerMetrics map[string]float64

// serve fills the metrics of the HTTP layer: the closed-loop tail, then
// the single-client replay held against the in-process query.
func (m layerMetrics) serve(res *runResult, loaded, single *evaluation, plain *pass, n int) {
	m["serve.wall_p99_ms"] = tailPercentile(loaded.latenciesMS, 99)
	m["serve.request_us_p50"] = 1000 * pctOrZero(single.latenciesMS, 50)
	m["serve.overhead_us_p50"] = m["serve.request_us_p50"] - p50us(plain.queryNS)
	m["serve.resp_bytes_per_query"] = single.respBytes / float64(n)
	m["serve.stream_wall_p50_ms"] = pctOrZero(single.streamMS, 50)
	m["serve.stream_first_row_vt_ms"] = pctOrZero(single.firstRowVT, 50)
	m["serve.batch_wall_p50_ms"] = pctOrZero(single.batchMS, 50)
	m["serve.failed_share"] = float64(res.failed) / float64(res.attempted)
}

// counts copies the closed-loop repetition's /stats deltas; near is the
// number of near-miss requests in the list.
func (m layerMetrics) counts(loaded *repetition, e *evaluation, near float64) {
	c := loaded.counts
	for _, k := range []string{
		"serve.shed", "serve.timeouts", "serve.admission_decreases", "serve.max_active",
		"rescache.exact_hits", "rescache.subsumed_hits", "rescache.misses", "rescache.entries_end", "rescache.bytes_end",
		"llm.cache_hits", "llm.cache_misses", "llm.cache_entries_end",
		"llm.sched_drained_interactive", "llm.sched_drained_batch", "llm.retries", "llm.faults", "llm.failovers",
		"llm.backend_prompts.cheap", "llm.backend_prompts.strong",
		"store.warm_relations", "store.dropped_stale", "store.errors",
	} {
		m[k] = c[k]
	}
	m["rescache.hit_ratio"] = ratio(c["rescache.exact_hits"]+c["rescache.subsumed_hits"], c["rescache.misses"])
	m["llm.cache_hit_ratio"] = ratio(c["llm.cache_hits"], c["llm.cache_misses"])
	m["store.bytes_on_disk"] = float64(loaded.diskSize)
	if near > 0 {
		m["rescache.near_subsumed_share"] = float64(e.nearSubsumed) / near
	}
}

// engine fills everything below the HTTP layer from the two in-process
// replays: absolute query times and allocations from the untraced pass,
// the split by layer from the traced pass's spans.
func (m layerMetrics) engine(reqs []request, spans []span, plain, traced *pass) {
	n := float64(len(reqs))
	self := selfTimes(spans)
	byRequest := func(name string) []time.Duration {
		out := make([]time.Duration, len(reqs))
		for _, s := range spans {
			if s.Name == name {
				out[s.Request] = s.dur()
			}
		}
		return out
	}
	plan := byRequest("core.plan")
	m["sql.parse_us_p50"] = p50us(byRequest("sql.parse"))
	m["sql.parse_allocs"] = parseAllocs(reqs)
	m["logical.build_us_p50"] = p50us(byRequest("logical.build"))
	m["optimizer.choose_us_p50"] = p50us(traced.chooseNS)

	var exact, subsumed, miss, execSelf, model []time.Duration
	var querySelf, queryWall, modelBusy time.Duration
	for _, s := range spans {
		switch s.Name {
		case "llm.complete":
			model = append(model, s.dur())
			modelBusy += s.dur()
		case "core.query":
			queryWall += s.dur()
			querySelf += self[s.ID]
			switch traced.cached[s.Request] {
			case core.CacheExact:
				exact = append(exact, s.dur())
			case core.CacheSubsumed:
				subsumed = append(subsumed, s.dur())
			default:
				miss = append(miss, s.dur())
				execSelf = append(execSelf, self[s.ID]-plan[s.Request])
			}
		}
	}
	m["rescache.exact_us_p50"] = p50us(exact)
	m["rescache.subsumed_us_p50"] = p50us(subsumed)
	m["core.miss_us_p50"] = p50us(miss)
	m["core.exec_self_us_p50"] = p50us(execSelf)
	m["core.query_us_p50"] = p50us(plain.queryNS)
	m["core.query_us_p99"] = pctUS(plain.queryNS, 99)
	m["core.allocs_per_query"] = float64(plain.mallocs) / n
	m["core.bytes_per_query"] = float64(plain.bytes) / n
	m["simllm.complete_us_p50"] = p50us(model)
	m["simllm.busy_us_per_query"] = us(modelBusy) / n
	if traced.prompts > 0 {
		m["core.self_us_per_prompt"] = us(querySelf) / float64(traced.prompts)
	}
	m["store.open_warm_ms"] = ms(plain.openWarm)
	m["store.flush_ms"] = ms(plain.flush)

	// What qualifies the traced numbers: the recorder's cost on the
	// traced span, and whether the spans account for its wall time (100
	// unless a model call outlived or escaped the query that caused it).
	var plainWall, tracedWall time.Duration
	for i := range reqs {
		plainWall += plain.queryNS[i]
		tracedWall += traced.queryNS[i]
	}
	m["trace.overhead_pct"] = 100 * float64(tracedWall-plainWall) / float64(plainWall)
	m["trace.self_sum_pct"] = 100 * float64(querySelf+unclippedModelTime(spans)) / float64(queryWall)
}

// unclippedModelTime is the time the llm.complete spans of each query
// cover, overlaps counted once but not clipped to the query's interval.
func unclippedModelTime(spans []span) time.Duration {
	children := map[int][]interval{}
	for _, s := range spans {
		if s.Name == "llm.complete" {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	var total int64
	for _, ivs := range children {
		total += unionLength(ivs)
	}
	return time.Duration(total)
}
