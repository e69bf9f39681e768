package physical

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clean"
	"repro/internal/llm"
	"repro/internal/logical"
	"repro/internal/prompt"
	"repro/internal/schema"
	"repro/internal/sql/ast"
	"repro/internal/value"
)

// pipelinedCtx builds a Context running the streaming policy on its own
// scheduler.
func pipelinedCtx(ctx context.Context, client llm.Client, workers, buffer int) *Context {
	b := prompt.NewBuilder()
	b.IncludePreamble = false
	return &Context{
		Route:             routeTo(client),
		Prompts:           b,
		Cleaner:           clean.New(clean.DefaultOptions()),
		MaxScanIterations: 5,
		Scheduler:         testTenant(ctx, nil, workers, false),
		PipelineBuffer:    buffer,
	}
}

// townClient scripts a three-town world: the scan finds Alpha, Beta and
// Gamma; the filter keeps the two big ones; the fetch answers their
// populations.
func townClient() *scriptedLLM {
	return (&scriptedLLM{}).
		on("Do not repeat", "Done").
		on("List the names of all towns", "Alpha\nBeta\nGamma").
		on("Has town Alpha population more than 1000000", "yes").
		on("Has town Beta population more than 1000000", "yes").
		on("Has town Gamma population more than 1000000", "no").
		on("population of the town Alpha", "1.2 million").
		on("population of the town Beta", "2,300,000")
}

// townTree builds scan → LLM filter (population > 1M) → fetch population:
// the multi-operator prompt chain the pipelined executor overlaps.
func townTree(t *testing.T) *llmFetchAttrOp {
	t.Helper()
	def := townDef()
	scan := logical.NewScan(def, "t", "LLM")
	return filterFetch(t, &llmKeyScanOp{scan: scan, out: scan.Schema()}, scan)
}

// filterFetch puts an LLM filter (population > 1M), then a population
// fetch, over input, which produces the keys of scan.
func filterFetch(t *testing.T, input Operator, scan *logical.Scan) *llmFetchAttrOp {
	t.Helper()
	cond := &ast.Binary{
		Op:    ">",
		Left:  &ast.ColumnRef{Table: "t", Name: "population"},
		Right: &ast.Literal{Val: value.Int(1000000)},
	}
	filter := &logical.LLMFilter{Input: scan, Table: scan.Table, Binding: "t", Cond: logical.NewConjunct(cond), KeyCol: 0}
	fa, err := logical.NewFetchAttr(filter, scan.Table, "t", "population", 0)
	if err != nil {
		t.Fatal(err)
	}
	return &llmFetchAttrOp{node: fa, input: &llmFilterOp{node: filter, input: input}, out: fa.Schema()}
}

// TestPipelinedMatchesStopAndGo: the streaming policy must produce
// bit-identical results with the same prompts as the stop-and-go policy,
// at strictly lower simulated latency (the waves overlap).
func TestPipelinedMatchesStopAndGo(t *testing.T) {
	// Stop-and-go reference.
	legacyCtx := llmCtx(townClient())
	legacyCtx.Verifier = townClient()
	want, err := Run(legacyCtx, townTree(t))
	if err != nil {
		t.Fatal(err)
	}
	legacyLat := legacyCtx.Scheduler.Stats().Makespan()
	legacyPrompts := legacyCtx.Scheduler.Usage().Prompts

	// Streaming run.
	pctx := pipelinedCtx(context.Background(), townClient(), 2, 4)
	pctx.Verifier = townClient()
	got, err := Run(pctx, townTree(t))
	if err != nil {
		t.Fatal(err)
	}

	if got.String() != want.String() {
		t.Errorf("pipelined result diverged:\nstop-and-go:\n%s\npipelined:\n%s", want.String(), got.String())
	}
	if got.Cardinality() != 2 {
		t.Errorf("rows = %d, want 2:\n%s", got.Cardinality(), got.String())
	}
	if pipePrompts := pctx.Scheduler.Usage().Prompts; pipePrompts != legacyPrompts {
		t.Errorf("pipelined issued %d prompts, stop-and-go %d", pipePrompts, legacyPrompts)
	}
	makespan := pctx.Scheduler.Stats().Makespan()
	if makespan == 0 || makespan >= legacyLat {
		t.Errorf("pipelined makespan %v must be positive and below stop-and-go %v", makespan, legacyLat)
	}
}

// TestPipelinedVTimePropagation: downstream prompts are anchored to
// their upstream chain, so the critical path spans scan → filter → fetch
// and is longer than any single prompt.
func TestPipelinedVTimePropagation(t *testing.T) {
	pctx := pipelinedCtx(context.Background(), townClient(), 8, 4)
	if _, err := Run(pctx, townTree(t)); err != nil {
		t.Fatal(err)
	}
	// 8 workers: with every prompt independent the span would be one
	// prompt latency; the staged chain forces list page → filter → fetch
	// in sequence, so the span must cover at least three per-prompt bases.
	st := pctx.Scheduler.Stats()
	span := st.CriticalPath
	if span < 3*420*time.Millisecond {
		t.Errorf("critical path %v too short for a 3-deep prompt chain", span)
	}
	var work time.Duration
	for _, w := range st.Work {
		work += w
	}
	if span > work {
		t.Errorf("critical path %v cannot exceed aggregate work %v", span, work)
	}
}

// pagingLLM invents a fresh town on every list page, forever.
type pagingLLM struct {
	mu    sync.Mutex
	pages int
}

func (d *pagingLLM) Name() string { return "paging" }
func (d *pagingLLM) Complete(ctx context.Context, p string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pages++
	return fmt.Sprintf("Town%d", d.pages), nil
}

func (d *pagingLLM) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pages
}

// TestPipelinedLimitStopsUpstream: once a downstream LIMIT is satisfied,
// closing the tree must stop the key scan from issuing further
// "more results" iterations (bounded by the pipeline buffer).
func TestPipelinedLimitStopsUpstream(t *testing.T) {
	client := &pagingLLM{}
	pctx := pipelinedCtx(context.Background(), client, 2, 2)
	pctx.MaxScanIterations = 50

	scan := logical.NewScan(townDef(), "t", "LLM")
	op := &limitOp{input: &llmKeyScanOp{scan: scan, out: scan.Schema()}, n: 3, offset: 0}
	rel, err := Run(pctx, op)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 3 {
		t.Fatalf("rows = %d, want 3", rel.Cardinality())
	}
	// 3 consumed + buffer 2 + one blocked send + one in flight: far below
	// the 50-iteration cap a stop-and-go scan would burn.
	if n := client.count(); n > 10 {
		t.Errorf("LIMIT 3 with buffer 2 issued %d scan pages, early termination failed", n)
	}
}

// TestStopAndGoLimitRunsFullScan: under the stop-and-go policy a
// satisfied LIMIT — LIMIT 0 included — does not cut the scan short:
// every page up to the iteration cap is issued.
func TestStopAndGoLimitRunsFullScan(t *testing.T) {
	for _, n := range []int{0, 3} {
		client := &pagingLLM{}
		c := llmCtx(&scriptedLLM{})
		c.Route = routeTo(client)
		c.MaxScanIterations = 50

		scan := logical.NewScan(townDef(), "t", "LLM")
		op := &limitOp{input: &llmKeyScanOp{scan: scan, out: scan.Schema()}, n: n, offset: 0}
		rel, err := Run(c, op)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Cardinality() != n {
			t.Fatalf("LIMIT %d: rows = %d", n, rel.Cardinality())
		}
		if pages := client.count(); pages != 50 {
			t.Errorf("stop-and-go LIMIT %d issued %d scan pages, want the full 50", n, pages)
		}
	}
}

// gateOp yields its first row at once and each later one only after
// wait returns.
type gateOp struct {
	out  *schema.Schema
	rows []schema.Tuple
	wait func()
	next int
}

func (g *gateOp) Schema() *schema.Schema { return g.out }
func (g *gateOp) Open(*Context) error    { return nil }
func (g *gateOp) Close() error           { return nil }
func (g *gateOp) Next() (schema.Tuple, llm.VTime, error) {
	if g.next >= len(g.rows) {
		return nil, 0, io.EOF
	}
	if g.next > 0 {
		g.wait()
	}
	g.next++
	return g.rows[g.next-1], 0, nil
}

// TestClosedStreamIssuesNoPrompts: once its consumer has closed it, a
// streaming fetch issues no prompt for an upstream row that arrives
// afterwards.
func TestClosedStreamIssuesNoPrompts(t *testing.T) {
	client := (&scriptedLLM{}).on("population of the town", "100")
	scan := logical.NewScan(townDef(), "t", "LLM")
	fa, err := logical.NewFetchAttr(scan, townDef(), "t", "population", 0)
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateOp{out: scan.Schema(), rows: keysRelation("Alpha", "Beta").Rows}
	op := &llmFetchAttrOp{node: fa, input: gate, out: fa.Schema()}
	gate.wait = func() { <-op.x.pipe.done } // Beta arrives after Close
	pctx := pipelinedCtx(context.Background(), client, 2, 4)
	pctx.Metrics = NewMetrics()
	if err := op.Open(pctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := op.Next(); err != nil {
		t.Fatal(err)
	}
	op.Close()
	if nm, _ := pctx.Metrics.Get(fa); nm.Prompts != 1 {
		t.Errorf("closed fetch issued %d prompts, want 1 (Alpha only)", nm.Prompts)
	}
}

// stallLLM signals the first call, then blocks until the context dies.
type stallLLM struct {
	started chan struct{}
	once    sync.Once
}

func (s *stallLLM) Name() string { return "stall" }
func (s *stallLLM) Complete(ctx context.Context, p string) (string, error) {
	s.once.Do(func() { close(s.started) })
	<-ctx.Done()
	return "", ctx.Err()
}

// TestPipelinedCancellation: canceling the query context aborts in-flight
// pipelined prompts promptly and surfaces the cancellation.
func TestPipelinedCancellation(t *testing.T) {
	client := &stallLLM{started: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pctx := pipelinedCtx(ctx, client, 2, 4)

	errCh := make(chan error, 1)
	go func() {
		_, err := Run(pctx, townTree(t))
		errCh <- err
	}()
	<-client.started
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pipelined query did not abort after cancellation")
	}
}

// TestBatchCancellation: the stop-and-go policy must abort a prompt wave
// mid-flight on context cancellation too.
func TestBatchCancellation(t *testing.T) {
	client := &stallLLM{started: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	c := llmCtx(&scriptedLLM{})
	c.Scheduler = testTenant(ctx, nil, 2, true)
	c.Route = routeTo(client)

	scan := logical.NewScan(townDef(), "t", "LLM")
	keyOp := &memScan{out: scan.Schema(), rel: keysRelation("Alpha", "Beta", "Gamma", "Delta")}
	fa, err := logical.NewFetchAttr(scan, townDef(), "t", "population", 0)
	if err != nil {
		t.Fatal(err)
	}
	op := &llmFetchAttrOp{node: fa, input: keyOp, out: fa.Schema()}

	errCh := make(chan error, 1)
	go func() {
		_, err := Run(c, op)
		errCh <- err
	}()
	<-client.started
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batched fetch did not abort after cancellation")
	}
}

// TestPipelinedFetchVerify: cross-model verification runs in pipelined
// mode with the same NULL-on-disagreement semantics as stop-and-go.
func TestPipelinedFetchVerify(t *testing.T) {
	client := (&scriptedLLM{}).
		on("population of the town Alpha", "100").
		on("population of the town Beta", "200")
	verifier := (&scriptedLLM{}).
		on("population of the town Alpha", "105").
		on("population of the town Beta", "900")
	scan := logical.NewScan(townDef(), "t", "LLM")
	keyOp := &memScan{out: scan.Schema(), rel: keysRelation("Alpha", "Beta")}
	fa, err := logical.NewFetchAttr(scan, townDef(), "t", "population", 0)
	if err != nil {
		t.Fatal(err)
	}
	op := &llmFetchAttrOp{node: fa, input: keyOp, out: fa.Schema()}
	pctx := pipelinedCtx(context.Background(), client, 2, 4)
	pctx.Verifier = verifier
	rel, err := Run(pctx, op)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rows[0][1].AsInt() != 100 {
		t.Errorf("agreeing value must survive: %v", rel.Rows[0][1])
	}
	if !rel.Rows[1][1].IsNull() {
		t.Errorf("contradicted value must become NULL: %v", rel.Rows[1][1])
	}
}

// TestPipelinedErrorPropagates: a producer-side model failure surfaces
// through Next with the operator's error context.
func TestPipelinedErrorPropagates(t *testing.T) {
	client := townClient()
	client.failOn = "population of the town Beta"
	pctx := pipelinedCtx(context.Background(), client, 2, 4)
	if _, err := Run(pctx, townTree(t)); err == nil {
		t.Error("pipelined model failure must propagate")
	}
}

// TestResidentChainRunsInline: when every prompt of a streaming scan →
// filter → fetch tree is resident, the tree drains on the consumer's
// goroutine: no operator starts a producer, and the result is the one
// the cold run produced.
func TestResidentChainRunsInline(t *testing.T) {
	sched := llm.NewScheduler(llm.NewCache(64), 2)
	var want string
	for run := 0; run < 2; run++ {
		pctx := pipelinedCtx(context.Background(), townClient(), 2, 4)
		pctx.Scheduler = sched.Tenant(context.Background(), "test")
		fetch := townTree(t)
		rel, err := Run(pctx, fetch)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			want = rel.String()
			continue
		}
		if got := rel.String(); got != want {
			t.Errorf("resident run diverged:\ncold:\n%s\nresident:\n%s", want, got)
		}
		if n := pctx.Scheduler.Usage().Prompts; n != 0 {
			t.Errorf("resident run issued %d model prompts", n)
		}
		filter := fetch.input.(*llmFilterOp)
		scan := filter.input.(*llmKeyScanOp)
		if fetch.x.pipe.started() || filter.x.pipe.started() || scan.pipe.started() {
			t.Errorf("resident run started a producer: fetch %v, filter %v, scan %v",
				fetch.x.pipe.started(), filter.x.pipe.started(), scan.pipe.started())
		}
	}
}

// gatedLLM answers as its script does, but holds every call — except one
// whose prompt contains pass — until release is closed. overlap closes
// once a filter call and a fetch call are held at the same time.
type gatedLLM struct {
	*scriptedLLM
	pass    string
	release chan struct{}
	overlap chan struct{}

	mu      sync.Mutex
	held    map[string]int // held calls by operator: "filter", "fetch"
	reached bool
}

func (g *gatedLLM) Complete(ctx context.Context, p string) (string, error) {
	if !strings.Contains(p, g.pass) {
		op := "fetch"
		if strings.HasPrefix(p, "Has town") {
			op = "filter"
		}
		g.mu.Lock()
		g.held[op]++
		if g.held["filter"] > 0 && g.held["fetch"] > 0 && !g.reached {
			g.reached = true
			close(g.overlap)
		}
		g.mu.Unlock()
		<-g.release
	}
	return g.scriptedLLM.Complete(ctx, p)
}

// sixTowns scripts filter verdicts and populations for six towns, under
// the name townClient answers as.
func sixTowns() *scriptedLLM {
	c := &scriptedLLM{}
	for i, town := range []string{"Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta"} {
		verdict := "yes"
		if town == "Epsilon" {
			verdict = "no"
		}
		c.on("Has town "+town+" population more than 1000000", verdict).
			on("population of the town "+town, fmt.Sprintf("%d", (i+2)*1000000))
	}
	return c
}

// TestInlineChainOverlapsMisses: a streaming memScan → filter → fetch
// chain whose first two rows are resident and whose later rows miss
// starts inline and inserts its exchanges at the first misses, so the
// filter's and the fetch's misses are in flight at once. The relation
// and the prompt count equal stop-and-go's over the same resident set.
func TestInlineChainOverlapsMisses(t *testing.T) {
	scan := logical.NewScan(townDef(), "t", "LLM")
	towns := keysRelation("Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta")
	tree := func(keys *schema.Relation) Operator {
		return filterFetch(t, &memScan{out: scan.Schema(), rel: keys}, scan)
	}
	// warmed returns a scheduler whose cache holds Alpha's and Beta's
	// verdicts and populations.
	warmed := func() *llm.Scheduler {
		sched := llm.NewScheduler(llm.NewCache(64), 8)
		pctx := pipelinedCtx(context.Background(), sixTowns(), 8, 4)
		pctx.Scheduler = sched.Tenant(context.Background(), "warm")
		if _, err := Run(pctx, tree(keysRelation("Alpha", "Beta"))); err != nil {
			t.Fatal(err)
		}
		return sched
	}

	ref := llmCtx(sixTowns())
	ref.Scheduler = warmed().Tenant(context.Background(), "stop-and-go")
	ref.Scheduler.SetWaves(8)
	want, err := Run(ref, tree(towns))
	if err != nil {
		t.Fatal(err)
	}

	client := &gatedLLM{
		scriptedLLM: sixTowns(),
		pass:        "Has town Gamma", // the first miss
		release:     make(chan struct{}),
		overlap:     make(chan struct{}),
		held:        map[string]int{},
	}
	pctx := pipelinedCtx(context.Background(), client, 8, 4)
	pctx.Scheduler = warmed().Tenant(context.Background(), "streaming")
	type result struct {
		rel *schema.Relation
		err error
	}
	done := make(chan result, 1)
	go func() {
		rel, err := Run(pctx, tree(towns))
		done <- result{rel, err}
	}()
	select {
	case <-client.overlap:
	case <-time.After(5 * time.Second):
		t.Error("the filter's and the fetch's misses were never in flight at once")
	}
	close(client.release)
	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.rel.String() != want.String() {
		t.Errorf("streaming result diverged:\nstop-and-go:\n%s\nstreaming:\n%s", want.String(), got.rel.String())
	}
	if got.rel.Cardinality() != 5 {
		t.Errorf("rows = %d, want 5:\n%s", got.rel.Cardinality(), got.rel.String())
	}
	if p, w := pctx.Scheduler.Usage().Prompts, ref.Scheduler.Usage().Prompts; p != w || p != 7 {
		t.Errorf("streaming issued %d prompts, stop-and-go %d; want 7 (4 verdicts, 3 populations)", p, w)
	}
}

// TestResidentLimitScanIssuesNoExtraPages: a LIMIT 3 over a fully
// resident key scan runs inline and submits exactly the three pages it
// needs — no more than the producer run ahead of the same LIMIT when
// the pages were misses.
func TestResidentLimitScanIssuesNoExtraPages(t *testing.T) {
	client := &pagingLLM{}
	sched := llm.NewScheduler(llm.NewCache(256), 2)
	scan := logical.NewScan(townDef(), "t", "LLM")
	run := func(limit int) (pages int, keyScan *llmKeyScanOp) {
		pctx := pipelinedCtx(context.Background(), client, 2, 2)
		pctx.Scheduler = sched.Tenant(context.Background(), "test")
		pctx.MaxScanIterations = 50
		pctx.Metrics = NewMetrics()
		keyScan = &llmKeyScanOp{scan: scan, out: scan.Schema()}
		rel, err := Run(pctx, &limitOp{input: keyScan, n: limit, offset: 0})
		if err != nil {
			t.Fatal(err)
		}
		if limit >= 0 && rel.Cardinality() != limit {
			t.Fatalf("LIMIT %d: rows = %d", limit, rel.Cardinality())
		}
		pctx.Scheduler.Quiesce()
		nm, _ := pctx.Metrics.Get(scan)
		return nm.Prompts, keyScan
	}
	cold, coldScan := run(3)
	if !coldScan.pipe.started() {
		t.Fatal("a scan of missing pages never started its producer")
	}
	run(-1) // every page of the chain resident
	resident, residentScan := run(3)
	if residentScan.pipe.started() {
		t.Error("a resident scan started a producer")
	}
	if resident != 3 || resident > cold {
		t.Errorf("resident LIMIT 3 submitted %d pages, want 3 (the producer path submitted %d)", resident, cold)
	}
}

// TestFoldedAccounting: the LLM operators count their cache hits and
// per-node metrics in their own fields and fold them into the tenant and
// Metrics at Close. A streamed key scan → filter → fetch over six towns,
// whose scan pages and Alpha's, Beta's and Delta's answers are resident,
// must report what prompt-by-prompt accounting reported: the pinned
// tenant hits, critical path and per-node counters. The cases take hits
// before and after the filter's and the fetch's inline-to-producer
// hand-off (at Gamma, the first miss), a LIMIT that closes the tree on
// the inline prefix, one that closes it after the hand-off, and
// stop-and-go. In every case the tenant's hits and misses are the
// cache's, and each prompt the operators asked is one of them.
func TestFoldedAccounting(t *testing.T) {
	world := func() *scriptedLLM {
		return sixTowns().
			on("Do not repeat", "Done").
			on("List the names of all towns", "Alpha\nBeta\nGamma\nDelta\nEpsilon\nZeta")
	}
	scan := logical.NewScan(townDef(), "t", "LLM")
	type counts struct {
		hits                int
		span                llm.VTime
		scan, filter, fetch NodeMetrics
	}
	for _, tc := range []struct {
		name      string
		limit     int // -1: none
		stopAndGo bool
		handoff   bool    // streaming: the filter and the fetch start producers
		want      *counts // nil: the run's counts depend on how far producers ran
	}{
		{"handoff", -1, false, true, &counts{8, 1008 * time.Millisecond,
			NodeMetrics{2, 0, 6}, NodeMetrics{6, 6, 5}, NodeMetrics{5, 5, 5}}},
		{"limit-inline", 1, false, false, &counts{3, 0,
			NodeMetrics{1, 0, 6}, NodeMetrics{1, 1, 1}, NodeMetrics{1, 1, 1}}},
		{"limit-handoff", 3, false, true, nil},
		{"stop-and-go", -1, true, true, &counts{8, 1501500 * time.Microsecond,
			NodeMetrics{2, 0, 6}, NodeMetrics{6, 6, 5}, NodeMetrics{5, 5, 5}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache := llm.NewCache(64)
			sched := llm.NewScheduler(cache, 8)
			warm := pipelinedCtx(context.Background(), world(), 8, 4)
			warm.Scheduler = sched.Tenant(context.Background(), "warm")
			if _, err := Run(warm, &llmKeyScanOp{scan: scan, out: scan.Schema()}); err != nil {
				t.Fatal(err)
			}
			if _, err := Run(warm, filterFetch(t, &memScan{out: scan.Schema(), rel: keysRelation("Alpha", "Beta", "Delta")}, scan)); err != nil {
				t.Fatal(err)
			}
			before := cache.Stats()

			// Gamma's verdict and population are held until the filter's
			// and the fetch's producers pull the row after Gamma, so each
			// is still pending when its operator checks it inline.
			client := world()
			pctx := pipelinedCtx(context.Background(), client, 8, 2)
			pctx.Scheduler = sched.Tenant(context.Background(), tc.name)
			if tc.stopAndGo {
				pctx.Scheduler.SetWaves(2)
			}
			pctx.Metrics = NewMetrics()
			keys := &releaseAt{Operator: &llmKeyScanOp{scan: scan, out: scan.Schema()}, at: 4, release: client.hold("Has town Gamma")}
			fetch := filterFetch(t, keys, scan)
			filter := fetch.input.(*llmFilterOp)
			fetch.input = &releaseAt{Operator: filter, at: 4, release: client.hold("population of the town Gamma")}
			var root Operator = fetch
			if tc.limit >= 0 {
				root = &limitOp{input: fetch, n: tc.limit}
			}
			if _, err := Run(pctx, root); err != nil {
				t.Fatal(err)
			}
			pctx.Scheduler.Quiesce()
			if h := filter.x.pipe.started() && fetch.x.pipe.started(); h != tc.handoff {
				t.Errorf("filter and fetch started producers: %v, want %v", h, tc.handoff)
			}
			node := func(n logical.Node) NodeMetrics {
				nm, _ := pctx.Metrics.Get(n)
				return nm
			}
			u, after := pctx.Scheduler.Usage(), cache.Stats()
			got := counts{u.CacheHits, pctx.Scheduler.Stats().CriticalPath, node(scan), node(filter.node), node(fetch.node)}
			if tc.want != nil && got != *tc.want {
				t.Errorf("accounting = %+v, want %+v", got, *tc.want)
			}
			if u.CacheHits != after.Hits-before.Hits || u.CacheMisses != after.Misses-before.Misses {
				t.Errorf("tenant hits/misses %d/%d, cache counted %d/%d",
					u.CacheHits, u.CacheMisses, after.Hits-before.Hits, after.Misses-before.Misses)
			}
			if asked := got.scan.Prompts + got.filter.Prompts + got.fetch.Prompts; asked != u.CacheHits+u.CacheMisses {
				t.Errorf("operators asked %d prompts, tenant counted %d hits + %d misses", asked, u.CacheHits, u.CacheMisses)
			}
		})
	}
}

// releaseAt hands on its input's rows and closes release on the at-th
// Next: under an inline consumer that has started its producer at row
// at-1, only that producer pulls row at.
type releaseAt struct {
	Operator
	at, calls int
	release   chan<- struct{}
}

func (r *releaseAt) Next() (schema.Tuple, llm.VTime, error) {
	if r.calls++; r.calls == r.at {
		close(r.release)
	}
	return r.Operator.Next()
}

// laterOp hands on its input's rows as available at vt, as rows derived
// from a slower upstream chain are.
type laterOp struct {
	Operator
	vt llm.VTime
}

func (l *laterOp) Next() (schema.Tuple, llm.VTime, error) {
	t, _, err := l.Operator.Next()
	return t, l.vt, err
}

// TestFoldedHitsReachCriticalPath: a resident answer completes at its
// prompt's ready time, so a query whose every prompt is resident still
// has the critical path of its latest input row once the fetch folds its
// hits at Close.
func TestFoldedHitsReachCriticalPath(t *testing.T) {
	scan := logical.NewScan(townDef(), "t", "LLM")
	sched := llm.NewScheduler(llm.NewCache(64), 2)
	const later = 3 * time.Second
	for _, vt := range []llm.VTime{0, later} {
		pctx := pipelinedCtx(context.Background(), townClient(), 2, 4)
		pctx.Scheduler = sched.Tenant(context.Background(), "test")
		fetch := filterFetch(t, &laterOp{&memScan{out: scan.Schema(), rel: keysRelation("Alpha", "Beta")}, vt}, scan)
		if _, err := Run(pctx, fetch); err != nil {
			t.Fatal(err)
		}
		if vt == 0 {
			continue // the cold run makes every answer resident
		}
		if u, span := pctx.Scheduler.Usage(), pctx.Scheduler.Stats().CriticalPath; u.CacheHits != 4 || u.Prompts != 0 || span != later {
			t.Errorf("resident run: %d hits, %d prompts, critical path %v; want 4, 0 and %v", u.CacheHits, u.Prompts, span, later)
		}
	}
}
