package physical

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/clean"
	"repro/internal/llm"
	"repro/internal/logical"
	"repro/internal/prompt"
	"repro/internal/schema"
	"repro/internal/sql/ast"
	"repro/internal/value"
)

// scriptedLLM answers prompts from a rule table, recording every prompt.
// It is safe for the concurrent calls the scheduler makes.
type scriptedLLM struct {
	rules []struct {
		contains string
		answer   string
	}
	calls   int32
	failOn  string
	mu      sync.Mutex
	prompts []string
	// held holds the answer to a prompt containing a key until the key's
	// channel is closed.
	held map[string]chan struct{}
}

func (s *scriptedLLM) Name() string { return "scripted" }

func (s *scriptedLLM) Complete(ctx context.Context, p string) (string, error) {
	atomic.AddInt32(&s.calls, 1)
	s.mu.Lock()
	s.prompts = append(s.prompts, p)
	s.mu.Unlock()
	if s.failOn != "" && strings.Contains(p, s.failOn) {
		return "", errors.New("scripted failure")
	}
	for key, release := range s.held {
		if strings.Contains(p, key) {
			select {
			case <-release:
			case <-ctx.Done():
				return "", ctx.Err()
			}
		}
	}
	for _, r := range s.rules {
		if strings.Contains(p, r.contains) {
			return r.answer, nil
		}
	}
	return prompt.UnknownMarker, nil
}

func (s *scriptedLLM) on(contains, answer string) *scriptedLLM {
	s.rules = append(s.rules, struct{ contains, answer string }{contains, answer})
	return s
}

// hold holds the answer to every prompt containing key until the
// returned channel is closed. Set it up before the client's first call.
func (s *scriptedLLM) hold(key string) chan<- struct{} {
	if s.held == nil {
		s.held = map[string]chan struct{}{}
	}
	ch := make(chan struct{})
	s.held[key] = ch
	return ch
}

// testTenant opens a query tenant on its own scheduler running workers
// concurrent calls per endpoint: stop-and-go with waves as wide when
// stopAndGo is set, streaming otherwise.
func testTenant(ctx context.Context, cache *llm.Cache, workers int, stopAndGo bool) *llm.Tenant {
	tn := llm.NewScheduler(cache, workers).Tenant(ctx, "test")
	if stopAndGo {
		tn.SetWaves(workers)
	}
	return tn
}

// routeTo routes every prompt role to client.
func routeTo(client llm.Client) func(llm.Role, string) llm.Client {
	return func(llm.Role, string) llm.Client { return client }
}

// llmCtx builds a Context running the stop-and-go policy, waves of two.
func llmCtx(client *scriptedLLM) *Context {
	b := prompt.NewBuilder()
	b.IncludePreamble = false
	return &Context{
		Route:             routeTo(client),
		Prompts:           b,
		Cleaner:           clean.New(clean.DefaultOptions()),
		MaxScanIterations: 5,
		Scheduler:         testTenant(context.Background(), nil, 2, true),
	}
}

func townDef() *schema.TableDef {
	return &schema.TableDef{
		Name:      "town",
		KeyColumn: "name",
		Schema: schema.New(
			schema.Column{Name: "name", Type: value.KindString},
			schema.Column{Name: "population", Type: value.KindInt},
		),
	}
}

func TestLLMKeyScanIteratesUntilDone(t *testing.T) {
	client := (&scriptedLLM{}).
		on("Do not repeat any of: Alpha; Beta", "Done").
		on("List the names of all towns", "Alpha\nBeta")
	scan := logical.NewScan(townDef(), "t", "LLM")
	op := &llmKeyScanOp{scan: scan, out: scan.Schema()}
	rel, err := Run(llmCtx(client), op)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 2 {
		t.Fatalf("keys = %d:\n%s", rel.Cardinality(), rel.String())
	}
	if client.calls != 2 {
		t.Errorf("calls = %d, want list + one more-round", client.calls)
	}
}

func TestLLMKeyScanStopsWhenNoNewKeys(t *testing.T) {
	// The model keeps repeating the same keys; the scan must terminate.
	client := (&scriptedLLM{}).on("towns", "Alpha\nBeta")
	scan := logical.NewScan(townDef(), "t", "LLM")
	op := &llmKeyScanOp{scan: scan, out: scan.Schema()}
	rel, err := Run(llmCtx(client), op)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 2 {
		t.Errorf("keys = %d", rel.Cardinality())
	}
	if client.calls > 3 {
		t.Errorf("scan must stop once no new keys arrive, made %d calls", client.calls)
	}
}

func TestLLMKeyScanIterationCap(t *testing.T) {
	// A pathological model that always invents a fresh key: the cap must
	// stop the loop.
	n := 0
	client := &scriptedLLM{}
	client.rules = append(client.rules, struct{ contains, answer string }{"", ""})
	// Override via closure-free trick: wrap with dynamic answer.
	dyn := &dynamicLLM{f: func(p string) string {
		n++
		return fmt.Sprintf("Town%d", n)
	}}
	scan := logical.NewScan(townDef(), "t", "LLM")
	op := &llmKeyScanOp{scan: scan, out: scan.Schema()}
	ctx := llmCtx(client)
	ctx.Route = routeTo(dyn)
	ctx.MaxScanIterations = 3
	rel, err := Run(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 3 {
		t.Errorf("cap=3 should yield 3 keys, got %d", rel.Cardinality())
	}
}

type dynamicLLM struct{ f func(string) string }

func (d *dynamicLLM) Name() string { return "dynamic" }
func (d *dynamicLLM) Complete(ctx context.Context, p string) (string, error) {
	return d.f(p), nil
}

// TestScanPageMarkerPunctuation: a termination marker with punctuation or
// a list bullet still ends the scan; it never becomes a key that would
// then get fetch prompts of its own.
func TestScanPageMarkerPunctuation(t *testing.T) {
	cleaner := clean.New(clean.DefaultOptions())
	for _, resp := range []string{"Done", "Done.", " unknown. ", "- Done", "\n* DONE;\n"} {
		if page := decodePage(resp, cleaner, value.KindString); !page.done || len(page.keys) != 0 {
			t.Errorf("decodePage(%q) = %+v; want a termination marker", resp, page)
		}
	}
	if page := decodePage("- Alpha\n- Done Deal", cleaner, value.KindString); page.done || len(page.keys) != 2 {
		t.Errorf("a page of keys = %+v", page)
	}
}

func TestLLMKeyScanUnknown(t *testing.T) {
	client := (&scriptedLLM{}).on("towns", "Unknown")
	scan := logical.NewScan(townDef(), "t", "LLM")
	op := &llmKeyScanOp{scan: scan, out: scan.Schema()}
	rel, err := Run(llmCtx(client), op)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 0 {
		t.Errorf("Unknown should yield an empty relation, got %d", rel.Cardinality())
	}
}

func TestLLMFetchAttr(t *testing.T) {
	client := (&scriptedLLM{}).
		on("population of the town Alpha", "1.2 million").
		on("population of the town Beta", "Unknown")
	scan := logical.NewScan(townDef(), "t", "LLM")
	keyOp := &memScan{out: scan.Schema(), rel: keysRelation("Alpha", "Beta")}
	fa, err := logical.NewFetchAttr(scan, townDef(), "t", "population", 0)
	if err != nil {
		t.Fatal(err)
	}
	op := &llmFetchAttrOp{node: fa, input: keyOp, out: fa.Schema()}
	rel, err := Run(llmCtx(client), op)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 2 {
		t.Fatalf("rows = %d", rel.Cardinality())
	}
	if rel.Rows[0][1].AsInt() != 1200000 {
		t.Errorf("Alpha population = %v (cleaned from '1.2 million')", rel.Rows[0][1])
	}
	if !rel.Rows[1][1].IsNull() {
		t.Errorf("Unknown must become NULL, got %v", rel.Rows[1][1])
	}
}

// TestLLMFetchAttrDedup: with a prompt cache configured, a stop-and-go
// fetch over duplicate keys issues exactly one model call per distinct
// key (K < N prompts) and still aligns answers positionally.
func TestLLMFetchAttrDedup(t *testing.T) {
	client := (&scriptedLLM{}).
		on("population of the town Alpha", "100").
		on("population of the town Beta", "200")
	scan := logical.NewScan(townDef(), "t", "LLM")
	keys := keysRelation("Alpha", "Beta", "Alpha", "Alpha", "Beta")
	keyOp := &memScan{out: scan.Schema(), rel: keys}
	fa, err := logical.NewFetchAttr(scan, townDef(), "t", "population", 0)
	if err != nil {
		t.Fatal(err)
	}
	op := &llmFetchAttrOp{node: fa, input: keyOp, out: fa.Schema()}
	ctx := llmCtx(client)
	ctx.Scheduler = testTenant(context.Background(), llm.NewCache(16), 2, true)
	rel, err := Run(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 5 {
		t.Fatalf("rows = %d, the batch must stay positionally complete", rel.Cardinality())
	}
	if client.calls != 2 {
		t.Errorf("duplicate keys issued %d prompts, want 2 distinct", client.calls)
	}
	for i, want := range []int64{100, 200, 100, 100, 200} {
		if rel.Rows[i][1].AsInt() != want {
			t.Errorf("row %d = %v, want %d", i, rel.Rows[i][1], want)
		}
	}
}

// TestLLMFetchAttrCachedAcrossQueries: a second identical fetch against
// the same cache issues zero model calls.
func TestLLMFetchAttrCachedAcrossQueries(t *testing.T) {
	client := (&scriptedLLM{}).
		on("population of the town Alpha", "100").
		on("population of the town Beta", "200")
	cache := llm.NewCache(16)
	run := func() {
		scan := logical.NewScan(townDef(), "t", "LLM")
		keyOp := &memScan{out: scan.Schema(), rel: keysRelation("Alpha", "Beta")}
		fa, err := logical.NewFetchAttr(scan, townDef(), "t", "population", 0)
		if err != nil {
			t.Fatal(err)
		}
		op := &llmFetchAttrOp{node: fa, input: keyOp, out: fa.Schema()}
		ctx := llmCtx(client)
		ctx.Scheduler = testTenant(context.Background(), cache, 2, true)
		if _, err := Run(ctx, op); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if client.calls != 2 {
		t.Fatalf("first run issued %d calls", client.calls)
	}
	run()
	if client.calls != 2 {
		t.Errorf("second run re-issued prompts: %d calls total", client.calls)
	}
}

func keysRelation(keys ...string) *schema.Relation {
	rel := schema.NewRelation(schema.New(schema.Column{Table: "t", Name: "name", Type: value.KindString}))
	for _, k := range keys {
		rel.Append(schema.Tuple{value.Text(k)})
	}
	return rel
}

func TestLLMFilter(t *testing.T) {
	client := (&scriptedLLM{}).
		on("Has town Alpha population more than 1000000", "yes").
		on("Has town Beta population more than 1000000", "No.")
	scan := logical.NewScan(townDef(), "t", "LLM")
	keyOp := &memScan{out: scan.Schema(), rel: keysRelation("Alpha", "Beta")}
	cond := &ast.Binary{
		Op:    ">",
		Left:  &ast.ColumnRef{Table: "t", Name: "population"},
		Right: &ast.Literal{Val: value.Int(1000000)},
	}
	filter := &logical.LLMFilter{Input: scan, Table: townDef(), Binding: "t", Cond: logical.NewConjunct(cond), KeyCol: 0}
	op := &llmFilterOp{node: filter, input: keyOp}
	rel, err := Run(llmCtx(client), op)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 1 || rel.Rows[0][0].AsString() != "Alpha" {
		t.Errorf("filter kept %v", rel.Rows)
	}
}

func TestLLMErrorPropagates(t *testing.T) {
	client := (&scriptedLLM{failOn: "towns"})
	scan := logical.NewScan(townDef(), "t", "LLM")
	op := &llmKeyScanOp{scan: scan, out: scan.Schema()}
	if _, err := Run(llmCtx(client), op); err == nil {
		t.Error("LLM errors must propagate")
	}
}

func TestLLMOpsRequireClient(t *testing.T) {
	scan := logical.NewScan(townDef(), "t", "LLM")
	op := &llmKeyScanOp{scan: scan, out: scan.Schema()}
	ctx := llmCtx(&scriptedLLM{})
	ctx.Route = nil
	if _, err := Run(ctx, op); err == nil {
		t.Error("LLM scan without a client must fail")
	}
	ctx = llmCtx(&scriptedLLM{})
	ctx.Scheduler = nil
	if _, err := Run(ctx, op); err == nil {
		t.Error("LLM scan without a scheduler tenant must fail")
	}
}

func TestIsYes(t *testing.T) {
	for s, want := range map[string]bool{
		"yes": true, "Yes.": true, "YES": true, "true": true,
		"no": false, "No.": false, "maybe": false, "": false,
		"yes, it does": true,
	} {
		if got := isYes(s); got != want {
			t.Errorf("isYes(%q) = %v", s, got)
		}
	}
}

func TestFetchVerification(t *testing.T) {
	client := (&scriptedLLM{}).
		on("population of the town Alpha", "100").
		on("population of the town Beta", "200")
	// The verifier agrees on Alpha (within 10%) and contradicts Beta.
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
	ctx := llmCtx(client)
	ctx.Verifier = verifier
	rel, err := Run(ctx, op)
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

// TestNullKeyAsksNothing: a NULL key — the padding of an outer join —
// asks the model nothing under either policy. A fetch gives it a NULL
// cell with no fetch or verification prompt, a filter drops its row, and
// the node metrics count only the prompts asked.
func TestNullKeyAsksNothing(t *testing.T) {
	keys := keysRelation("Alpha", "Beta")
	keys.Rows = []schema.Tuple{keys.Rows[0], {value.Null()}, keys.Rows[1], {value.Null()}}
	cond := &ast.Binary{
		Op:    ">",
		Left:  &ast.ColumnRef{Table: "t", Name: "population"},
		Right: &ast.Literal{Val: value.Int(150)},
	}
	for _, stopAndGo := range []bool{true, false} {
		client := (&scriptedLLM{}).
			on("population of the town Alpha", "100").
			on("population of the town Beta", "200").
			on("Has town Beta", "yes")
		verifier := (&scriptedLLM{}).
			on("population of the town Alpha", "100").
			on("population of the town Beta", "200")
		newCtx := func() *Context {
			ctx := llmCtx(client)
			ctx.Scheduler = testTenant(context.Background(), nil, 2, stopAndGo)
			ctx.Metrics = NewMetrics()
			return ctx
		}
		scan := logical.NewScan(townDef(), "t", "LLM")
		fa, err := logical.NewFetchAttr(scan, townDef(), "t", "population", 0)
		if err != nil {
			t.Fatal(err)
		}
		ctx := newCtx()
		ctx.Verifier = verifier
		rel, err := Run(ctx, &llmFetchAttrOp{node: fa, input: &memScan{out: scan.Schema(), rel: keys}, out: fa.Schema()})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []string{"100", "NULL", "200", "NULL"} {
			if got := rel.Rows[i][1].String(); got != want {
				t.Errorf("stop-and-go %v: fetched row %d = %s, want %s", stopAndGo, i, got, want)
			}
		}
		nm, _ := ctx.Metrics.Get(fa)
		if client.calls != 2 || verifier.calls != 2 || nm.Prompts != 4 || nm.RowsIn != 4 {
			t.Errorf("stop-and-go %v: fetch asked %d, verifier %d, metrics %+v; want 2, 2 and 4 prompts over 4 rows",
				stopAndGo, client.calls, verifier.calls, nm)
		}

		filter := &logical.LLMFilter{Input: scan, Table: townDef(), Binding: "t", Cond: logical.NewConjunct(cond), KeyCol: 0}
		ctx = newCtx()
		rel, err = Run(ctx, &llmFilterOp{node: filter, input: &memScan{out: scan.Schema(), rel: keys}})
		if err != nil {
			t.Fatal(err)
		}
		nm, _ = ctx.Metrics.Get(filter)
		if rel.Cardinality() != 1 || rel.Rows[0][0].String() != "Beta" || client.calls != 4 || nm.Prompts != 2 || nm.RowsOut != 1 {
			t.Errorf("stop-and-go %v: filter kept %v after %d calls in all, metrics %+v; want Beta after 2 filter prompts",
				stopAndGo, rel.Rows, client.calls, nm)
		}
	}
}

func TestValuesAgree(t *testing.T) {
	cases := []struct {
		a, b value.Value
		tol  float64
		want bool
	}{
		{value.Int(100), value.Int(105), 0.1, true},
		{value.Int(100), value.Int(120), 0.1, false},
		{value.Text("Rome"), value.Text(" rome "), 0.1, true},
		{value.Text("Rome"), value.Text("Paris"), 0.1, false},
		{value.Int(0), value.Int(0), 0.1, true},
		{value.Int(0), value.Int(1), 0.1, false},
		{value.Null(), value.Int(1), 0.1, false},
	}
	for _, c := range cases {
		if got := valuesAgree(c.a, c.b, c.tol); got != c.want {
			t.Errorf("valuesAgree(%v, %v) = %v", c.a, c.b, got)
		}
	}
}

// residentFetchKeys is the input size of residentFetch's query: 64 keys,
// so 128 resident prompts (one fetch and one verdict per key).
const residentFetchKeys = 64

// residentFetch builds one query's fetch-then-filter over
// residentFetchKeys keys, as a real query runs it (with a Metrics
// collector), and runs it once so that every later run finds each
// answer resident in the prompt cache.
func residentFetch(tb testing.TB) func() {
	client := &dynamicLLM{f: func(p string) string {
		if strings.HasSuffix(p, prompt.YesNoFormat) {
			return "Yes."
		}
		return "About 1.2 million people."
	}}
	keys := make([]string, residentFetchKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("Town %d", i)
	}
	in := keysRelation(keys...)
	sched := llm.NewScheduler(llm.NewCache(1024), llm.DefaultBatchWorkers)
	cond := logical.NewConjunct(&ast.Binary{
		Op:    ">",
		Left:  &ast.ColumnRef{Table: "t", Name: "population"},
		Right: &ast.Literal{Val: value.Int(1000000)},
	})
	query := func() {
		scan := logical.NewScan(townDef(), "t", "LLM")
		fa, err := logical.NewFetchAttr(scan, townDef(), "t", "population", 0)
		if err != nil {
			tb.Fatal(err)
		}
		filter := &logical.LLMFilter{Input: fa, Table: townDef(), Binding: "t", Cond: cond, KeyCol: 0}
		op := &llmFilterOp{node: filter, input: &llmFetchAttrOp{node: fa, input: &memScan{out: scan.Schema(), rel: in}, out: fa.Schema()}}
		tn := sched.Tenant(context.Background(), "bench")
		defer tn.Close()
		ctx := &Context{
			Route:     routeTo(client),
			Prompts:   prompt.NewBuilder(),
			Cleaner:   clean.New(clean.DefaultOptions()),
			Scheduler: tn,
			Metrics:   NewMetrics(),
		}
		rel, err := Run(ctx, op)
		if err != nil || rel.Cardinality() != len(keys) {
			tb.Fatalf("rows %d, %v; want %d", rel.Cardinality(), err, len(keys))
		}
	}
	query() // make every answer resident
	return query
}

// TestResidentFetchAllocs pins what a fully resident fetch-then-filter
// costs in allocations: at most one per resident prompt (the fetched
// rows, and the query's fixed cost). A resident prompt is a cache
// lookup, with no Future and no per-prompt accounting object (249
// allocs for the 128 prompts when each hit was a Future).
func TestResidentFetchAllocs(t *testing.T) {
	query := residentFetch(t)
	if allocs := testing.AllocsPerRun(20, query); allocs > 2*residentFetchKeys {
		t.Errorf("resident fetch-then-filter = %.0f allocs, want <= %d (one per resident prompt)", allocs, 2*residentFetchKeys)
	}
}

// BenchmarkResidentFetch is one query's fetch-then-filter over 64 keys
// whose every answer the prompt cache holds: the cost of a fully
// resident LLM operator pair, prompt lookups, answer decoding and
// per-operator metrics included. Beside the per-query numbers it reports
// ns and allocs per resident prompt. Run with -benchmem.
func BenchmarkResidentFetch(b *testing.B) {
	query := residentFetch(b)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	prompts := float64(2 * residentFetchKeys * b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/prompts, "ns/prompt")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/prompts, "allocs/prompt")
}
