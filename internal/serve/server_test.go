package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/simllm"
)

// testRuntime builds the benchmark world's runtime for serving tests.
func testRuntime(t testing.TB, opts core.Options) (*bench.Runner, *core.Runtime) {
	t.Helper()
	r, err := bench.NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := r.Runtime(r.Model(simllm.ChatGPT), opts)
	if err != nil {
		t.Fatal(err)
	}
	return r, rt
}

func postQuery(t *testing.T, ts *httptest.Server, sql string) (*http.Response, queryResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(sql))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr queryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp, qr
}

// TestServeConcurrentQueries: concurrent HTTP queries against one shared
// runtime each return exactly the relation a direct serial session run
// produces.
func TestServeConcurrentQueries(t *testing.T) {
	opts := core.DefaultOptions()
	opts.CacheEnabled = false
	_, rt := testRuntime(t, opts)
	ts := httptest.NewServer(newServer(rt, Config{MaxConcurrent: 8}))
	defer ts.Close()

	queries := []string{
		`SELECT name FROM country WHERE continent = 'Europe'`,
		`SELECT name, population FROM city WHERE population > 1000000`,
		`SELECT name FROM mayor WHERE election_year = 2019`,
		`SELECT name FROM mountain WHERE height > 5000`,
	}
	// Serial baselines on an identical but separate runtime.
	_, baseRT := testRuntime(t, opts)
	want := map[string][][]string{}
	for _, q := range queries {
		rel, _, err := baseRT.NewSession().Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		rows := [][]string{}
		for _, row := range rel.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			rows = append(rows, cells)
		}
		want[q] = rows
	}

	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				resp, qr := postQuery(t, ts, q)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%q: status %d", q, resp.StatusCode)
					return
				}
				if fmt.Sprint(qr.Rows) != fmt.Sprint(want[q]) {
					t.Errorf("%q rows diverged from serial run:\n%v\nwant:\n%v", q, qr.Rows, want[q])
				}
				if qr.Stats.Prompts == 0 {
					t.Errorf("%q reported zero prompts", q)
				}
			}(q)
		}
	}
	wg.Wait()
}

// slowLLM delays every completion so queries overlap long enough for the
// admission gate to be observable.
type slowLLM struct {
	inner llm.Client
	delay time.Duration
}

func (s *slowLLM) Name() string { return s.inner.Name() }
func (s *slowLLM) Complete(ctx context.Context, p string) (string, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return "", ctx.Err()
	}
	return s.inner.Complete(ctx, p)
}

// TestServeAdmissionGate: with -max-concurrent=2, twelve parallel
// requests never have more than two queries executing at once, and all
// of them are eventually served.
func TestServeAdmissionGate(t *testing.T) {
	r, err := bench.NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.CacheEnabled = false
	rt, err := r.Runtime(&slowLLM{inner: r.Model(simllm.ChatGPT), delay: 2 * time.Millisecond}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// maxQueue is raised past the burst: this test exercises the ordered
	// drain of the gate, not load shedding (see TestServeQueueSaturation).
	srv := newServer(rt, Config{MaxConcurrent: 2, MaxQueue: 16})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postQuery(t, ts, `SELECT name FROM country WHERE continent = 'Europe'`)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()

	if got := srv.maxActive.Load(); got > 2 {
		t.Errorf("admission gate leaked: %d queries executed concurrently, cap 2", got)
	}
	if got := srv.queries.Load(); got != 12 {
		t.Errorf("served %d queries, want 12", got)
	}
}

// TestServeErrors: bad SQL is a 400 with a JSON error; a missing
// statement likewise.
func TestServeErrors(t *testing.T) {
	_, rt := testRuntime(t, core.DefaultOptions())
	ts := httptest.NewServer(newServer(rt, Config{MaxConcurrent: 4}))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader("SELEC nonsense"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad SQL: status %d, want 400", resp.StatusCode)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
		t.Errorf("bad SQL: error body = %+v, %v", er, err)
	}

	resp2, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader("   "))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("empty SQL: status %d, want 400", resp2.StatusCode)
	}

	// The engine rejects these; the server still answers them as the
	// client's error, buffered or streamed.
	for _, path := range []string{"/query", "/query?stream=ndjson"} {
		for _, sql := range []string{"SELEC nonsense", "INSERT INTO country VALUES ('Atlantis')"} {
			resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(sql))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %q: status %d, want 400", path, sql, resp.StatusCode)
			}
		}
	}
}

// failingLLM simulates a backend outage: every completion errors.
type failingLLM struct{}

func (failingLLM) Name() string { return "failing" }
func (failingLLM) Complete(ctx context.Context, p string) (string, error) {
	return "", fmt.Errorf("model backend unavailable")
}

// TestServeBackendFailureIs5xx: a valid query whose execution fails in
// the model backend is a server error (500), not the client's fault.
func TestServeBackendFailureIs5xx(t *testing.T) {
	r, err := bench.NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.CacheEnabled = false
	rt, err := r.Runtime(failingLLM{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(rt, Config{MaxConcurrent: 4}))
	defer ts.Close()

	resp, _ := postQuery(t, ts, `SELECT name FROM country WHERE continent = 'Europe'`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("backend failure: status %d, want 500", resp.StatusCode)
	}
}

// TestServeFormEncodedQuery: `curl -d "q=SELECT ..."` (a form-encoded q
// field) and `curl -d "SELECT ..."` (bare SQL under the same content
// type) both work.
func TestServeFormEncodedQuery(t *testing.T) {
	_, rt := testRuntime(t, core.DefaultOptions())
	ts := httptest.NewServer(newServer(rt, Config{MaxConcurrent: 4}))
	defer ts.Close()

	const sql = `SELECT name FROM country WHERE continent = 'Europe'`
	form := url.Values{"q": {sql}}.Encode()
	resp, err := http.Post(ts.URL+"/query", "application/x-www-form-urlencoded", strings.NewReader(form))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr queryResponse
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("form-encoded q: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}

	resp2, err := http.Post(ts.URL+"/query", "application/x-www-form-urlencoded", strings.NewReader(sql))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var qr2 queryResponse
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("bare SQL under form content type: status %d", resp2.StatusCode)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&qr2); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(qr.Rows) != fmt.Sprint(qr2.Rows) || qr.RowCount == 0 {
		t.Errorf("form and raw submissions disagree: %d vs %d rows", qr.RowCount, qr2.RowCount)
	}
}

// TestServeHealthzAndStats: the probes respond, and /stats reflects
// served queries and the shared cache.
func TestServeHealthzAndStats(t *testing.T) {
	_, rt := testRuntime(t, core.DefaultOptions())
	ts := httptest.NewServer(newServer(rt, Config{MaxConcurrent: 4}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	if resp, _ := postQuery(t, ts, `SELECT name FROM country WHERE continent = 'Europe'`); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	// The same query again rides the shared prompt cache.
	if resp, qr := postQuery(t, ts, `SELECT name FROM country WHERE continent = 'Europe'`); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	} else if qr.Stats.CacheHits == 0 {
		t.Error("repeated query had zero cache hits")
	}

	statsResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st serverStats
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.QueriesServed != 2 {
		t.Errorf("queries_served = %d, want 2", st.QueriesServed)
	}
	if st.CacheStats.Hits == 0 || st.CacheStats.Entries == 0 {
		t.Errorf("stats cache counters empty: %+v", st)
	}
	if st.MaxConcurrent != 4 {
		t.Errorf("max_concurrent = %d, want 4", st.MaxConcurrent)
	}
}

// TestServeStatsPlanCache: /stats reports the plan cache as one
// trailing plan_cache object, after the front end's own counters and the
// rest of the runtime snapshot, each key in its place.
func TestServeStatsPlanCache(t *testing.T) {
	_, rt := testRuntime(t, core.ServeOptions())
	ts := httptest.NewServer(newServer(rt, Config{MaxConcurrent: 4}))
	defer ts.Close()
	// EXPLAIN plans without executing, so no observation moves the
	// statistics between the two: the second reuses the first's choice.
	for _, sql := range []string{
		`EXPLAIN SELECT name FROM city WHERE population > 1000000`,
		`EXPLAIN SELECT name FROM city WHERE population > 2000000`,
	} {
		if resp, _ := postQuery(t, ts, sql); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", sql, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	if _, err := dec.Token(); err != nil { // {
		t.Fatal(err)
	}
	var keys []string
	body := map[string]json.RawMessage{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		body[tok.(string)] = v
	}
	want := []string{
		"queries_served", "active", "max_active", "waiting", "max_concurrent",
		"max_queue", "shed", "timeouts", "admission", "workers_per_endpoint",
		"cache_hits", "cache_misses", "cache_entries",
		"result_cache_hits", "result_cache_subsumed_hits", "result_cache_misses", "result_cache_entries", "result_cache_bytes",
		"table_epochs", "resilience", "backends", "failovers", "sched", "persistence", "plan_cache",
	}
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Errorf("/stats keys:\n got %v\nwant %v", keys, want)
	}
	if got, want := string(body["plan_cache"]), `{"hits":1,"guard_failures":0,"misses":1,"entries":1}`; got != want {
		t.Errorf("plan_cache = %s, want %s", got, want)
	}
}

// TestServeQueuedClientDisconnect: a request abandoned while waiting for
// admission frees its queue spot and does not wedge the gate.
func TestServeQueuedClientDisconnect(t *testing.T) {
	r, err := bench.NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.CacheEnabled = false
	release := make(chan struct{})
	rt, err := r.Runtime(&gatedTestLLM{inner: r.Model(simllm.ChatGPT), release: release}, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(rt, Config{MaxConcurrent: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Occupy the single slot.
	done := make(chan struct{})
	go func() {
		defer close(done)
		postQuery(t, ts, `SELECT name FROM country WHERE continent = 'Europe'`)
	}()
	waitFor(t, func() bool { return srv.active.Load() == 1 })

	// A queued request whose client gives up.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/query?q=SELECT+name+FROM+country", nil)
	errCh := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errCh <- err
	}()
	waitFor(t, func() bool { return srv.waiting.Load() == 1 })
	cancel()
	if err := <-errCh; err == nil {
		t.Error("cancelled queued request returned without error")
	}
	waitFor(t, func() bool { return srv.waiting.Load() == 0 })

	// Release the running query; the gate must be fully usable again.
	close(release)
	<-done
	if resp, _ := postQuery(t, ts, `SELECT name FROM country WHERE continent = 'Europe'`); resp.StatusCode != http.StatusOK {
		t.Errorf("gate wedged after queued disconnect: status %d", resp.StatusCode)
	}
}

// TestServeMethodNotAllowed: /query executes SQL only for GET and POST;
// every other verb is a 405 with an Allow header and runs nothing.
func TestServeMethodNotAllowed(t *testing.T) {
	_, rt := testRuntime(t, core.DefaultOptions())
	srv := newServer(rt, Config{MaxConcurrent: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, method := range []string{http.MethodPut, http.MethodDelete, http.MethodPatch, "FROBNICATE"} {
		req, err := http.NewRequest(method, ts.URL+"/query?q=SELECT+name+FROM+country", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s /query: status %d, want 405", method, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != "GET, POST" {
			t.Errorf("%s /query: Allow = %q, want \"GET, POST\"", method, allow)
		}
	}
	if got := srv.queries.Load(); got != 0 {
		t.Errorf("rejected methods executed %d queries", got)
	}

	// GET and POST still work.
	resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape(`SELECT name FROM country WHERE continent = 'Europe'`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /query: status %d", resp.StatusCode)
	}
	if resp, _ := postQuery(t, ts, `SELECT name FROM country WHERE continent = 'Europe'`); resp.StatusCode != http.StatusOK {
		t.Errorf("POST /query: status %d", resp.StatusCode)
	}
}

// TestServePlanParam: ?plan=1 returns the plan, absent and false values
// omit it, and a malformed value is the client's error (400), not a
// silent "no plan".
func TestServePlanParam(t *testing.T) {
	_, rt := testRuntime(t, core.DefaultOptions())
	ts := httptest.NewServer(newServer(rt, Config{MaxConcurrent: 4}))
	defer ts.Close()

	get := func(t *testing.T, plan string) (*http.Response, queryResponse) {
		t.Helper()
		u := ts.URL + "/query?q=" + url.QueryEscape(`SELECT name FROM country WHERE continent = 'Europe'`)
		if plan != "" {
			u += "&plan=" + url.QueryEscape(plan)
		}
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qr queryResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
				t.Fatal(err)
			}
		}
		return resp, qr
	}

	if resp, qr := get(t, "1"); resp.StatusCode != http.StatusOK || qr.Plan == "" {
		t.Errorf("plan=1: status %d, plan %q", resp.StatusCode, qr.Plan)
	}
	if resp, qr := get(t, "true"); resp.StatusCode != http.StatusOK || qr.Plan == "" {
		t.Errorf("plan=true: status %d, plan %q", resp.StatusCode, qr.Plan)
	}
	if resp, qr := get(t, "0"); resp.StatusCode != http.StatusOK || qr.Plan != "" {
		t.Errorf("plan=0: status %d, plan %q", resp.StatusCode, qr.Plan)
	}
	if resp, qr := get(t, ""); resp.StatusCode != http.StatusOK || qr.Plan != "" {
		t.Errorf("plan absent: status %d, plan %q", resp.StatusCode, qr.Plan)
	}
	resp, _ := get(t, "frobnicate")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("plan=frobnicate: status %d, want 400", resp.StatusCode)
	}
}

// TestServeCancelledQueuedCounters is the -race regression for the
// admission-gate accounting: requests cancelled while queued must leave
// the waiting gauge at zero and never count toward queries_served. Each
// request is queued before the next is sent, and none is cancelled
// before all are queued, so every one of them is cancelled while it
// waits.
func TestServeCancelledQueuedCounters(t *testing.T) {
	r, err := bench.NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.CacheEnabled = false
	release := make(chan struct{})
	rt, err := r.Runtime(&gatedTestLLM{inner: r.Model(simllm.ChatGPT), release: release}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// maxQueue must exceed the cancelled burst: every request is meant to
	// queue (then be abandoned), not be shed up front.
	srv := newServer(rt, Config{MaxConcurrent: 1, MaxQueue: 16})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Occupy the single slot.
	done := make(chan struct{})
	go func() {
		defer close(done)
		postQuery(t, ts, `SELECT name FROM country WHERE continent = 'Europe'`)
	}()
	waitFor(t, func() bool { return srv.active.Load() == 1 })

	// A burst of queued requests all abandoned by their clients.
	const cancelled = 6
	cancels := make([]context.CancelFunc, 0, cancelled)
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	errs := make(chan error, cancelled)
	for i := 0; i < cancelled; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels = append(cancels, cancel)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/query?q=SELECT+name+FROM+country", nil)
		go func() {
			_, err := http.DefaultClient.Do(req)
			errs <- err
		}()
		waitFor(t, func() bool { return srv.waiting.Load() == int64(i+1) })
	}
	for _, cancel := range cancels {
		cancel()
	}
	for range cancelled {
		if err := <-errs; err == nil {
			t.Error("cancelled queued request returned without error")
		}
	}
	waitFor(t, func() bool { return srv.waiting.Load() == 0 })

	close(release)
	<-done

	var st serverStats
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Waiting != 0 {
		t.Errorf("waiting gauge leaked: %d, want 0", st.Waiting)
	}
	if st.QueriesServed != 1 {
		t.Errorf("queries_served = %d, want 1 (cancelled-while-queued requests must not count)", st.QueriesServed)
	}
	if st.Active != 0 {
		t.Errorf("active gauge leaked: %d, want 0", st.Active)
	}
}

// TestServeResultCache: with the result cache on, a repeated query is
// answered with cached=true and zero prompts, /stats exposes the
// hit/miss/entry counters, and a rebind (epoch bump) re-executes.
func TestServeResultCache(t *testing.T) {
	opts := core.DefaultOptions()
	opts.CacheEnabled = false
	opts.ResultCacheEnabled = true
	r, rt := testRuntime(t, opts)
	ts := httptest.NewServer(newServer(rt, Config{MaxConcurrent: 4}))
	defer ts.Close()

	const sql = `SELECT name FROM country WHERE continent = 'Europe'`
	resp1, qr1 := postQuery(t, ts, sql)
	if resp1.StatusCode != http.StatusOK || qr1.Cached != false {
		t.Fatalf("cold query: status %d, cached %v", resp1.StatusCode, qr1.Cached)
	}
	resp2, qr2 := postQuery(t, ts, sql)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("hot query: status %d", resp2.StatusCode)
	}
	if qr2.Cached != "exact" || qr2.Stats.Prompts != 0 {
		t.Errorf("hot query: cached=%v prompts=%d, want \"exact\" with 0 prompts", qr2.Cached, qr2.Stats.Prompts)
	}
	if fmt.Sprint(qr2.Rows) != fmt.Sprint(qr1.Rows) {
		t.Errorf("cached rows diverged:\n%v\nwant:\n%v", qr2.Rows, qr1.Rows)
	}

	var st serverStats
	statsResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ResultCacheStats.Hits != 1 || st.ResultCacheStats.Misses != 1 || st.ResultCacheStats.Entries != 1 {
		t.Errorf("result cache stats = %d/%d/%d, want 1/1/1",
			st.ResultCacheStats.Hits, st.ResultCacheStats.Misses, st.ResultCacheStats.Entries)
	}

	// A rebind invalidates: the same SQL re-executes.
	epochBefore := st.TableEpochs["llm:country"]
	if err := rt.BindLLMTable(r.World.Table("country").Def); err != nil {
		t.Fatal(err)
	}
	resp3, qr3 := postQuery(t, ts, sql)
	if resp3.StatusCode != http.StatusOK || qr3.Cached != false || qr3.Stats.Prompts == 0 {
		t.Errorf("post-rebind query: status %d cached=%v prompts=%d, want fresh execution",
			resp3.StatusCode, qr3.Cached, qr3.Stats.Prompts)
	}
	if fmt.Sprint(qr3.Rows) != fmt.Sprint(qr1.Rows) {
		t.Errorf("post-rebind rows diverged:\n%v\nwant:\n%v", qr3.Rows, qr1.Rows)
	}
	statsResp2, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp2.Body.Close()
	var st2 serverStats
	if err := json.NewDecoder(statsResp2.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	if got := st2.TableEpochs["llm:country"]; got <= epochBefore {
		t.Errorf("table_epochs[llm:country] did not advance on rebind: %d -> %d", epochBefore, got)
	}
}

// TestServeResultCacheSubsumption: a query subsumed by a cached
// relation's plan is answered with cached="subsumed" and zero prompts —
// including a truncating LIMIT query, which the exact tier never serves
// — and /stats exposes the subsumed-hit counter and per-table epochs.
func TestServeResultCacheSubsumption(t *testing.T) {
	opts := core.DefaultOptions()
	opts.CacheEnabled = false
	opts.ResultCacheEnabled = true
	_, rt := testRuntime(t, opts)
	ts := httptest.NewServer(newServer(rt, Config{MaxConcurrent: 4}))
	defer ts.Close()

	// The parent populates the cache with a producer-shaped relation.
	respP, qrP := postQuery(t, ts, `SELECT name, continent FROM country`)
	if respP.StatusCode != http.StatusOK || qrP.Cached != false || qrP.Stats.Prompts == 0 {
		t.Fatalf("parent query: status %d cached=%v prompts=%d", respP.StatusCode, qrP.Cached, qrP.Stats.Prompts)
	}

	// Children: a projection subset with a residual key-column filter
	// (non-key LLM attribute predicates are answered by boolean prompts
	// and never run locally), and a truncating LIMIT consumer.
	for _, child := range []string{
		`SELECT name FROM country WHERE name != 'Atlantis'`,
		`SELECT name, continent FROM country LIMIT 3`,
	} {
		resp, qr := postQuery(t, ts, child)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("child %q: status %d", child, resp.StatusCode)
		}
		if qr.Cached != "subsumed" || qr.Stats.Prompts != 0 {
			t.Errorf("child %q: cached=%v prompts=%d, want \"subsumed\" with 0 prompts",
				child, qr.Cached, qr.Stats.Prompts)
		}
	}

	var st serverStats
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ResultCacheStats.SubsumedHits != 2 {
		t.Errorf("result_cache_subsumed_hits = %d, want 2", st.ResultCacheStats.SubsumedHits)
	}
	if st.ResultCacheStats.Bytes <= 0 {
		t.Errorf("result_cache_bytes = %d, want > 0", st.ResultCacheStats.Bytes)
	}
	if st.TableEpochs == nil {
		t.Error("table_epochs missing from /stats")
	}
}

// gatedTestLLM blocks every completion until released.
type gatedTestLLM struct {
	inner   llm.Client
	release chan struct{}
}

func (g *gatedTestLLM) Name() string { return g.inner.Name() }
func (g *gatedTestLLM) Complete(ctx context.Context, p string) (string, error) {
	select {
	case <-g.release:
	case <-ctx.Done():
		return "", ctx.Err()
	}
	return g.inner.Complete(ctx, p)
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestServeBodyTooLarge: a request body past the 1 MiB bound answers
// 413 instead of being silently truncated to a SQL prefix — and a body
// exactly at the bound still parses and executes.
func TestServeBodyTooLarge(t *testing.T) {
	opts := core.DefaultOptions()
	opts.CacheEnabled = false
	_, rt := testRuntime(t, opts)
	ts := httptest.NewServer(newServer(rt, Config{MaxConcurrent: 4}))
	defer ts.Close()

	// One byte over: 413, and the error names the limit.
	sql := "SELECT name FROM country"
	over := sql + strings.Repeat(" ", maxBodyBytes-len(sql)+1)
	resp, _ := postQuery(t, ts, over)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}

	// Exactly at the limit: the (whitespace-padded) statement executes.
	atLimit := sql + strings.Repeat(" ", maxBodyBytes-len(sql))
	resp, qr := postQuery(t, ts, atLimit)
	if resp.StatusCode != http.StatusOK || qr.RowCount == 0 {
		t.Fatalf("at-limit body: status %d rows %d, want 200 with rows", resp.StatusCode, qr.RowCount)
	}

	// A chunked body (no Content-Length, so ContentLength == -1 on the
	// server) is held to the same bound.
	srv := newServer(rt, Config{MaxConcurrent: 4})
	var length atomic.Int64
	chunked := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		length.Store(r.ContentLength)
		srv.ServeHTTP(w, r)
	}))
	defer chunked.Close()
	for _, tc := range []struct {
		body string
		want int
	}{{atLimit, http.StatusOK}, {over, http.StatusRequestEntityTooLarge}} {
		// A MultiReader has no known length: the client sends it chunked.
		resp, err := http.Post(chunked.URL+"/query", "text/plain", io.MultiReader(strings.NewReader(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := length.Load(); got != -1 {
			t.Fatalf("fixture: server saw ContentLength %d, want -1 (chunked)", got)
		}
		if resp.StatusCode != tc.want {
			t.Errorf("chunked %d-byte body: status %d, want %d", len(tc.body), resp.StatusCode, tc.want)
		}
	}
}

// TestServeBodyShortOfDeclaredLength: a client that declares a
// Content-Length and sends fewer bytes gets a 400, and the server never
// allocates the declared length ahead of the bytes that arrive.
func TestServeBodyShortOfDeclaredLength(t *testing.T) {
	opts := core.DefaultOptions()
	opts.CacheEnabled = false
	_, rt := testRuntime(t, opts)
	ts := httptest.NewServer(newServer(rt, Config{MaxConcurrent: 4}))
	defer ts.Close()
	const sql = "SELECT name FROM country"

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(conn, "POST /query HTTP/1.1\r\nHost: galois\r\nContent-Type: text/plain\r\nContent-Length: %d\r\n\r\n%s", maxBodyBytes, sql)
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short body: status %d, want %d", resp.StatusCode, http.StatusBadRequest)
	}

	// The same request straight into querySQL: the body ends early, as
	// the server's body reader reports it, after a 1 MiB declaration.
	const n = 16
	reqs := make([]*http.Request, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/query",
			io.MultiReader(strings.NewReader(sql), iotest.ErrReader(io.ErrUnexpectedEOF)))
		reqs[i].ContentLength = maxBodyBytes
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, req := range reqs {
		if _, err := querySQL(req, url.Values{}); err == nil {
			t.Fatal("a body short of its declared length was accepted")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > maxBodyBytes/8 {
		t.Errorf("querySQL allocated %d bytes per short body, want far below the declared %d", per, maxBodyBytes)
	}
}

// TestServeWarmRestart: two server generations over the same -data-dir.
// The second serves the first's query from the warm-loaded result cache
// (zero prompts) and reports the restore on /stats.
func TestServeWarmRestart(t *testing.T) {
	opts := core.DefaultOptions()
	opts.CacheEnabled = false
	opts.ResultCacheEnabled = true
	dir := t.TempDir()
	sql := "SELECT name FROM country WHERE continent = 'Europe'"

	_, rt1 := testRuntime(t, opts)
	if err := rt1.OpenStore(core.StoreConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(newServer(rt1, Config{MaxConcurrent: 4}))
	resp, cold := postQuery(t, ts1, sql)
	if resp.StatusCode != http.StatusOK || cold.Stats.Prompts == 0 {
		t.Fatalf("cold query: status %d prompts %d", resp.StatusCode, cold.Stats.Prompts)
	}
	ts1.Close()
	if err := rt1.CloseStore(); err != nil {
		t.Fatal(err)
	}

	_, rt2 := testRuntime(t, opts)
	if err := rt2.OpenStore(core.StoreConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	defer rt2.CloseStore()
	ts2 := httptest.NewServer(newServer(rt2, Config{MaxConcurrent: 4}))
	defer ts2.Close()

	resp, warm := postQuery(t, ts2, sql)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm query: status %d", resp.StatusCode)
	}
	if warm.Stats.Prompts != 0 || warm.Cached != "exact" {
		t.Errorf("warm query not served from the restored cache: prompts=%d cached=%v",
			warm.Stats.Prompts, warm.Cached)
	}
	if len(warm.Rows) != len(cold.Rows) {
		t.Errorf("warm relation diverged: %d rows, want %d", len(warm.Rows), len(cold.Rows))
	}

	sresp, err := http.Get(ts2.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st serverStats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Persistence.Enabled || st.Persistence.WarmRelations != 1 {
		t.Errorf("/stats persistence = %+v, want enabled with 1 warm relation", st.Persistence)
	}
}

// TestServeRouteVerify: ?route=verify=<backend> turns verification on
// for that request: the named backend answers one prompt per fetched
// value, and a value it disagrees with comes back NULL.
func TestServeRouteVerify(t *testing.T) {
	cfg, err := config.Parse("default: strong\nbackends:\n  - name: strong\n    model: chatgpt\n  - name: checker\n    model: flan\n")
	if err != nil {
		t.Fatal(err)
	}
	r, err := bench.NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.CacheEnabled = false
	rt, err := r.RuntimeFromConfig(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(rt, Config{MaxConcurrent: 4}))
	defer ts.Close()

	get := func(route string) queryResponse {
		t.Helper()
		u := ts.URL + "/query?q=" + url.QueryEscape(`SELECT name, population FROM city`)
		if route != "" {
			u += "&route=" + url.QueryEscape(route)
		}
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qr queryResponse
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("route=%q: status %d", route, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		return qr
	}
	checker, _ := rt.Registry().Get("checker")
	plain := get("")
	if checker.Prompts() != 0 {
		t.Fatalf("an unrouted request sent %d prompts to the checker", checker.Prompts())
	}
	verified := get("verify=checker")
	if n := checker.Prompts(); n != int64(verified.Stats.Prompts-plain.Stats.Prompts) || n != int64(plain.RowCount) {
		t.Errorf("checker answered %d prompts; want one per fetched row (%d), the request's extra %d", n, plain.RowCount, verified.Stats.Prompts-plain.Stats.Prompts)
	}
	if verified.RowCount != plain.RowCount {
		t.Fatalf("verified rows = %d, want %d", verified.RowCount, plain.RowCount)
	}
	nulled := 0
	for i, row := range verified.Rows {
		switch {
		case row[1] == plain.Rows[i][1]:
		case row[1] == "NULL":
			nulled++
		default:
			t.Errorf("row %d: verified %v, want %v or a NULL population", i, row, plain.Rows[i])
		}
	}
	if nulled == 0 {
		t.Error("verification NULLed no value")
	}
}

// TestServeRouteParam: on a routed runtime a valid ?route= override
// answers 200 and sends the routed role's prompts to its backend; an
// unknown role, an undeclared backend, a malformed entry or an empty list
// answers 400.
func TestServeRouteParam(t *testing.T) {
	cfg, err := config.Parse("default: strong\nbackends:\n  - name: cheap\n    model: chatgpt\n  - name: strong\n    model: chatgpt\n")
	if err != nil {
		t.Fatal(err)
	}
	r, err := bench.NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.CacheEnabled = false
	rt, err := r.RuntimeFromConfig(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(rt, Config{MaxConcurrent: 4}))
	defer ts.Close()

	q := url.QueryEscape(`SELECT name FROM country WHERE continent = 'Europe'`)
	for _, tc := range []struct {
		route string
		want  int
	}{
		{"keyscan=cheap, filter=cheap", http.StatusOK},
		{"scan=cheap", http.StatusBadRequest},
		{"keyscan=ghost", http.StatusBadRequest},
		{"keyscan", http.StatusBadRequest},
		{" , ", http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + "/query?q=" + q + "&route=" + url.QueryEscape(tc.route))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("route=%q: status %d, want %d", tc.route, resp.StatusCode, tc.want)
		}
	}
	for _, b := range rt.Stats().Backends {
		if b.Name == "cheap" && b.Prompts == 0 {
			t.Error("the routed query sent no prompts to backend cheap")
		}
	}
}
