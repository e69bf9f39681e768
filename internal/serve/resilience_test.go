package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/faultllm"
	"repro/internal/llm"
	"repro/internal/simllm"
)

// getHealth fetches /healthz and decodes it.
func getHealth(t *testing.T, ts *httptest.Server) (*http.Response, healthResponse) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	return resp, hr
}

// TestServeHealthzReadiness: /healthz reports per-endpoint breaker
// state, turns 503 when every backend's breaker is open, and recovers
// to 200 once a half-open probe heals the endpoint.
func TestServeHealthzReadiness(t *testing.T) {
	r, err := bench.NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.CacheEnabled = false
	opts.Retries = -1 // fail fast: each failed prompt feeds the breaker
	opts.BreakerThreshold = 2
	opts.BreakerCooldown = 20 * time.Millisecond
	inj := faultllm.Wrap(r.Model(simllm.ChatGPT), faultllm.Profile{Seed: 1})
	rt, err := r.Runtime(inj, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(rt, Config{MaxConcurrent: 4}))
	defer ts.Close()

	// Healthy: one endpoint, breaker closed, 200.
	resp, hr := getHealth(t, ts)
	if resp.StatusCode != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("healthy: status=%d body=%+v", resp.StatusCode, hr)
	}
	if len(hr.Endpoints) != 1 || hr.Endpoints[0].Breaker != "closed" {
		t.Fatalf("healthy endpoints = %+v", hr.Endpoints)
	}

	// Total outage: failed queries trip the breaker.
	inj.SetOutage(true)
	for i := 0; i < 3; i++ {
		resp, _ := postQuery(t, ts, `SELECT name FROM country WHERE continent = 'Europe'`)
		if resp.StatusCode == http.StatusOK {
			t.Fatal("query succeeded during a total outage")
		}
	}
	resp, hr = getHealth(t, ts)
	if resp.StatusCode != http.StatusServiceUnavailable || hr.Status != "unavailable" {
		t.Fatalf("during outage: status=%d body=%+v, want 503/unavailable", resp.StatusCode, hr)
	}
	if hr.Endpoints[0].Breaker != "open" {
		t.Fatalf("breaker = %q, want open", hr.Endpoints[0].Breaker)
	}

	// While open, queries are shed with 503 + Retry-After.
	shedResp, _ := postQuery(t, ts, `SELECT name FROM country WHERE continent = 'Europe'`)
	if shedResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed query: status %d, want 503", shedResp.StatusCode)
	}
	if shedResp.Header.Get("Retry-After") == "" {
		t.Fatal("breaker-shed response missing Retry-After")
	}

	// Backend heals; after the cooldown a probe closes the breaker and
	// readiness returns.
	inj.SetOutage(false)
	time.Sleep(30 * time.Millisecond)
	okResp, _ := postQuery(t, ts, `SELECT name FROM country WHERE continent = 'Europe'`)
	if okResp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery query: status %d, want 200", okResp.StatusCode)
	}
	resp, hr = getHealth(t, ts)
	if resp.StatusCode != http.StatusOK || hr.Status != "ok" || hr.Endpoints[0].Breaker != "closed" {
		t.Fatalf("after recovery: status=%d body=%+v, want 200/ok/closed", resp.StatusCode, hr)
	}
}

// TestServeQueryTimeout: a query that outlives -query-timeout answers
// 504 and releases its execution slot.
func TestServeQueryTimeout(t *testing.T) {
	r, err := bench.NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.CacheEnabled = false
	release := make(chan struct{})
	defer close(release)
	rt, err := r.Runtime(&gatedTestLLM{inner: r.Model(simllm.ChatGPT), release: release}, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(rt, Config{MaxConcurrent: 2, QueryTimeout: 20 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, _ := postQuery(t, ts, `SELECT name FROM country WHERE continent = 'Europe'`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	waitFor(t, func() bool { return srv.active.Load() == 0 })
	if got := srv.timeouts.Load(); got != 1 {
		t.Fatalf("timeouts counter = %d, want 1", got)
	}
}

// TestServeQueueSaturation: requests past the bounded admission queue
// are shed immediately with 503 + Retry-After instead of queueing
// without bound, and the queue keeps working after the load passes.
func TestServeQueueSaturation(t *testing.T) {
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
	srv := newServer(rt, Config{MaxConcurrent: 1, MaxQueue: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Occupy the one execution slot, then the one queue spot.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postQuery(t, ts, `SELECT name FROM country WHERE continent = 'Europe'`)
	}()
	waitFor(t, func() bool { return srv.active.Load() == 1 })
	queuedCtx, cancelQueued := context.WithCancel(context.Background())
	defer cancelQueued()
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, _ := http.NewRequestWithContext(queuedCtx, http.MethodGet,
			ts.URL+"/query?q=SELECT+name+FROM+country", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool { return srv.waiting.Load() == 1 })

	// The next request finds both full and is shed at once.
	resp, err := http.Get(ts.URL + "/query?q=SELECT+name+FROM+country")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("saturated response missing Retry-After")
	}
	if got := srv.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	// Drain: the held queries finish and the server serves again.
	close(release)
	wg.Wait()
	if resp, _ := postQuery(t, ts, `SELECT name FROM country WHERE continent = 'Europe'`); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain query: status %d, want 200", resp.StatusCode)
	}

	var st serverStats
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.MaxQueue != 1 || st.Shed != 1 {
		t.Fatalf("stats degradation counters: %+v, want max_queue=1 shed=1", st)
	}
	if len(st.Resilience) == 0 {
		t.Fatal("/stats missing resilience endpoint snapshot")
	}
}

// TestServeIdleBurstNotShed: a simultaneous burst of maxConcurrent
// arrivals on an idle server must all be admitted straight into free
// execution slots — the queue bound applies only to requests that
// actually have to wait, so even maxQueue=1 must not shed any of them.
func TestServeIdleBurstNotShed(t *testing.T) {
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
	srv := newServer(rt, Config{MaxConcurrent: 4, MaxQueue: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Four requests land at once; the gated backend holds all of them
	// mid-execution so the burst genuinely overlaps.
	var wg sync.WaitGroup
	codes := make([]int, 4)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postQuery(t, ts, `SELECT name FROM country WHERE continent = 'Europe'`)
			codes[i] = resp.StatusCode
		}(i)
	}
	waitFor(t, func() bool { return srv.active.Load() == 4 })
	if got := srv.waiting.Load(); got != 0 {
		t.Fatalf("waiting = %d, want 0 — slot-admitted requests must not count as queued", got)
	}
	if got := srv.shed.Load(); got != 0 {
		t.Fatalf("shed = %d, want 0 — burst onto free slots must not be shed", got)
	}
	close(release)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("burst request %d: status %d, want 200", i, code)
		}
	}
}

// TestCongestedBreakers: Runtime.Congested allocates nothing, flips when one
// breaker opens — first the default backend's, then the second declared
// backend's, the verifier the verify role routes to — and stays set
// while that breaker is half-open.
func TestCongestedBreakers(t *testing.T) {
	for _, verifier := range []bool{false, true} {
		r, err := bench.NewRunner(1)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.CacheEnabled = false
		opts.Retries = -1
		opts.BreakerThreshold = 2
		opts.BreakerCooldown = 10 * time.Millisecond
		primary := faultllm.Wrap(r.Model(simllm.ChatGPT), faultllm.Profile{Seed: 1})
		checker := faultllm.Wrap(r.Model(simllm.GPT3), faultllm.Profile{Seed: 2})
		rt, err := core.NewRuntimeWithBackends([]core.BackendDef{
			{Name: "chatgpt", Client: primary},
			{Name: "gpt3", Client: checker},
		}, "chatgpt", map[string]string{"verify": "gpt3"}, opts)
		if err != nil {
			t.Fatal(err)
		}
		backend, failing := rt.Registry().Default(), primary
		if verifier {
			backend, _ = rt.Registry().Get("gpt3")
			failing = checker
		}
		if rt.Congested() {
			t.Fatalf("verifier=%v: congested before any failure", verifier)
		}
		if allocs := testing.AllocsPerRun(100, func() { rt.Congested() }); allocs != 0 {
			t.Errorf("verifier=%v: Congested() = %.0f allocs, want 0", verifier, allocs)
		}
		failing.SetOutage(true)
		for i := 0; i < opts.BreakerThreshold; i++ {
			if _, err := backend.Complete(context.Background(), "prompt"); err == nil {
				t.Fatalf("verifier=%v: a call succeeded during an outage", verifier)
			}
		}
		rc, _ := backend.Resilience()
		if rc.State() != llm.BreakerOpen || !rt.Congested() {
			t.Fatalf("verifier=%v: breaker %s, congested %v; want open and congested", verifier, rc.State(), rt.Congested())
		}
		waitFor(t, func() bool { return rc.State() == llm.BreakerHalfOpen })
		if !rt.Congested() {
			t.Errorf("verifier=%v: a half-open breaker is not congestion", verifier)
		}
	}
}
