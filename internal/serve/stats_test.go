package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

// flattenJSON records every leaf of a decoded JSON value under its key
// path: object keys and array indexes joined by dots. An empty object or
// array is a leaf.
func flattenJSON(path string, v any, out map[string]any) {
	switch v := v.(type) {
	case map[string]any:
		if len(v) == 0 {
			out[path] = v
		}
		for k, e := range v {
			flattenJSON(path+"."+k, e, out)
		}
	case []any:
		if len(v) == 0 {
			out[path] = v
		}
		for i, e := range v {
			flattenJSON(path+"."+strconv.Itoa(i), e, out)
		}
	default:
		out[path] = v
	}
}

// decodeJSON decodes data into a generic JSON value.
func decodeJSON(t *testing.T, data []byte) any {
	t.Helper()
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// getFlat flattens the JSON body of one GET into out under path.
func getFlat(t *testing.T, url, path string, out map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	flattenJSON(path, v, out)
}

// TestServeStatsWire pins /stats and /healthz on a routed runtime with a
// durable store, after a miss, its exact repeat, a batch-class query and
// an ad-hoc one: the key paths are exactly testdata/stats_keys.txt, so
// no key a client decodes (benchmark/server.go's among them) can
// disappear, and every runtime value on both endpoints is the one
// rt.Stats() reports.
func TestServeStatsWire(t *testing.T) {
	r, err := bench.NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	rt, _, err := r.RuntimeFor("chatgpt", "../../galois.yaml", core.ServeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.OpenStore(core.StoreConfig{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	defer rt.CloseStore()
	ts := httptest.NewServer(newServer(rt, Config{MaxConcurrent: 4}))
	defer ts.Close()

	europe := url.QueryEscape(`SELECT name FROM country WHERE continent = 'Europe'`)
	queries := []string{
		"q=" + europe,
		"q=" + europe,
		"class=batch&q=" + url.QueryEscape(`SELECT name FROM city WHERE population > 1000000`),
		"q=" + url.QueryEscape(`SELECT name FROM city WHERE population > 2000000`),
	}
	for _, q := range queries {
		resp, err := http.Get(ts.URL + "/query?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", q, resp.StatusCode)
		}
	}
	// No slot may still be granting when the two views are compared.
	waitFor(t, func() bool {
		g := rt.Stats().Sched
		return g.Interactive.Busy+g.Interactive.Queued+g.Batch.Busy+g.Batch.Queued == 0
	})

	got := map[string]any{}
	getFlat(t, ts.URL+"/stats", "/stats", got)
	getFlat(t, ts.URL+"/healthz", "/healthz", got)

	golden, err := os.ReadFile("testdata/stats_keys.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(golden))
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range want {
		if _, ok := slices.BinarySearch(keys, k); !ok {
			t.Errorf("key %s missing", k)
		}
	}
	for _, k := range keys {
		if _, ok := slices.BinarySearch(want, k); !ok {
			t.Errorf("key %s not in testdata/stats_keys.txt", k)
		}
	}

	st := rt.Stats()
	body, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := json.Marshal(st.Resilience)
	if err != nil {
		t.Fatal(err)
	}
	snap := map[string]any{}
	flattenJSON("/stats", decodeJSON(t, body), snap)
	flattenJSON("/healthz.endpoints", decodeJSON(t, eps), snap)
	for k, v := range snap {
		if !reflect.DeepEqual(got[k], v) {
			t.Errorf("%s = %v, rt.Stats() has %v", k, got[k], v)
		}
	}
	if n := got["/stats.queries_served"]; n != float64(len(queries)) {
		t.Errorf("queries_served = %v, want %d", n, len(queries))
	}
	if s := got["/healthz.status"]; s != "ok" {
		t.Errorf("healthz status = %v, want ok", s)
	}
}
