package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/simllm"
	"repro/internal/spider"
)

// response builds the buffered JSON response of one query from the
// relation and report Session.Query returns: the reference every
// encoding of the one delivery path is checked against.
func response(rel *schema.Relation, rep *core.Report, wantPlan bool) queryResponse {
	resp := queryResponse{
		Rows:     make([][]string, 0, rel.Cardinality()),
		RowCount: rel.Cardinality(),
		Cached:   cachedJSON(rep.Cached),
		Stats:    statsJSON(rep),
	}
	resp.Columns, resp.Types = columnsJSON(rel.Schema)
	for _, row := range rel.Rows {
		resp.Rows = append(resp.Rows, cellsJSON(row))
	}
	if wantPlan {
		resp.Plan = rep.Plan
	}
	return resp
}

// encode is json.NewEncoder(...).Encode of v.
func encode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fromFrames rebuilds the buffered response an NDJSON or SSE body
// carries: the header's schema and cache outcome, the rows' cells and
// the stats frame's count, plan and usage.
func fromFrames(t *testing.T, body []byte, sse bool) queryResponse {
	t.Helper()
	resp := queryResponse{Rows: [][]string{}}
	var types []string
	for _, line := range strings.Split(string(body), "\n") {
		if sse {
			data, ok := strings.CutPrefix(line, "data: ")
			if !ok {
				continue
			}
			line = data
		}
		if line == "" {
			continue
		}
		var f streamFrame
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		types = append(types, f.Type)
		switch f.Type {
		case "header":
			resp.Columns, resp.Types, resp.Cached = f.Columns, f.Types, f.Cached
		case "row":
			resp.Rows = append(resp.Rows, f.Cells)
		case "stats":
			resp.RowCount, resp.Plan, resp.Stats = f.RowCount, f.Plan, f.Stats
		default:
			t.Fatalf("unexpected frame %q", line)
		}
	}
	if len(types) < 2 || types[0] != "header" || types[len(types)-1] != "stats" {
		t.Fatalf("frame sequence %v, want header, rows, stats", types)
	}
	return resp
}

// TestServeEncodingsMatchReference: every corpus statement, as a first
// run (a miss, or a subsumed hit over an earlier statement's relation),
// an exact hit (the filling hit and a kept one) and a LIMIT child (a
// subsumed hit where the planner can answer it from the cached relation),
// in all six encodings. A buffered body is byte-identical to
// json.Encoder.Encode of the queryResponse built from Session.Query on an
// identical runtime that ran the same statements in the same order; a
// stream's frames carry exactly that response's schema, rows and stats.
func TestServeEncodingsMatchReference(t *testing.T) {
	misses, subsumed := 0, 0
	for _, enc := range encodings {
		wantPlan := strings.Contains(enc, "plan=1")
		streamed, sse := strings.Contains(enc, "stream="), strings.Contains(enc, "stream=sse")
		_, rt := testRuntime(t, core.ServeOptions())
		_, refRT := testRuntime(t, core.ServeOptions())
		srv, ref := newServer(rt, Config{MaxConcurrent: 4}), refRT.NewSession()
		check := func(sql string, hits int) core.CacheOutcome {
			t.Helper()
			rel, rep, err := ref.Query(context.Background(), sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			want := encode(t, response(rel, rep, wantPlan))
			for i := 0; i < hits; i++ {
				got := serveBody(t, srv, sql, enc)
				if streamed {
					got = encode(t, fromFrames(t, got, sse))
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s?%s (request %d): body differs from the reference:\n got %q\nwant %q", sql, enc, i+1, got, want)
				}
			}
			return rep.Cached
		}
		for _, q := range spider.Queries() {
			// The first run is a miss, or a subsumed hit where an earlier
			// statement's relation answers it.
			if got := check(q.SQL, 1); got == core.CacheExact {
				t.Fatalf("%s: first run was an exact hit", q.SQL)
			} else if got == core.CacheNone {
				misses++
			}
			if got := check(q.SQL, 2); got != core.CacheExact {
				t.Fatalf("%s: repeat cached = %q, want an exact hit", q.SQL, got)
			}
			if check(q.SQL+" LIMIT 3", 1) == core.CacheSubsumed {
				subsumed++
			}
		}
	}
	if misses == 0 || subsumed == 0 {
		t.Fatalf("%d misses and %d subsumed LIMIT children, want some of each", misses, subsumed)
	}
}

// failOnLLM fails every prompt containing fail and answers the rest.
type failOnLLM struct {
	inner llm.Client
	fail  string
}

func (f failOnLLM) Name() string { return f.inner.Name() }
func (f failOnLLM) Complete(ctx context.Context, p string) (string, error) {
	if strings.Contains(p, f.fail) {
		return "", errors.New("model backend unavailable")
	}
	return f.inner.Complete(ctx, p)
}

// TestServeBufferedFailureAfterRows: a query whose execution fails after
// it produced rows — the last city's population fetch fails — streams
// those rows and an in-band error frame, while the same query buffered
// answers 500 with the error alone: no partial body, never a 200.
func TestServeBufferedFailureAfterRows(t *testing.T) {
	const sql = `SELECT name, population FROM city WHERE population > 1000000`
	run := func(params string) *httptest.ResponseRecorder {
		r, err := bench.NewRunner(1)
		if err != nil {
			t.Fatal(err)
		}
		model := failOnLLM{inner: r.Model(simllm.ChatGPT), fail: "population of the city Singapore"}
		rt, err := r.Runtime(model, core.ServeOptions())
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		newServer(rt, Config{MaxConcurrent: 4}).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query?"+params, strings.NewReader(sql)))
		return rec
	}

	streamed := run("stream=ndjson")
	frames := readNDJSON(t, bufio.NewScanner(streamed.Body))
	last := frames[len(frames)-1]
	if streamed.Code != http.StatusOK || len(frames) < 3 || frames[1].Type != "row" || last.Type != "error" {
		t.Fatalf("streamed: status %d, frames %+v; want 200 with rows, then an error frame", streamed.Code, frames)
	}

	buffered := run("")
	if buffered.Code != http.StatusInternalServerError {
		t.Fatalf("buffered: status %d, want 500", buffered.Code)
	}
	if want := encode(t, errorResponse{Error: last.Error}); !bytes.Equal(buffered.Body.Bytes(), want) {
		t.Errorf("buffered body %q, want the error alone: %q", buffered.Body, want)
	}
}
