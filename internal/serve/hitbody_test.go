package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/simllm"
	"repro/internal/spider"
)

// encodings are the request parameters of every body slot an exact hit
// keeps: buffered JSON, NDJSON and SSE, each with and without the plan.
var encodings = []string{"", "plan=1", "stream=ndjson", "stream=ndjson&plan=1", "stream=sse", "stream=sse&plan=1"}

// serveBody runs one /query through h on a recorder (which flushes, so
// stream parameters stream) and returns the body of its 200 answer.
func serveBody(t testing.TB, h http.Handler, sql, params string) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/query?"+params, strings.NewReader(sql))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s?%s: status %d: %s", sql, params, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// isExact reports whether a body (buffered or streamed) is an exact hit's.
func isExact(body []byte) bool { return bytes.Contains(body, []byte(`"cached":"exact"`)) }

// uncached is a second front end over rt that encodes every hit afresh:
// the reference a kept body must equal byte for byte.
func uncached(rt *core.Runtime) *server {
	s := newServer(rt, Config{MaxConcurrent: 4})
	s.keepBodies = false
	return s
}

// TestServeExactHitBodiesIdentical: for every corpus statement and every
// encoding, the body an exact hit keeps — written by the hit that fills
// the slot and by every later one — is byte-identical to the same hit
// encoded on the uncached path.
func TestServeExactHitBodiesIdentical(t *testing.T) {
	_, rt := testRuntime(t, core.ServeOptions())
	kept, plain := newServer(rt, Config{MaxConcurrent: 4}), uncached(rt)
	for _, q := range spider.Queries() {
		serveBody(t, plain, q.SQL, "") // populate
		for _, enc := range encodings {
			want := serveBody(t, plain, q.SQL, enc)
			if !isExact(want) {
				t.Fatalf("%s?%s: the repeat is not an exact hit: %q", q.SQL, enc, want)
			}
			for _, pass := range []string{"filling", "kept"} {
				if got := serveBody(t, kept, q.SQL, enc); !bytes.Equal(got, want) {
					t.Fatalf("%s?%s: %s hit body differs from the uncached encoding:\n got %q\nwant %q", q.SQL, enc, pass, got, want)
				}
			}
		}
	}
}

// swapLLM answers with whichever model it currently holds, so a test can
// change what a re-execution returns.
type swapLLM struct{ cur atomic.Pointer[llm.Client] }

func (s *swapLLM) set(c llm.Client) { s.cur.Store(&c) }
func (s *swapLLM) Name() string     { return "swap" }
func (s *swapLLM) Complete(ctx context.Context, p string) (string, error) {
	return (*s.cur.Load()).Complete(ctx, p)
}

// TestServeHitBodyInvalidation: after a rebind and after ANALYZE
// (PrimeTableKeys) the statement re-executes, and the next hit serves the
// new relation's encoding — never the bytes kept on the old entry.
func TestServeHitBodyInvalidation(t *testing.T) {
	r, err := bench.NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	model := &swapLLM{}
	model.set(r.Model(simllm.ChatGPT))
	opts := core.ServeOptions()
	opts.CacheEnabled = false // every re-execution asks the current model
	rt, err := r.Runtime(model, opts)
	if err != nil {
		t.Fatal(err)
	}
	kept, plain := newServer(rt, Config{MaxConcurrent: 4}), uncached(rt)
	const sql = `SELECT name FROM country WHERE continent = 'Europe'`

	steps := []struct {
		name   string
		model  simllm.Profile
		change func() error
	}{
		{"rebind", simllm.GPT3, func() error { return rt.BindLLMTable(r.World.Table("country").Def) }},
		{"analyze", simllm.ChatGPT, func() error { rt.PrimeTableKeys("country", 40); return nil }},
	}
	serveBody(t, kept, sql, "")
	for _, enc := range encodings {
		serveBody(t, kept, sql, enc) // keep every encoding
	}
	for _, step := range steps {
		old := make(map[string][]byte, len(encodings))
		for _, enc := range encodings {
			old[enc] = serveBody(t, kept, sql, enc)
		}
		model.set(r.Model(step.model))
		if err := step.change(); err != nil {
			t.Fatal(err)
		}
		if fresh := serveBody(t, kept, sql, ""); isExact(fresh) {
			t.Fatalf("%s: the next query was an exact hit of the old entry", step.name)
		}
		for _, enc := range encodings {
			want := serveBody(t, plain, sql, enc)
			got := serveBody(t, kept, sql, enc)
			if !isExact(got) || !bytes.Equal(got, want) {
				t.Fatalf("%s ?%s: hit body %q, want the current entry's %q", step.name, enc, got, want)
			}
			if bytes.Equal(got, old[enc]) {
				t.Fatalf("%s ?%s: the hit served the old entry's bytes", step.name, enc)
			}
		}
	}
}

// TestServeHitBodyBytes: /stats result_cache_bytes counts a kept body —
// the filling hit adds exactly its length, later hits nothing — evicting
// the entry frees it, and a body that does not fit -result-cache-bytes
// evicts nothing and is served anyway.
func TestServeHitBodyBytes(t *testing.T) {
	const a = `SELECT name FROM country WHERE continent = 'Europe'`
	const b = `SELECT name FROM country WHERE continent = 'Asia'`
	bytesOf := func(rt *core.Runtime) int { return rt.Stats().ResultCacheStats.Bytes }

	opts := core.ServeOptions()
	opts.CacheEnabled = false
	opts.ResultCacheSize = 1
	_, rt := testRuntime(t, opts)
	srv := newServer(rt, Config{MaxConcurrent: 4})
	serveBody(t, srv, b, "")
	bOnly := bytesOf(rt)
	serveBody(t, srv, a, "") // evicts b
	inserted := bytesOf(rt)
	body := serveBody(t, srv, a, "")
	if got := bytesOf(rt); got != inserted+len(body) {
		t.Errorf("bytes after the filling hit = %d, want %d + %d", got, inserted, len(body))
	}
	serveBody(t, srv, a, "")
	if got := bytesOf(rt); got != inserted+len(body) {
		t.Errorf("bytes after a kept hit = %d, want %d", got, inserted+len(body))
	}
	serveBody(t, srv, b, "") // evicts a with its body
	if got := bytesOf(rt); got != bOnly {
		t.Errorf("bytes after evicting the bodied entry = %d, want %d", got, bOnly)
	}

	// A budget that holds both entries but not a body beside them.
	opts.ResultCacheSize = 16
	opts.ResultCacheBytes = inserted + bOnly + 8
	_, tight := testRuntime(t, opts)
	srv, plain := newServer(tight, Config{MaxConcurrent: 4}), uncached(tight)
	serveBody(t, srv, a, "")
	serveBody(t, srv, b, "")
	before := tight.Stats().ResultCacheStats
	if before.Entries != 2 {
		t.Fatalf("fixture: %d entries resident, want 2", before.Entries)
	}
	if got, want := serveBody(t, srv, a, ""), serveBody(t, plain, a, ""); !isExact(got) || !bytes.Equal(got, want) {
		t.Errorf("over-budget hit served %q, want %q", got, want)
	}
	if after := tight.Stats().ResultCacheStats; after.Entries != before.Entries || after.Bytes != before.Bytes {
		t.Errorf("an over-budget body moved the cache: %+v -> %+v", before, after)
	}
}

// countingRecorder is a recorder that counts the writes, write
// deadlines and flushes a response makes.
type countingRecorder struct {
	*httptest.ResponseRecorder
	writes, deadlines, flushes int
}

func (c *countingRecorder) Write(b []byte) (int, error) {
	c.writes++
	return c.ResponseRecorder.Write(b)
}

func (c *countingRecorder) SetWriteDeadline(time.Time) error {
	c.deadlines++
	return nil
}

func (c *countingRecorder) Flush() {
	c.flushes++
	c.ResponseRecorder.Flush()
}

// TestServeDeclinedSlotStreams: a streamed exact hit whose body does not
// fit -result-cache-bytes is served whole once (the filling hit), and
// from then on frame by frame, as a miss is, rather than encoded whole
// again; a kept body leaves in one flush. Every answer is byte-identical
// to the uncached encoding.
func TestServeDeclinedSlotStreams(t *testing.T) {
	const sql = `SELECT name FROM country WHERE continent = 'Europe'`
	stream := func(h http.Handler) *countingRecorder {
		t.Helper()
		rec := &countingRecorder{ResponseRecorder: httptest.NewRecorder()}
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query?stream=ndjson", strings.NewReader(sql)))
		if rec.Code != http.StatusOK || !isExact(rec.Body.Bytes()) {
			t.Fatalf("status %d, body %q: want a 200 exact hit", rec.Code, rec.Body)
		}
		return rec
	}

	opts := core.ServeOptions()
	opts.CacheEnabled = false
	_, rt := testRuntime(t, opts)
	serveBody(t, newServer(rt, Config{MaxConcurrent: 4}), sql, "")
	opts.ResultCacheBytes = rt.Stats().ResultCacheStats.Bytes + 8 // the entry, not its body
	for _, tc := range []struct {
		name    string
		opts    core.Options
		flushes func(frames int) int
	}{
		{"kept", core.ServeOptions(), func(int) int { return 1 }},
		{"declined", opts, func(frames int) int { return frames }},
	} {
		_, rt := testRuntime(t, tc.opts)
		srv, plain := newServer(rt, Config{MaxConcurrent: 4}), uncached(rt)
		serveBody(t, srv, sql, "") // populate
		want := serveBody(t, plain, sql, "stream=ndjson")
		frames := bytes.Count(want, []byte("\n"))
		if got := stream(srv); got.flushes != 1 || !bytes.Equal(got.Body.Bytes(), want) {
			t.Errorf("%s: filling hit flushed %d times (want 1), body equal %v", tc.name, got.flushes, bytes.Equal(got.Body.Bytes(), want))
		}
		got := stream(srv)
		if got.flushes != tc.flushes(frames) || !bytes.Equal(got.Body.Bytes(), want) {
			t.Errorf("%s: next hit flushed %d times (want %d for %d frames), body equal %v",
				tc.name, got.flushes, tc.flushes(frames), frames, bytes.Equal(got.Body.Bytes(), want))
		}
	}
}

// TestFrameWriterSendChunks: a held stream leaves in chunks of at most
// sendChunk bytes, each under its own write deadline, and one flush.
func TestFrameWriterSendChunks(t *testing.T) {
	rec := &countingRecorder{ResponseRecorder: httptest.NewRecorder()}
	fw := &frameWriter{w: rec, rc: http.NewResponseController(rec), stall: time.Second, mode: streamNDJSON}
	body := bytes.Repeat([]byte("x"), 2*sendChunk+1)
	if err := fw.send(body); err != nil {
		t.Fatal(err)
	}
	if rec.writes != 3 || rec.deadlines != 3 || rec.flushes != 1 {
		t.Errorf("send: %d writes, %d deadlines, %d flushes; want 3, 3, 1", rec.writes, rec.deadlines, rec.flushes)
	}
	if !bytes.Equal(rec.Body.Bytes(), body) {
		t.Error("send wrote other bytes than it was given")
	}
}

// TestServeHitBodyConcurrentFill: concurrent first hits of one encoding
// all serve the same bytes, and the body is charged once.
func TestServeHitBodyConcurrentFill(t *testing.T) {
	_, rt := testRuntime(t, core.ServeOptions())
	srv, plain := newServer(rt, Config{MaxConcurrent: 16}), uncached(rt)
	const sql = `SELECT name FROM country WHERE continent = 'Europe'`
	for _, enc := range encodings {
		serveBody(t, srv, sql, "")
		want := serveBody(t, plain, sql, enc)
		before := rt.Stats().ResultCacheStats.Bytes
		const n = 8
		got := make([][]byte, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				req := httptest.NewRequest(http.MethodPost, "/query?"+enc, strings.NewReader(sql))
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				got[i] = rec.Body.Bytes()
			}(i)
		}
		wg.Wait()
		for i, b := range got {
			if !bytes.Equal(b, want) {
				t.Errorf("?%s: concurrent hit %d served %q, want %q", enc, i, b, want)
			}
		}
		if after := rt.Stats().ResultCacheStats.Bytes; after != before+len(want) {
			t.Errorf("?%s: bytes %d -> %d, want one body (%d) charged", enc, before, after, len(want))
		}
	}
}

// BenchmarkServeExactHit: one warm exact hit through server.ServeHTTP on
// a recorder, buffered and NDJSON — the whole per-request cost of hot
// repeat traffic short of the network.
func BenchmarkServeExactHit(b *testing.B) {
	_, rt := testRuntime(b, core.ServeOptions())
	srv := newServer(rt, Config{MaxConcurrent: 4})
	const sql = `SELECT name, population FROM city WHERE population > 1000000`
	for _, mode := range []struct{ name, params string }{{"buffered", ""}, {"ndjson", "stream=ndjson"}} {
		b.Run(mode.name, func(b *testing.B) {
			serveBody(b, srv, sql, mode.params)
			if !isExact(serveBody(b, srv, sql, mode.params)) {
				b.Fatal("warm request is not an exact hit")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/query?"+mode.params, strings.NewReader(sql))
				srv.ServeHTTP(httptest.NewRecorder(), req)
			}
		})
	}
}
