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
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/simllm"
)

// streamFrame is the union of every frame type, for decoding test
// streams line by line.
type streamFrame struct {
	Type     string     `json:"type"`
	Columns  []string   `json:"columns"`
	Types    []string   `json:"types"`
	Cached   any        `json:"cached"`
	Cells    []string   `json:"cells"`
	VTMS     float64    `json:"vt_ms"`
	RowCount int        `json:"row_count"`
	Plan     string     `json:"plan"`
	Stats    queryStats `json:"stats"`
	Error    string     `json:"error"`
}

// readNDJSON decodes every frame of an NDJSON response body.
func readNDJSON(t *testing.T, body *bufio.Scanner) []streamFrame {
	t.Helper()
	var frames []streamFrame
	for body.Scan() {
		line := strings.TrimSpace(body.Text())
		if line == "" {
			continue
		}
		var f streamFrame
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		frames = append(frames, f)
	}
	return frames
}

// TestServeStreamNDJSON: Accept: application/x-ndjson delivers the
// query as header / rows / stats frames carrying exactly the rows and
// accounting of the buffered response — and the first row's virtual
// availability time precedes the relation's completion, proving rows
// left the server before the full result existed (the whole point of
// streaming; checkable deterministically because time is simulated).
func TestServeStreamNDJSON(t *testing.T) {
	opts := core.DefaultOptions()
	opts.CacheEnabled = false
	_, rt := testRuntime(t, opts)
	ts := httptest.NewServer(newServer(rt, Config{MaxConcurrent: 4}))
	defer ts.Close()

	const sql = `SELECT name, population FROM city WHERE population > 1000000`

	// Buffered baseline on an identical, separate runtime.
	_, baseRT := testRuntime(t, opts)
	rel, rep, err := baseRT.NewSession().Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(sql))
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	frames := readNDJSON(t, bufio.NewScanner(resp.Body))
	if len(frames) < 3 {
		t.Fatalf("got %d frames, want header + rows + stats", len(frames))
	}
	head, tail := frames[0], frames[len(frames)-1]
	if head.Type != "header" {
		t.Fatalf("first frame type = %q, want header", head.Type)
	}
	if tail.Type != "stats" {
		t.Fatalf("last frame type = %q, want stats", tail.Type)
	}

	// Same schema, same rows, same order as the buffered path.
	if len(head.Columns) != rel.Schema.Len() {
		t.Fatalf("header columns = %v", head.Columns)
	}
	rowFrames := frames[1 : len(frames)-1]
	if len(rowFrames) != len(rel.Rows) || tail.RowCount != len(rel.Rows) {
		t.Fatalf("streamed %d rows (row_count %d), baseline has %d", len(rowFrames), tail.RowCount, len(rel.Rows))
	}
	for i, f := range rowFrames {
		if f.Type != "row" {
			t.Fatalf("frame %d type = %q, want row", i+1, f.Type)
		}
		for j, v := range rel.Rows[i] {
			if f.Cells[j] != v.String() {
				t.Fatalf("row %d = %v, want %v", i, f.Cells, rel.Rows[i])
			}
		}
	}
	if tail.Stats.Prompts != rep.Stats.Prompts {
		t.Errorf("streamed prompts = %d, buffered %d", tail.Stats.Prompts, rep.Stats.Prompts)
	}

	// The streaming claim, in virtual time: the first row was available
	// strictly before the relation finished, and availability is
	// monotone across the stream's head (rows are emitted as their
	// producing chains complete, not after the last one).
	first := rowFrames[0]
	if first.VTMS <= 0 || first.VTMS >= tail.Stats.SimulatedLatencyMS {
		t.Errorf("first row vt = %vms, want within (0, %vms): streaming must beat full-relation completion",
			first.VTMS, tail.Stats.SimulatedLatencyMS)
	}
	last := rowFrames[len(rowFrames)-1]
	if first.VTMS > last.VTMS {
		t.Errorf("row availability not monotone: first %vms, last %vms", first.VTMS, last.VTMS)
	}
}

// TestServeStreamSSE: ?stream=1 wraps the same frames in SSE events
// for EventSource clients.
func TestServeStreamSSE(t *testing.T) {
	opts := core.DefaultOptions()
	opts.CacheEnabled = false
	_, rt := testRuntime(t, opts)
	ts := httptest.NewServer(newServer(rt, Config{MaxConcurrent: 4}))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/query?stream=1", "text/plain",
		strings.NewReader(`SELECT name FROM country WHERE continent = 'Europe'`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q, want text/event-stream", ct)
	}

	// Walk the event stream: event lines name the frame, data lines
	// carry the JSON payload.
	var events []string
	var rows int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			events = append(events, ev)
			if ev == "row" {
				rows++
			}
		}
	}
	if len(events) < 3 || events[0] != "header" || events[len(events)-1] != "stats" {
		t.Fatalf("event sequence = %v, want header ... stats", events)
	}
	if rows == 0 {
		t.Fatal("no row events in SSE stream")
	}
}

// TestServeStreamBadParam: an unknown ?stream= value is a client
// error, not a silent fallback.
func TestServeStreamBadParam(t *testing.T) {
	opts := core.DefaultOptions()
	_, rt := testRuntime(t, opts)
	ts := httptest.NewServer(newServer(rt, Config{MaxConcurrent: 4}))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/query?stream=frobnicate", "text/plain", strings.NewReader(`SELECT name FROM country`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// unflushableWriter hides the Flusher interface of the wrapped
// recorder (a plain field, not an embed, so Flush is not promoted): a
// transport that cannot stream.
type unflushableWriter struct{ rec *httptest.ResponseRecorder }

func (u unflushableWriter) Header() http.Header         { return u.rec.Header() }
func (u unflushableWriter) Write(b []byte) (int, error) { return u.rec.Write(b) }
func (u unflushableWriter) WriteHeader(code int)        { u.rec.WriteHeader(code) }

// TestServeStreamFallbackBuffered is the regression for plain-JSON and
// non-streaming transports: a streaming request over a writer with no
// Flusher degrades to the ordinary buffered queryResponse instead of
// failing or half-streaming, and a request with no streaming signal
// stays buffered even though the handler now supports streams.
func TestServeStreamFallbackBuffered(t *testing.T) {
	opts := core.DefaultOptions()
	opts.CacheEnabled = false
	_, rt := testRuntime(t, opts)
	srv := newServer(rt, Config{MaxConcurrent: 4})

	req := httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`SELECT name FROM country WHERE continent = 'Europe'`))
	req.Header.Set("Accept", "application/x-ndjson")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(unflushableWriter{rec: rec}, req)

	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body %s)", rec.Code, rec.Body.String())
	}
	var qr queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatalf("fallback body is not a buffered queryResponse: %v (body %s)", err, rec.Body.String())
	}
	if qr.RowCount == 0 || len(qr.Rows) != qr.RowCount {
		t.Fatalf("fallback response rows = %d (row_count %d)", len(qr.Rows), qr.RowCount)
	}
}

// TestServeStreamDisconnectMidStream is the -race regression for
// streaming slot hygiene, mirroring TestServeCancelledQueuedCounters:
// a client that vanishes mid-query must leave no admission slot, no
// scheduler slot, and no queued prompt behind, and the server must
// serve the next query normally.
func TestServeStreamDisconnectMidStream(t *testing.T) {
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
	srv := newServer(rt, Config{MaxConcurrent: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query",
		strings.NewReader(`SELECT name, population FROM city WHERE population > 1000000`))
	req.Header.Set("Accept", "application/x-ndjson")
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return // cancelled before the response headers arrived
		}
		// Stay connected and keep reading: the stream must end only
		// because cancel() severs it, not because this client hung up.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	// The query is mid-execution: the header frame is out (or about to
	// be) and the row prompts hold scheduler slots, gated inside the
	// model. The client now disconnects.
	waitFor(t, func() bool { return rt.Stats().Sched.Interactive.Busy > 0 })
	cancel()
	<-done

	// Cancellation must unwind everything: admission slot released,
	// scheduler slots and queues empty, waiting gauge zero.
	waitFor(t, func() bool { return srv.active.Load() == 0 })
	waitFor(t, func() bool {
		g := rt.Stats().Sched
		return g.Interactive.Busy == 0 && g.Interactive.Queued == 0 && g.Batch.Busy == 0 && g.Batch.Queued == 0
	})
	if srv.waiting.Load() != 0 {
		t.Fatalf("waiting gauge leaked: %d", srv.waiting.Load())
	}

	// The gate and scheduler are healthy: an ungated follow-up query
	// streams to completion.
	close(release)
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/query",
		strings.NewReader(`SELECT name FROM country WHERE continent = 'Europe'`))
	req2.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := readNDJSON(t, bufio.NewScanner(resp.Body))
	if len(frames) < 2 || frames[len(frames)-1].Type != "stats" {
		t.Fatalf("follow-up stream did not complete cleanly: %+v", frames)
	}
	waitFor(t, func() bool { return srv.active.Load() == 0 })
}

// smallBufListener shrinks each accepted connection's kernel send
// buffer, so a client that stops reading blocks the server's writes
// after a few kilobytes rather than a few megabytes.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(4096)
	}
	return c, err
}

// TestServeStreamStalledLeader: a streamed miss leads the result cache's
// flight for its statement, so a client that reads the header and then
// stops reading must not hold a concurrent identical buffered query
// hostage. The stalled frame write hits the server's deadline, the
// stream closes and settles the flight with an error, and the follower
// re-leads and answers in bounded time.
func TestServeStreamStalledLeader(t *testing.T) {
	opts := core.DefaultOptions()
	opts.ResultCacheEnabled = true
	_, rt := testRuntime(t, opts)
	srv := newServer(rt, Config{MaxConcurrent: 4})
	srv.stallTimeout = 300 * time.Millisecond
	ts := httptest.NewUnstartedServer(srv)
	ts.Listener = smallBufListener{ts.Listener}
	ts.Start()
	defer ts.Close()

	// A cross product of ~1 300 rows: ~90 KB of frames, far more than
	// the shrunk socket buffers hold.
	const sql = `SELECT c.name, k.name FROM city c, country k`
	_, baseRT := testRuntime(t, opts)
	want, _, err := baseRT.NewSession().Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.(*net.TCPConn).SetReadBuffer(2048)
	fmt.Fprintf(conn, "POST /query HTTP/1.1\r\nHost: galois\r\nAccept: application/x-ndjson\r\nContent-Type: text/plain\r\nContent-Length: %d\r\n\r\n%s", len(sql), sql)
	br := bufio.NewReader(conn)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading the stream header: %v", err)
		}
		if strings.Contains(line, `"type":"header"`) {
			break // the leader's client now stops reading
		}
	}
	if st := rt.Stats().ResultCacheStats; st.Misses != 1 {
		t.Fatalf("stalled stream did not lead the flight: %+v", st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", strings.NewReader(sql))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("identical buffered query behind a stalled stream: %v", err)
	}
	defer resp.Body.Close()
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || qr.RowCount != want.Cardinality() {
		t.Fatalf("follower: status %d, %d rows, want 200 with %d", resp.StatusCode, qr.RowCount, want.Cardinality())
	}
	if qr.Cached != false {
		t.Errorf("follower cached = %v, want a re-led execution (the stalled leader caches nothing)", qr.Cached)
	}
	waitFor(t, func() bool { return srv.active.Load() == 0 })
}

// TestServeStreamClassParams: ?class= and ?weight= ride along with a
// streamed query (they shape dispatch, not the response), and an
// unknown class is rejected up front.
func TestServeStreamClassParams(t *testing.T) {
	opts := core.DefaultOptions()
	opts.CacheEnabled = false
	_, rt := testRuntime(t, opts)
	ts := httptest.NewServer(newServer(rt, Config{MaxConcurrent: 4}))
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/query?class=batch&weight=4",
		strings.NewReader(`SELECT name FROM country WHERE continent = 'Europe'`))
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	frames := readNDJSON(t, bufio.NewScanner(resp.Body))
	if frames[len(frames)-1].Type != "stats" {
		t.Fatalf("batch-class stream did not finish: %+v", frames[len(frames)-1])
	}
	// The batch band's drain counter moved: the query's prompts really
	// were dispatched as batch work.
	if g := rt.Stats().Sched; g.Batch.Drained == 0 && g.Batch.Busy == 0 {
		// Drained counts queued->granted transitions only; on an idle
		// scheduler every prompt may take the direct path. Accept either,
		// but the class must at least parse and execute (checked above).
		t.Logf("batch drain counter idle (direct dispatch): %+v", g)
	}

	resp2, err := http.Post(ts.URL+"/query?class=bulk", "text/plain", strings.NewReader(`SELECT name FROM country`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown class status = %d, want 400", resp2.StatusCode)
	}
}
