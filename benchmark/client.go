package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sample is what a client keeps per request while the clock runs: the
// response is hashed, not decoded, so the load generator costs the two
// shared cores as little as possible; decoding and checking happen after
// the phase, once per distinct (statement, response) pair.
type sample struct {
	req     int           // index into the request list
	start   time.Duration // since the phase began
	latency time.Duration
	resp    respKey
}

// respKey names one distinct response to one request shape. Requests
// that differ only in position share it.
type respKey struct {
	stmt   int // index into the distinct (SQL, stream) shapes
	status int // 0 = transport error
	hash   uint64
}

// phase is the outcome of one closed-loop replay.
type phase struct {
	samples []sample
	// bodies holds the first response body seen per key, for the checks
	// that run after the clock stopped.
	bodies map[respKey][]byte
	wall   time.Duration
}

var hashSeed = maphash.MakeSeed()

// newHTTPClient returns a keep-alive client sized for n closed-loop
// connections.
func newHTTPClient(n int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}}
}

// send issues one request and reads the full response into buf.
func send(hc *http.Client, base string, r *request, buf *bytes.Buffer) (int, error) {
	url := base + "/query"
	if r.Batch {
		url += "?class=batch"
	}
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(r.SQL))
	if err != nil {
		return 0, err
	}
	if r.Stream {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// replay drives the request list closed loop from `clients` goroutines:
// each sends its next request only after the previous reply was read in
// full, the way an application issuing SQL waits for its answer. stmtOf
// maps a request index to its shape id.
func replay(base string, reqs []request, stmtOf []int, clients int) phase {
	hc := newHTTPClient(clients)
	defer hc.CloseIdleConnections()

	var next atomic.Int64
	parts := make([]phase, clients)
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			p.bodies = map[respKey][]byte{}
			p.samples = make([]sample, 0, len(reqs)/clients+1)
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				start := time.Now()
				status, err := send(hc, base, &reqs[i], &buf)
				lat := time.Since(start)
				if err != nil {
					status = 0
					buf.Reset()
					buf.WriteString(err.Error())
				}
				key := respKey{stmt: stmtOf[i], status: status, hash: maphash.Bytes(hashSeed, buf.Bytes())}
				if _, ok := p.bodies[key]; !ok {
					p.bodies[key] = bytes.Clone(buf.Bytes())
				}
				p.samples = append(p.samples, sample{req: i, start: start.Sub(begin), latency: lat, resp: key})
			}
		}(&parts[c])
	}
	wg.Wait()
	out := phase{wall: time.Since(begin), bodies: map[respKey][]byte{}}
	for _, p := range parts {
		out.samples = append(out.samples, p.samples...)
		for k, b := range p.bodies {
			out.bodies[k] = b
		}
	}
	return out
}

// sendAll runs statements one at a time outside the measured phase
// (warm-up, store fill) and insists on 200 for each.
func sendAll(base string, sqls []string) error {
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	var buf bytes.Buffer
	for _, sql := range sqls {
		status, err := send(hc, base, &request{SQL: sql}, &buf)
		if err != nil {
			return fmt.Errorf("warm-up %q: %w", sql, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up %q: status %d: %s", sql, status, buf.String())
		}
	}
	return nil
}

// answer is one decoded response, buffered or streamed.
type answer struct {
	Columns []string
	Rows    [][]string
	Cached  string // "", "exact" or "subsumed"
	Stats   wireStats
	// FirstRowVTMS is the virtual time of a stream's first row frame
	// (-1 for buffered responses and empty streams).
	FirstRowVTMS float64
}

// wireStats is the per-query usage block of both response encodings.
type wireStats struct {
	Prompts            int     `json:"prompts"`
	PromptTokens       int     `json:"prompt_tokens"`
	CompletionTokens   int     `json:"completion_tokens"`
	SimulatedLatencyMS float64 `json:"simulated_latency_ms"`
}

func cachedString(v any) string {
	s, _ := v.(string) // false (executed) decodes as bool
	return s
}

// decodeBuffered parses a buffered /query JSON body.
func decodeBuffered(body []byte) (*answer, error) {
	var r struct {
		Columns  []string   `json:"columns"`
		Rows     [][]string `json:"rows"`
		RowCount int        `json:"row_count"`
		Cached   any        `json:"cached"`
		Stats    wireStats  `json:"stats"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	if r.RowCount != len(r.Rows) {
		return nil, fmt.Errorf("row_count %d but %d rows", r.RowCount, len(r.Rows))
	}
	return &answer{Columns: r.Columns, Rows: r.Rows, Cached: cachedString(r.Cached), Stats: r.Stats, FirstRowVTMS: -1}, nil
}

// decodeNDJSON reads a frame stream: one header, any rows, then exactly
// one terminal frame, which must be "stats" — an "error" frame or a
// stream that just ends is a failed request.
func decodeNDJSON(r io.Reader) (*answer, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	a := &answer{FirstRowVTMS: -1}
	state := "start"
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var f struct {
			Type     string    `json:"type"`
			Columns  []string  `json:"columns"`
			Cached   any       `json:"cached"`
			Cells    []string  `json:"cells"`
			VTMS     float64   `json:"vt_ms"`
			RowCount int       `json:"row_count"`
			Stats    wireStats `json:"stats"`
			Error    string    `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return nil, fmt.Errorf("frame %d: %w", len(a.Rows), err)
		}
		switch {
		case state == "done":
			return nil, fmt.Errorf("frame %q after the terminal frame", f.Type)
		case f.Type == "header" && state == "start":
			a.Columns, a.Cached, state = f.Columns, cachedString(f.Cached), "rows"
		case f.Type == "row" && state == "rows":
			if len(a.Rows) == 0 {
				a.FirstRowVTMS = f.VTMS
			}
			a.Rows = append(a.Rows, f.Cells)
		case f.Type == "stats" && state == "rows":
			if f.RowCount != len(a.Rows) {
				return nil, fmt.Errorf("stats frame counts %d rows, stream carried %d", f.RowCount, len(a.Rows))
			}
			a.Stats, state = f.Stats, "done"
		case f.Type == "error":
			return nil, fmt.Errorf("error frame: %s", f.Error)
		default:
			return nil, fmt.Errorf("unexpected %q frame in state %s", f.Type, state)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if state != "done" {
		return nil, fmt.Errorf("stream ended without a stats frame")
	}
	return a, nil
}
