package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/schema"
)

// Delivery: every /query walks core.QueryStream once and writes it in
// one of three encodings. A stream writes each row as the executor
// yields it, instead of materializing the whole relation before the
// first response byte — one self-describing JSON frame per line
// (NDJSON), or the same frames wrapped in SSE events for EventSource
// clients. The frame sequence is always header, zero or more rows, then
// exactly one terminal frame: stats on success, error on a mid-stream
// failure (the 200 status line is long gone by then, so failures must
// travel in-band). The buffered encoding collects the same walk into one
// queryResponse and writes it at the terminal frame, so its failures
// keep their status codes. An exact hit has every row at open, so its
// response leaves in one write.
const (
	streamNone   = ""       // buffered queryResponse JSON
	streamNDJSON = "ndjson" // application/x-ndjson, one frame per line
	streamSSE    = "sse"    // text/event-stream, one frame per event
)

// streamMode picks the delivery encoding for one request. The explicit
// ?stream= parameter wins; otherwise an Accept header asking for
// application/x-ndjson selects NDJSON. Plain JSON clients are
// untouched: absent both signals the buffered response stays the
// default, so nothing changes for existing callers.
func streamMode(r *http.Request, params url.Values) (string, error) {
	if raw := params.Get("stream"); raw != "" {
		switch raw {
		case "0", "false":
			return streamNone, nil
		case "1", "true", "sse":
			return streamSSE, nil
		case "ndjson":
			return streamNDJSON, nil
		}
		return "", fmt.Errorf("invalid stream parameter %q: want 1/0/sse/ndjson", raw)
	}
	if strings.Contains(r.Header.Get("Accept"), "application/x-ndjson") {
		return streamNDJSON, nil
	}
	return streamNone, nil
}

// streamHeader opens every stream: the schema a client needs to
// interpret the rows, plus how the result cache answered (known at open
// time, before any row exists).
type streamHeader struct {
	Type    string   `json:"type"` // "header"
	Columns []string `json:"columns"`
	Types   []string `json:"types"`
	Cached  any      `json:"cached"`
}

// streamRow is one delivered tuple with its virtual availability time —
// the simulated instant the prompt chain producing it completed — so
// clients (and the tests) can verify rows left before the relation was
// done against the deterministic latency model.
type streamRow struct {
	Type  string   `json:"type"` // "row"
	Cells []string `json:"cells"`
	VTMS  float64  `json:"vt_ms"`
}

// streamStats closes a successful stream with the same accounting the
// buffered response carries.
type streamStats struct {
	Type     string     `json:"type"` // "stats"
	RowCount int        `json:"row_count"`
	Plan     string     `json:"plan,omitempty"`
	Stats    queryStats `json:"stats"`
}

// streamFailure closes a failed stream; its presence instead of a stats
// frame is the client's only failure signal.
type streamFailure struct {
	Type  string `json:"type"` // "error"
	Error string `json:"error"`
}

// StallTimeout bounds how long one stream write may block on a
// client that stopped reading. A streamed miss leads the result cache's
// flight for its statement until the executor reaches the end of the
// relation, and the executor only advances as frames are written; a
// stalled client is therefore cut off, and the deferred Close hands the
// flight to the concurrent identical queries waiting on it.
const StallTimeout = 10 * time.Second

// deliver executes sql over sess and writes the result in mode's
// encoding. Every failure goes through fail. A client disconnect
// cancels ctx, which fails the executor's queued prompts and releases
// the scheduler tenant via the deferred Close — the caller's admission
// slot is released when this returns. So does a client that stops
// reading a stream for longer than the server's stall timeout.
func (s *server) deliver(ctx context.Context, w http.ResponseWriter, sess *core.Session, sql, mode string, wantPlan bool) {
	fw := &frameWriter{w: w, stall: s.stallTimeout, mode: mode}
	st, err := sess.QueryStream(ctx, sql)
	if err != nil {
		s.fail(fw, err)
		return
	}
	defer st.Close()

	// An exact hit's response is a pure function of its cache entry: it
	// leaves in one write, and the first hit of an encoding keeps the
	// bytes on the entry for the next ones. A hit whose slot declined a
	// body is delivered as a miss is, rather than encoded whole again.
	hit, slot := st.Hit(), bodySlot(mode, wantPlan)
	body, keep := s.keptBody(hit, slot)
	if body != nil {
		if err := finishReplay(st); err != nil {
			s.fail(fw, err)
			return
		}
		_ = fw.send(body) // a failed write means the client is gone
		return
	}
	fw.hold = keep
	if fw.header(st) != nil {
		return
	}

	rows := 0
	for {
		row, vt, err := st.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			s.fail(fw, err)
			return
		}
		rows++
		if fw.row(row, vt) != nil {
			// The pipe is dead; the deferred Close stops upstream prompt
			// issue and frees the tenant's slots.
			return
		}
	}

	rep, err := st.Finish()
	if err != nil {
		s.fail(fw, err)
		return
	}
	tail := streamStats{Type: "stats", RowCount: rows, Stats: statsJSON(rep)}
	if wantPlan {
		tail.Plan = rep.Plan
	}
	if fw.stats(tail) == nil && fw.hold {
		_ = fw.send(hit.Attach(slot, fw.buf))
	}
}

// finishReplay drains an exact hit's replay and finishes it, accounting
// the query exactly as a frame-by-frame delivery would.
func finishReplay(st *core.Stream) error {
	for {
		if _, _, err := st.Next(); err != nil {
			if !errors.Is(err, io.EOF) {
				return err
			}
			_, err = st.Finish()
			return err
		}
	}
}

// frameWriter writes one JSON frame per call and flushes it
// immediately — a streamed row must reach the network now, not when
// some buffer happens to fill. Each frame, or each chunk of a held
// stream, must reach the connection within stall of its start (send).
// The first write commits the content type
// and the 200 status line. With hold set, frames collect in buf instead,
// for one send once the stream is complete. In the buffered mode
// (streamNone) the frames fill resp, which is written, or held in buf,
// at the stats frame.
type frameWriter struct {
	w       http.ResponseWriter
	rc      *http.ResponseController // made by the first stream send
	stall   time.Duration
	mode    string
	started bool
	hold    bool
	buf     []byte
	resp    *queryResponse
}

// header delivers the stream's schema and how the result cache answered.
func (f *frameWriter) header(st *core.Stream) error {
	columns, types := columnsJSON(st.Schema())
	if f.mode == streamNone {
		f.resp = &queryResponse{Columns: columns, Types: types, Rows: [][]string{}, Cached: cachedJSON(st.Cached())}
		return nil
	}
	return f.frame("header", streamHeader{Type: "header", Columns: columns, Types: types, Cached: cachedJSON(st.Cached())})
}

// row delivers one tuple available at virtual time vt.
func (f *frameWriter) row(row schema.Tuple, vt llm.VTime) error {
	if f.mode == streamNone {
		f.resp.Rows = append(f.resp.Rows, cellsJSON(row))
		return nil
	}
	return f.frame("row", streamRow{Type: "row", Cells: cellsJSON(row), VTMS: float64(vt) / float64(time.Millisecond)})
}

// stats ends a successful delivery: the stats frame, or the buffered
// body, both encoded with json.Encoder.Encode's bytes, so a kept body is
// byte-identical to a fresh encoding.
func (f *frameWriter) stats(tail streamStats) error {
	if f.mode != streamNone {
		return f.frame("stats", tail)
	}
	f.resp.RowCount, f.resp.Plan, f.resp.Stats = tail.RowCount, tail.Plan, tail.Stats
	if !f.hold {
		writeJSON(f.w, http.StatusOK, f.resp)
		return nil
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(f.resp)
	f.buf = buf.Bytes()
	return err
}

func (f *frameWriter) frame(event string, v any) error {
	if f.hold {
		var err error
		f.buf, err = appendFrame(f.buf, f.mode, event, v)
		return err
	}
	b, err := appendFrame(f.buf[:0], f.mode, event, v)
	if err != nil {
		return err
	}
	f.buf = b // reused by the next frame: Write has copied it
	return f.send(b)
}

// sendChunk bounds the bytes one stall deadline covers.
const sendChunk = 64 << 10

// send writes b: a buffered body in one plain write, as any JSON
// response is, or one frame or a whole held stream, flushed once. Each
// chunk of a stream, at most sendChunk bytes, gets its own stall
// deadline, so a large held stream to a slow client that is still
// reading is held to the pace a frame-by-frame stream is, not to one
// deadline for the whole transfer.
func (f *frameWriter) send(b []byte) error {
	if f.mode == streamNone {
		f.started = true
		f.w.Header().Set("Content-Type", "application/json")
		f.w.WriteHeader(http.StatusOK)
		_, err := f.w.Write(b)
		return err
	}
	if !f.started {
		f.started = true
		if f.mode == streamSSE {
			f.w.Header().Set("Content-Type", "text/event-stream")
			f.w.Header().Set("Cache-Control", "no-cache")
		} else {
			f.w.Header().Set("Content-Type", "application/x-ndjson")
		}
		// Tell buffering reverse proxies not to defeat the flushes.
		f.w.Header().Set("X-Accel-Buffering", "no")
		f.w.WriteHeader(http.StatusOK)
		if f.rc == nil {
			f.rc = http.NewResponseController(f.w)
		}
	}
	for len(b) > 0 {
		n := min(len(b), sendChunk)
		// Writers without deadline support (test recorders) just skip it.
		_ = f.rc.SetWriteDeadline(time.Now().Add(f.stall))
		if _, err := f.w.Write(b[:n]); err != nil {
			return err
		}
		b = b[n:]
	}
	return f.rc.Flush()
}

// appendFrame appends one frame in mode's encoding to dst: its JSON
// and a newline for NDJSON, an event carrying the JSON as data for SSE.
// It encodes what a streamed miss writes frame by frame and what a
// streamed exact hit keeps.
func appendFrame(dst []byte, mode, event string, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	if mode == streamSSE {
		dst = append(dst, "event: "...)
		dst = append(dst, event...)
		dst = append(dst, "\ndata: "...)
		dst = append(dst, data...)
		return append(dst, "\n\n"...), nil
	}
	dst = append(dst, data...)
	return append(dst, '\n'), nil
}
