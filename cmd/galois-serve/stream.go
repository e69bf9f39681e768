package main

import (
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
)

// Streaming delivery: instead of materializing the whole relation
// before the first response byte, the handler walks core.QueryStream
// and writes each row as the executor yields it — one self-describing
// JSON frame per line (NDJSON), or the same frames
// wrapped in SSE events for EventSource clients. The frame sequence is
// always header, zero or more rows, then exactly one terminal frame:
// stats on success, error on a mid-stream failure (the 200 status line
// is long gone by then, so failures must travel in-band). An exact hit
// has every row at open, so its frames leave in one write.
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

// streamStallTimeout bounds how long one write may block on a
// client that stopped reading. A streamed miss leads the result cache's
// flight for its statement until the executor reaches the end of the
// relation, and the executor only advances as frames are written; a
// stalled client is therefore cut off, and the deferred Close hands the
// flight to the concurrent identical queries waiting on it.
const streamStallTimeout = 10 * time.Second

// streamQuery executes sql over sess and writes the result as a frame
// stream. Errors before the first frame still use the normal status
// mapping (400/503/504/...); once the header is out every outcome travels
// in-band. A client disconnect mid-stream cancels ctx, which fails the
// executor's queued prompts and releases the scheduler tenant via the
// deferred Close — the caller's admission slot is released when this
// returns, exactly like a buffered query. So does a client that stops
// reading for longer than the server's stall timeout.
func (s *server) streamQuery(ctx context.Context, w http.ResponseWriter, sess *core.Session, sql, mode string, wantPlan bool) {
	st, err := sess.QueryStream(ctx, sql)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	defer st.Close()

	fw := &frameWriter{w: w, rc: http.NewResponseController(w), stall: s.stallTimeout, mode: mode}
	// An exact hit has every row at open: its frames leave in one flush,
	// and the first hit of an encoding keeps them on the cache entry for
	// the next ones. A hit whose slot declined a body streams frame by
	// frame, as a miss does, rather than encode it whole again.
	hit, slot := st.Hit(), bodySlot(mode, wantPlan)
	body, keep := s.keptBody(hit, slot)
	if body != nil {
		if err := finishReplay(st); err != nil {
			s.writeQueryError(w, err)
			return
		}
		_ = fw.send(body) // a failed write means the client is gone
		return
	}
	fw.hold = keep
	head := streamHeader{Type: "header", Cached: cachedJSON(st.Cached())}
	head.Columns, head.Types = columnsJSON(st.Schema())
	if fw.frame("header", head) != nil {
		return
	}

	rows := 0
	for {
		row, vt, err := st.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			s.noteQueryError(err)
			fw.fail(err)
			return
		}
		rows++
		if fw.frame("row", streamRow{Type: "row", Cells: cellsJSON(row), VTMS: float64(vt) / float64(time.Millisecond)}) != nil {
			// The pipe is dead; the deferred Close stops upstream prompt
			// issue and frees the tenant's slots.
			return
		}
	}

	rep, err := st.Finish()
	if err != nil {
		s.noteQueryError(err)
		fw.fail(err)
		return
	}
	tail := streamStats{Type: "stats", RowCount: rows, Stats: statsJSON(rep)}
	if wantPlan {
		tail.Plan = rep.Plan
	}
	if fw.frame("stats", tail) == nil && fw.hold {
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
// for one send once the stream is complete.
type frameWriter struct {
	w       http.ResponseWriter
	rc      *http.ResponseController
	stall   time.Duration
	mode    string
	started bool
	hold    bool
	buf     []byte
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

// fail ends the stream with an error frame, sending whatever is held.
func (f *frameWriter) fail(err error) {
	if f.frame("error", streamFailure{Type: "error", Error: err.Error()}) == nil && f.hold {
		_ = f.send(f.buf)
	}
}

// sendChunk bounds the bytes one stall deadline covers.
const sendChunk = 64 << 10

// send writes b — one frame, or a whole held stream — and flushes it
// once. Each chunk of at most sendChunk bytes gets its own stall
// deadline, so a large held stream to a slow client that is still
// reading is held to the pace a frame-by-frame stream is, not to one
// deadline for the whole transfer.
func (f *frameWriter) send(b []byte) error {
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
// It encodes what a streamed miss writes frame by frame and what an
// exact hit keeps.
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
