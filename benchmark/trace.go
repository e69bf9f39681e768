package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Request; Parent is the span that caused this one (0 = none).
// Times are nanoseconds since the recorder started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the benchmark ends. It records
// from the benchmark's own files, around the calls into each layer; a
// nil recorder records nothing, which is how the untraced pass runs the
// same code. Safe for concurrent use: the scheduler's workers call the
// model wrapper from their own goroutines.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// request and parent are what a span begun by a layer that cannot be
	// handed them (the model wrapper under the engine) belongs to: the
	// replay is single-client, so there is one current request.
	request, parent int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under an explicit parent and returns its id.
func (r *recorder) begin(name string, parent, request int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Request: request, Name: name, Start: now})
	return len(r.spans)
}

// setCurrent names the request being replayed and the span its model
// calls hang under.
func (r *recorder) setCurrent(request, parent int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.request, r.parent = request, parent
	r.mu.Unlock()
}

func (r *recorder) current() (request, parent int) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.request, r.parent
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add appends a span measured elsewhere (the HTTP client's samples).
func (r *recorder) add(name string, request int, start, end time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Request: request, Name: name, Start: int64(start), End: int64(end)})
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// interval is a half-open stretch of time.
type interval struct{ start, end int64 }

// unionLength is the total time covered by the intervals, overlaps
// counted once.
func unionLength(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	var cur interval
	open := false
	for _, iv := range ivs {
		if iv.end <= iv.start {
			continue
		}
		switch {
		case !open:
			cur, open = iv, true
		case iv.start <= cur.end:
			if iv.end > cur.end {
				cur.end = iv.end
			}
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if open {
		total += cur.end - cur.start
	}
	return total
}

// selfTimes returns, per span id, the span's duration minus the part of
// it its child spans cover: children are clipped to the parent's
// interval and children that overlap each other (prompts on parallel
// workers) are counted once.
func selfTimes(spans []span) map[int]time.Duration {
	byID := make(map[int]span, len(spans))
	children := map[int][]interval{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		iv := interval{max(s.Start, p.Start), min(s.End, p.End)}
		children[p.ID] = append(children[p.ID], iv)
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - time.Duration(unionLength(children[s.ID]))
	}
	return out
}

// writeTrace stores the spans of one workload under benchmark/out/.
func writeTrace(workload string, seed int64, spans []span) (string, error) {
	dir := filepath.Join("benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
