// Package serve is Galois's concurrent SQL front end over HTTP: one
// shared core.Runtime (model endpoints, prompt cache, optimizer
// statistics, and the engine-global fair-share prompt scheduler) serving
// any number of concurrent queries, each in its own cheap session.
// New returns the handler; cmd/galois-serve puts it on a listener.
//
// Endpoints:
//
//	POST /query            SQL in the request body (or GET /query?q=...);
//	                       ?plan=1 includes the executed plan, ?class=batch
//	                       runs in the scheduler's batch band, ?weight=N
//	                       scales the deficit share. Returns the relation,
//	                       row count and per-query prompt stats as JSON —
//	                       or as a row stream: Accept: application/x-ndjson
//	                       delivers NDJSON frames (header, rows, stats
//	                       trailer) as the executor yields tuples, and
//	                       ?stream=1 the same frames as SSE events.
//	GET  /healthz          liveness probe.
//	GET  /stats            serving counters, admission-controller and
//	                       scheduler state, shared cache statistics.
//
// Concurrency model: all queries share one per-endpoint LLM worker
// budget (-workers), divided by the engine-global deficit-weighted
// scheduler — interactive queries drain with strict priority, batch
// queries soak up idle slots, and a batch backlog can never delay an
// interactive prompt by more than the one already on the wire. The
// admission controller moves its effective concurrency limit between
// Config.AdmissionFloor and Config.MaxConcurrent by AIMD on backpressure
// signals; excess requests queue FIFO (abandoning the queue when their
// client disconnects) and are shed with 503 + Retry-After only at the
// floor.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/rescache"
	"repro/internal/schema"
)

// server is the concurrent SQL front end over one shared core.Runtime:
// every request opens a cheap session, executes under the runtime's
// engine-global deficit-weighted scheduler, and renders the relation as
// JSON — buffered, or streamed row by row (NDJSON / SSE) as the
// executor yields tuples. An adaptive AIMD admission controller decides
// how many queries execute at once; requests beyond
// it queue (and leave the queue when their client disconnects), and are
// shed only when the controller has already collapsed to its floor.
type server struct {
	rt            *core.Runtime
	adm           *admission
	maxConcurrent int
	maxQueue      int
	queryTimeout  time.Duration
	stallTimeout  time.Duration // StallTimeout; tests shorten it
	// keepBodies keeps an exact hit's encoded response on its
	// result-cache entry, so later hits of the same encoding write it
	// without encoding. Tests turn it off to compare against the
	// encoding path.
	keepBodies bool
	mux        *http.ServeMux

	queries   atomic.Int64 // completed (ok or failed) queries
	active    atomic.Int64 // currently executing (inside the gate)
	maxActive atomic.Int64 // high-water mark of active
	waiting   atomic.Int64 // admitted requests waiting for a slot
	shed      atomic.Int64 // requests refused with 503 (queue full / breaker)
	timeouts  atomic.Int64 // queries answered 504 (deadline expired)
}

// Config tunes the front end's degradation behavior alongside the
// admission controller. Its exported fields are galois-serve's
// -max-concurrent, -max-queue, -admission-floor and -query-timeout.
type Config struct {
	// MaxConcurrent is the admission controller's ceiling on
	// simultaneously executing queries (0 or negative means 2× the
	// scheduler's per-endpoint worker budget — enough to keep the pool
	// busy without unbounded overcommit).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an execution slot. While the
	// adaptive limit is above its floor a full queue cuts the limit and
	// still admits the request into the queue; at the floor the bound is
	// hard and one past it is refused immediately with 503 + Retry-After
	// (0 or negative means 4× MaxConcurrent).
	MaxQueue int
	// QueryTimeout bounds one query end to end; expiry answers 504
	// (0 means no server-imposed deadline).
	QueryTimeout time.Duration
	// AdmissionFloor is the adaptive limit's lower bound — the
	// concurrency the server insists on even when every completion
	// reports congestion (0 means MaxConcurrent/4, minimum 1).
	AdmissionFloor int
	// admissionCooldown spaces multiplicative limit cuts (0 means the
	// 250ms default; negative disables the rate limit — tests drive
	// deterministic cut sequences that way).
	admissionCooldown time.Duration
}

// New returns the HTTP front end over rt: /query, /healthz and /stats.
func New(rt *core.Runtime, cfg Config) http.Handler { return newServer(rt, cfg) }

// newServer wires the routes over the runtime.
func newServer(rt *core.Runtime, cfg Config) *server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2 * rt.Options().BatchWorkers
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxConcurrent
	}
	s := &server{
		rt:            rt,
		maxConcurrent: cfg.MaxConcurrent,
		maxQueue:      cfg.MaxQueue,
		queryTimeout:  cfg.QueryTimeout,
		stallTimeout:  StallTimeout,
		keepBodies:    true,
		mux:           http.NewServeMux(),
	}
	s.adm = newAdmission(cfg.MaxConcurrent, cfg.AdmissionFloor, cfg.MaxQueue, cfg.admissionCooldown, &s.waiting)
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// queryResponse is the JSON rendering of one executed query.
type queryResponse struct {
	Columns  []string   `json:"columns"`
	Types    []string   `json:"types"`
	Rows     [][]string `json:"rows"`
	RowCount int        `json:"row_count"`
	Plan     string     `json:"plan,omitempty"`
	// Cached reports how the runtime's result cache answered the query:
	// false (executed against the base tables), "exact" (relation served
	// verbatim — zero prompts, no planning beyond the logical build), or
	// "subsumed" (a residual plan evaluated locally over a cached
	// relation — zero prompts).
	Cached any        `json:"cached"`
	Stats  queryStats `json:"stats"`
}

// cachedJSON renders a report's cache outcome for the wire: false when
// the query executed, the outcome string otherwise. Older clients that
// treated the field as a boolean read both "exact" and "subsumed" as
// truthy.
func cachedJSON(c core.CacheOutcome) any {
	if c == core.CacheNone {
		return false
	}
	return string(c)
}

// queryStats is the per-query usage summary.
type queryStats struct {
	Prompts            int     `json:"prompts"`
	PromptTokens       int     `json:"prompt_tokens"`
	CompletionTokens   int     `json:"completion_tokens"`
	CacheHits          int     `json:"cache_hits"`
	CacheMisses        int     `json:"cache_misses"`
	SimulatedLatencyMS float64 `json:"simulated_latency_ms"`
}

// statsJSON renders a report's usage for the stats frame.
func statsJSON(rep *core.Report) queryStats {
	return queryStats{
		Prompts:            rep.Stats.Prompts,
		PromptTokens:       rep.Stats.PromptTokens,
		CompletionTokens:   rep.Stats.CompletionTokens,
		CacheHits:          rep.Stats.CacheHits,
		CacheMisses:        rep.Stats.CacheMisses,
		SimulatedLatencyMS: float64(rep.Stats.SimulatedLatency) / float64(time.Millisecond),
	}
}

// columnsJSON renders a schema as the parallel column-name and type
// lists of the header frame.
func columnsJSON(sch *schema.Schema) (columns, types []string) {
	columns, types = make([]string, sch.Len()), make([]string, sch.Len())
	for i, c := range sch.Columns {
		columns[i] = c.QualifiedName()
		types[i] = c.Type.String()
	}
	return columns, types
}

// cellsJSON renders one tuple's values.
func cellsJSON(row schema.Tuple) []string {
	cells := make([]string, len(row))
	for i, v := range row {
		cells[i] = v.String()
	}
	return cells
}

type errorResponse struct {
	Error string `json:"error"`
}

// handleQuery executes one SQL statement: the `q` form/query parameter,
// or the raw request body. `?plan=1` includes the executed plan;
// `?class=batch` runs the query in the scheduler's batch band and
// `?weight=N` scales its deficit share; `Accept: application/x-ndjson`
// (or `?stream=1` for SSE) streams rows as the executor yields them.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// Only GET and POST carry queries; anything else (PUT, DELETE,
	// arbitrary verbs) must not execute SQL.
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed on /query; use GET or POST", r.Method))
		return
	}
	// The URL is parsed once; every parameter below reads from params.
	params := r.URL.Query()
	sql, err := querySQL(r, params)
	if err != nil {
		// An over-limit body is its own status: truncating it would
		// execute a prefix of the client's statement (or fail with a
		// confusing parse error mid-token).
		status := http.StatusBadRequest
		if errors.Is(err, errBodyTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err)
		return
	}
	// Reject malformed ?plan= up front: silently treating a typo as
	// "no plan" hides the mistake from the client.
	wantPlan, err := planParam(params)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Likewise ?class=/?weight= (scheduler band and deficit share) and
	// ?stream= (delivery encoding): a typo is the client's error, not a
	// silent fallback to the defaults.
	class, weight, err := admissionParams(params)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	mode, err := streamMode(r, params)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// ?route=role=backend[,role=backend...] pins this query's prompt
	// roles to named backends; roles and backend names are validated up
	// front so a typo answers 400 instead of executing unrouted.
	routes, err := s.routeParam(params)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// Adaptive admission: at most limit (floor..max-concurrent, moved by
	// AIMD on completion signals) queries execute at once; excess waits
	// FIFO, and is shed with 503 only once the controller has already
	// collapsed to its floor and the queue is at its bound — an
	// overloaded server must answer "come back later" fast, not queue
	// doomed work until everything times out.
	ctx := r.Context()
	isBatch := class == llm.ClassBatch.String()
	switch err := s.adm.acquireClass(ctx.Done(), isBatch); {
	case errors.Is(err, errAdmissionShed):
		s.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("admission saturated (concurrency at floor, %d waiting); retry later", s.maxQueue))
		return
	case err != nil:
		// Cancelled on arrival or while queued: the client is gone, do
		// not count the request as a served query.
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	// Releasing the slot samples this completion's congestion signals
	// (scheduler backlog, breaker state) into the adaptive limit.
	defer func() { s.adm.releaseClass(s.rt.Congested(), isBatch) }()
	n := s.active.Add(1)
	for {
		high := s.maxActive.Load()
		if n <= high || s.maxActive.CompareAndSwap(high, n) {
			break
		}
	}
	defer s.active.Add(-1)
	defer s.queries.Add(1)

	// The server-imposed per-query deadline: a query that outlives it
	// answers 504 instead of holding its execution slot indefinitely.
	if s.queryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.queryTimeout)
		defer cancel()
	}

	sess := s.rt.NewSession()
	if class != "" || weight > 0 || len(routes) > 0 {
		o := sess.Options()
		o.AdmissionClass = class
		o.AdmissionWeight = weight
		o.Routes = routes
		sess.SetOptions(o)
	}

	// A stream needs a writer that flushes: over one that cannot
	// (buffering middleware, some test recorders) rows would be held
	// hostage in the pipe, so the answer degrades to the buffered body.
	if _, ok := w.(http.Flusher); !ok {
		mode = streamNone
	}
	s.deliver(ctx, w, sess, sql, mode, wantPlan)
}

// bodySlots counts the encodings bodySlot numbers.
const bodySlots = 6

// The build fails unless a rescache.Entry has exactly one body slot per
// encoding.
var _ = [1]struct{}{}[rescache.BodySlots-bodySlots]

// bodySlot numbers the encodings an exact hit's body is kept in, one
// rescache.Entry slot each: buffered JSON, NDJSON and SSE, each with
// and without ?plan=1.
func bodySlot(mode string, wantPlan bool) int {
	slot := 0
	switch mode {
	case streamNDJSON:
		slot = 2
	case streamSSE:
		slot = 4
	}
	if wantPlan {
		slot++
	}
	return slot
}

// keptBody returns the bytes hit keeps in slot, or nil, and whether a
// body may be kept there: keep is false for a response that is not an
// exact hit (hit is nil), for a slot that declined a body, and when the
// server keeps no bodies.
func (s *server) keptBody(hit *core.HitBody, slot int) (body []byte, keep bool) {
	if hit == nil || !s.keepBodies {
		return nil, false
	}
	return hit.Cached(slot)
}

// planParam parses the optional `plan` query parameter. Absent (or
// empty) means no plan; any other value must parse as a bool — a
// malformed value like ?plan=frobnicate is the client's error, not a
// silent "no plan".
func planParam(q url.Values) (bool, error) {
	raw := q.Get("plan")
	if raw == "" {
		return false, nil
	}
	v, err := strconv.ParseBool(raw)
	if err != nil {
		return false, fmt.Errorf("invalid plan parameter %q: want a boolean (1/0/true/false)", raw)
	}
	return v, nil
}

// admissionParams parses the optional `class` and `weight` query
// parameters — the scheduler band the query runs in and its deficit
// share within it. Unknown class spellings and out-of-range weights are
// the client's error: silently running a "btach" query interactive
// would defeat the operator's intent.
func admissionParams(q url.Values) (class string, weight int, err error) {
	class = q.Get("class")
	if _, err := llm.ParseClass(class); err != nil {
		return "", 0, err
	}
	if raw := q.Get("weight"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 || v > maxAdmissionWeight {
			return "", 0, fmt.Errorf("invalid weight parameter %q: want an integer in [1,%d]", raw, maxAdmissionWeight)
		}
		weight = v
	}
	return class, weight, nil
}

// maxAdmissionWeight caps the per-request deficit weight: a weight is a
// relative share, and an unbounded one would let a single client vote
// itself the whole band.
const maxAdmissionWeight = 64

// routeParam parses the optional `route` query parameter —
// role=backend pairs separated by commas — into the session's route
// overrides, checking each backend name against the runtime's registry.
func (s *server) routeParam(q url.Values) (map[string]string, error) {
	raw := q.Get("route")
	if raw == "" {
		return nil, nil
	}
	routes, err := config.ParseRoutes(raw)
	if err != nil {
		return nil, fmt.Errorf("invalid route parameter: %w", err)
	}
	for _, backend := range routes {
		if _, ok := s.rt.Registry().Get(backend); !ok {
			return nil, fmt.Errorf("invalid route parameter: backend %q not declared", backend)
		}
	}
	return routes, nil
}

// maxBodyBytes bounds a /query request body; a body past it answers 413
// rather than being silently truncated to a SQL prefix.
const maxBodyBytes = 1 << 20

// errBodyTooLarge marks an over-limit request body for the 413 mapping.
var errBodyTooLarge = errors.New("request body exceeds 1 MiB; pass the statement via ?q= or shorten it")

// querySQL extracts the SQL statement from a request: the `q` URL query
// parameter, the `q` field of a form-encoded body, or the raw request
// body.
func querySQL(r *http.Request, params url.Values) (string, error) {
	if q := params.Get("q"); strings.TrimSpace(q) != "" {
		return strings.TrimSpace(q), nil
	}
	if r.Body == nil {
		return "", fmt.Errorf("missing SQL: pass ?q= or a request body")
	}
	// A declared length past the limit answers without reading the body.
	if r.ContentLength > maxBodyBytes {
		return "", errBodyTooLarge
	}
	// Read one byte past the limit: exactly-at-limit bodies pass, anything
	// longer is detected instead of truncated. The buffer grows only as
	// bytes arrive, never to a length the client merely declared.
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return "", fmt.Errorf("reading request body: %w", err)
	}
	if len(body) > maxBodyBytes {
		return "", errBodyTooLarge
	}
	// Clients POSTing with curl -d send the form content type whether the
	// body is `q=<urlencoded SQL>` or the bare statement, so accept both:
	// a parseable q field wins, anything else is taken as raw SQL.
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/x-www-form-urlencoded") {
		if vals, err := url.ParseQuery(string(body)); err == nil {
			if sql := strings.TrimSpace(vals.Get("q")); sql != "" {
				return sql, nil
			}
		}
	}
	if sql := strings.TrimSpace(string(body)); sql != "" {
		return sql, nil
	}
	return "", fmt.Errorf("missing SQL: pass ?q= or a request body")
}

// fail answers a failed query and folds it into the degradation
// counters. Once a stream is past its 200 status line the failure
// travels in-band, as an error frame. Before that — and always for a
// buffered query, which writes nothing before its stats frame — it maps
// onto the HTTP status retry policies expect: 400 for SQL that does not
// parse or is not a SELECT or EXPLAIN (the client's fault), 504 when a
// deadline (the server's -query-timeout or the client's own) expired
// mid-query, 503 + Retry-After when the model endpoint's circuit breaker
// shed the call, 503 when the client disconnected mid-flight, 500 for
// everything else — planning against the shared bindings and the model
// backend included, which retry policies and monitoring treat correctly.
func (s *server) fail(f *frameWriter, err error) {
	breakerOpen := llm.Classify(err) == llm.ClassBreakerOpen
	switch {
	case breakerOpen:
		s.shed.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
	}
	if f.started {
		_ = f.frame("error", streamFailure{Type: "error", Error: err.Error()})
		return
	}
	w := f.w
	switch {
	case errors.Is(err, core.ErrStatement):
		writeError(w, http.StatusBadRequest, err)
	case breakerOpen:
		w.Header().Set("Retry-After", s.breakerRetryAfter())
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// breakerRetryAfter renders the Retry-After a breaker-shed client
// should honor: the breaker's own cooldown, floored at one second.
func (s *server) breakerRetryAfter() string {
	cooldown := s.rt.Options().BreakerCooldown
	if cooldown <= 0 {
		cooldown = llm.DefaultBreakerCooldown
	}
	secs := int(cooldown / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// healthResponse is the /healthz JSON: overall readiness plus the
// breaker position of every resilient model endpoint.
type healthResponse struct {
	Status    string                `json:"status"`
	Endpoints []core.EndpointHealth `json:"endpoints,omitempty"`
}

// handleHealthz reports liveness and readiness. The server is "ok" when
// no breaker is open, "degraded" (still 200 — some backends answer)
// when some are, and "unavailable" with 503 when every model endpoint's
// breaker is open: a probe should stop routing traffic here, because no
// query touching the model can succeed until a cooldown probe heals one.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	eps := s.rt.Stats().Resilience
	open := 0
	for _, ep := range eps {
		if ep.Breaker == llm.BreakerOpen.String() {
			open++
		}
	}
	status, code := "ok", http.StatusOK
	switch {
	case len(eps) > 0 && open == len(eps):
		status, code = "unavailable", http.StatusServiceUnavailable
	case open > 0:
		status = "degraded"
	}
	writeJSON(w, code, healthResponse{Status: status, Endpoints: eps})
}

// serverStats is the /stats JSON: the front end's own serving and
// degradation counters, then the shared runtime's snapshot.
type serverStats struct {
	QueriesServed int64 `json:"queries_served"`
	Active        int64 `json:"active"`
	MaxActive     int64 `json:"max_active"`
	Waiting       int64 `json:"waiting"`
	MaxConcurrent int   `json:"max_concurrent"`
	// Degradation counters: the queue bound, requests shed with 503
	// (saturated queue or open breaker) and queries answered 504.
	MaxQueue int   `json:"max_queue"`
	Shed     int64 `json:"shed"`
	Timeouts int64 `json:"timeouts"`
	// Admission is the AIMD controller's live position.
	Admission admissionStats `json:"admission"`
	core.Stats
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, serverStats{
		QueriesServed: s.queries.Load(),
		Active:        s.active.Load(),
		MaxActive:     s.maxActive.Load(),
		Waiting:       s.waiting.Load(),
		MaxConcurrent: s.maxConcurrent,
		MaxQueue:      s.maxQueue,
		Shed:          s.shed.Load(),
		Timeouts:      s.timeouts.Load(),
		Admission:     s.adm.stats(),
		Stats:         s.rt.Stats(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
