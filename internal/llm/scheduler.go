package llm

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gopool"
)

// VTime is a point on the simulated-latency axis of one query execution:
// the wall-clock instant (relative to query start) at which a prompt's
// answer would be available on a real API. Operators thread these
// timestamps through the tuple stream so a downstream prompt's start is
// anchored to the completion of the upstream prompt that produced its
// input — the dependency chains the critical-path latency model is built
// from.
type VTime = time.Duration

// Future is one submitted prompt on a Scheduler. Wait blocks until the
// completion is available and returns it together with the prompt's
// virtual completion time; Decoded returns, instead of the text, what the
// prompt's template decodes it to. A caller that reads resident answers
// with Wave.Lookup first gets a Future only for a prompt that may wait.
type Future struct {
	done chan struct{}
	out  string
	val  any // the template's decoding of out; nil without a decoder
	vt   VTime
	err  error
}

// resolved is the done channel of every future that is settled at
// Submit (a cancelled tenant or aborted wave, a resident prompt submitted
// without a Lookup first): already closed, shared.
var resolved = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Wait blocks until the prompt completes (the scheduler always resolves a
// future, including on error or cancellation).
func (f *Future) Wait() (string, VTime, error) {
	<-f.done
	return f.out, f.vt, f.err
}

// Decoded is Wait for a prompt whose template has a decoder: it returns
// the decoded answer (see NewDecodedTemplate), nil without a decoder.
// A resident answer decoded by the same decoder is not decoded again.
func (f *Future) Decoded() (any, VTime, error) {
	<-f.done
	return f.val, f.vt, f.err
}

// Settled reports, without blocking, whether the prompt has resolved:
// true when Wait and Decoded would return at once. A resident prompt is
// settled at Submit.
func (f *Future) Settled() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// AdmissionClass partitions tenants into dispatch bands. The bands are
// drained in strict priority order — every queued interactive prompt is
// granted a freed slot before any queued batch prompt — which is what
// turns the non-preemptive one-prompt slots into a hard starvation
// bound: an interactive arrival on a saturated scheduler waits at most
// until the first in-flight prompt completes, i.e. one prompt's service
// time, no matter how deep the batch backlog is. Batch tenants in turn
// soak up every slot the interactive band leaves idle, so strict
// priority costs no throughput (the scheduler stays work-conserving).
type AdmissionClass uint8

const (
	// ClassInteractive is the latency-sensitive band: human-facing
	// queries that want their first prompt on a slot as soon as one
	// frees. The default for every tenant.
	ClassInteractive AdmissionClass = iota
	// ClassBatch is the throughput band: analytics-style queries that
	// may consume all idle capacity but must never delay interactive
	// traffic by more than the prompt already on the wire.
	ClassBatch
)

// nClasses sizes the per-class arrays; bands are indexed by class in
// priority order (interactive first).
const nClasses = 2

func (c AdmissionClass) String() string {
	if c == ClassBatch {
		return "batch"
	}
	return "interactive"
}

// ParseClass maps the wire spelling of an admission class ("" defaults
// to interactive) to its value.
func ParseClass(s string) (AdmissionClass, error) {
	switch s {
	case "", "interactive":
		return ClassInteractive, nil
	case "batch":
		return ClassBatch, nil
	}
	return ClassInteractive, fmt.Errorf("unknown admission class %q (want interactive or batch)", s)
}

// DeficitQuantum is the per-rotation deficit refill, in estimated prompt
// tokens, granted to a weight-1 tenant each time the rotation cursor
// reaches it. One token per visit is the finest service granularity:
// tenants interleave in proportion to prompt tokens (equal-cost prompts
// alternate exactly like per-prompt round-robin), and a weight-w tenant
// accrues w tokens per rotation. Dispatch stays O(flows) regardless —
// when a full rotation affords nobody, the rotation is fast-forwarded
// arithmetically rather than spun.
const DeficitQuantum = 1

// promptCost is the deficit-counter currency of one prompt: its
// estimated token count, floored at 1 so zero-token prompts still drain
// deficit and the refill loop always terminates.
func promptCost(tokens int) int64 {
	if tokens > 1 {
		return int64(tokens)
	}
	return 1
}

// Scheduler is the engine-global prompt scheduler: one bounded worker
// pool per model endpoint, shared by every in-flight query of the engine
// and alive for the engine's lifetime. Queries do not talk to it
// directly — each query execution opens a Tenant, submits its prompts
// through that handle, and closes it when done.
//
// When every slot of an endpoint is busy, pending prompts wait in
// per-tenant FIFO queues organised into two dispatch bands by admission
// class. Freed slots drain the interactive band before the batch band
// (strict priority — see AdmissionClass for the starvation bound this
// pins), and within a band tenants are served by deficit round-robin
// denominated in estimated prompt tokens: each rotation visit grants a
// tenant DeficitQuantum × weight tokens of deficit, and a tenant's head
// prompt is dispatched only when its accumulated deficit covers the
// prompt's token cost. Token-denominated deficits mean a tenant issuing
// few huge prompts and a tenant issuing many small ones consume the
// endpoint in proportion to their weights, not their prompt counts —
// the fairness gap plain per-prompt round-robin cannot close.
//
// The worker budget is per model endpoint: a worker slot stands for one
// concurrent connection to one API, and different models (the primary
// and its verifier, say) are different APIs with independent rate
// limits, so calls to one never queue behind calls to the other.
//
// Usage is accounted per tenant, and only there: the tenant counts its
// prompts, tokens and cache hits and misses as the scheduler answers
// them, and the resilient transport charges retries and faults to the
// tenant in the call's context (Tenant.Usage). Latency too is per
// tenant. A streaming tenant (the default) uses a critical-path model;
// a stop-and-go tenant sums its prompt waves
// instead (see SetWaves). Each submitted prompt carries a ready time
// (the virtual completion time of the prompts it depends on) and
// finishes at ready + promptLatency. The simulated wall-clock of one
// query is
//
//	Makespan = max(longest dependency chain, per-endpoint work / workers)
//
// — the classic makespan lower bound of list scheduling: no schedule
// beats the critical path, and no schedule beats an endpoint's total
// work spread over its connection budget. With the cache disabled (the
// benchmark configurations) both terms are pure functions of the prompt
// set and its dependencies, so the reported latency is deterministic
// regardless of the real interleaving of the pool's goroutines — and of
// which other tenants were in flight. Prompts answered by the cache cost
// nothing on either axis, under either policy; which
// of two concurrent identical prompts becomes the singleflight leader
// (and so carries the latency) depends on arrival order, making
// cached-mode latency approximate.
type Scheduler struct {
	cache   *Cache
	workers int
	// budget holds the declared per-endpoint worker budgets (else
	// workers). Built by NewScheduler and never written after, so it is
	// read without s.mu.
	budget map[string]int
	tags   atomic.Int64 // auto-generated tenant tags

	mu        sync.Mutex
	endpoints map[string]*endpoint
	drained   [nClasses]int64 // queued prompts granted a slot, per class
}

// endpoint is the dispatch state of one model API: how many of its
// worker slots are running prompts (split by admission class for the
// gauges) and the class bands of prompts waiting for a slot.
type endpoint struct {
	busy    int
	busyCls [nClasses]int
	bands   [nClasses]band
}

func newEndpoint() *endpoint {
	ep := &endpoint{}
	for c := range ep.bands {
		ep.bands[c] = newBand(DeficitQuantum)
	}
	return ep
}

// dispatchLocked pops the next queued job: the interactive band drains
// to empty before the batch band is consulted. Callers hold s.mu.
func (ep *endpoint) dispatchLocked() *job {
	for c := range ep.bands {
		if j := ep.bands[c].dispatch(); j != nil {
			return j
		}
	}
	return nil
}

// band is one admission class's dispatch state on one endpoint: the
// deficit round-robin rotation over tenants with queued prompts. The
// same structure drives both the live scheduler (under Scheduler.mu)
// and the deterministic policy simulator, so the benchmarked dispatch
// order is the shipped dispatch order.
type band struct {
	quantum int64   // deficit refill per rotation visit, weight 1
	rr      []*flow // flows with queued jobs, in rotation order
	next    int     // rotation cursor into rr
	visited bool    // cursor's flow already got this visit's refill
	flows   map[*Tenant]*flow
}

// flow is one tenant's queue within a band, with its deficit state.
type flow struct {
	t       *Tenant
	weight  int64
	deficit int64
	q       []*job
}

func newBand(quantum int64) band {
	return band{quantum: quantum, flows: map[*Tenant]*flow{}}
}

// enqueue appends one job to its tenant's flow, entering the tenant
// into the rotation if it had nothing queued.
func (b *band) enqueue(j *job) {
	fl, ok := b.flows[j.t]
	if !ok {
		fl = &flow{t: j.t, weight: j.t.weight}
		b.flows[j.t] = fl
		b.rr = append(b.rr, fl)
	}
	fl.q = append(fl.q, j)
}

// queued reports the jobs waiting in this band.
func (b *band) queued() int {
	var n int
	for _, fl := range b.flows {
		n += len(fl.q)
	}
	return n
}

// dispatch pops the next job under deficit round-robin (Shreedhar &
// Varghese, adapted to one-job-per-freed-slot): the cursor's flow is
// granted quantum × weight deficit once per rotation visit, serves head
// jobs while its deficit covers their token cost, and passes the cursor
// on when it cannot afford its head. A flow whose queue empties leaves
// the rotation and forfeits its remaining deficit (idle flows must not
// bank credit). Returns nil when the band is empty.
func (b *band) dispatch() *job {
	if len(b.rr) == 0 {
		return nil
	}
	// One pass from the cursor: serve the first flow whose deficit covers
	// its head, refilling each flow once as the cursor reaches it.
	for i := 0; i < len(b.rr); i++ {
		if b.next >= len(b.rr) {
			b.next = 0
			b.visited = false
		}
		fl := b.rr[b.next]
		if !b.visited {
			fl.deficit += b.quantum * fl.weight
			b.visited = true
		}
		if fl.deficit >= fl.q[0].cost() {
			return b.serve()
		}
		b.next++
		b.visited = false
	}
	// A full rotation afforded nobody. Fast-forward the k further whole
	// rotations (each granting every flow quantum × weight) after which
	// at least one head becomes affordable, then serve the first such
	// flow in rotation order — arithmetic instead of spinning, keeping
	// dispatch O(flows) for arbitrarily large prompts. Flows past the
	// served one bank their k-th refill one visit early; the resulting
	// deviation from pure DRR is bounded by a single quantum.
	k := int64(-1)
	for _, fl := range b.rr {
		qw := b.quantum * fl.weight
		need := (fl.q[0].cost() - fl.deficit + qw - 1) / qw
		if k < 0 || need < k {
			k = need
		}
	}
	for _, fl := range b.rr {
		fl.deficit += k * b.quantum * fl.weight
	}
	for i := 0; i < len(b.rr); i++ {
		if b.next >= len(b.rr) {
			b.next = 0
		}
		if fl := b.rr[b.next]; fl.deficit >= fl.q[0].cost() {
			b.visited = true
			return b.serve()
		}
		b.next++
	}
	return nil // unreachable: k rotations make some head affordable
}

// serve pops the cursor flow's head job, charging its token cost
// against the flow's deficit and retiring the flow when its queue
// empties. Callers ensure the head is affordable.
func (b *band) serve() *job {
	fl := b.rr[b.next]
	j := fl.q[0]
	fl.deficit -= j.cost()
	fl.q = fl.q[1:]
	if len(fl.q) == 0 {
		b.removeAt(b.next)
	}
	return j
}

// removeAt drops the flow at rotation index i, keeping the cursor on
// the element that now occupies the vacated position (the next flow in
// rotation order) and ending any in-progress visit.
func (b *band) removeAt(i int) {
	fl := b.rr[i]
	delete(b.flows, fl.t)
	fl.deficit = 0
	b.rr = append(b.rr[:i], b.rr[i+1:]...)
	if b.next > i {
		b.next--
	} else if b.next == i {
		b.visited = false
	}
}

// purge drops the queued jobs of one tenant from the band — only those
// of wave w when w is non-nil — returning the swept jobs so the caller
// can fail their futures outside the lock.
func (b *band) purge(t *Tenant, w *Wave) []*job {
	fl, ok := b.flows[t]
	if !ok {
		return nil
	}
	var swept, kept []*job
	for _, j := range fl.q {
		if w == nil || j.wave == w {
			swept = append(swept, j)
		} else {
			kept = append(kept, j)
		}
	}
	fl.q = kept
	if len(kept) == 0 {
		for i, other := range b.rr {
			if other == fl {
				b.removeAt(i)
				break
			}
		}
	}
	return swept
}

// job is one queued or running prompt: key instantiating tmpl, whose
// text is built only when the prompt goes to the model. tokens is the
// prompt's estimated token count — counted once at Submit, reused by the
// latency model, the deficit counters (cost) and the tenant's usage.
// wave is the wave the prompt was submitted in, ep the endpoint whose
// slot it runs on. The job is its own Future.
type job struct {
	Future
	t      *Tenant
	wave   *Wave
	ep     *endpoint
	client Client
	tmpl   *Template
	key    string
	ready  VTime
	tokens int
}

// cost is the job's deficit-counter price.
func (j *job) cost() int64 { return promptCost(j.tokens) }

// NewScheduler builds an engine-lifetime scheduler. workers bounds, per
// model endpoint, both the real concurrency of the pool and the
// connection budget of the latency model (0 or negative means
// DefaultBatchWorkers); a declared backend with a positive Workers()
// bounds its own endpoint instead. The budgets are fixed here for the
// scheduler's lifetime. cache may be nil. A granted slot runs on a
// goroutine of the process-wide gopool, which parks it, stack grown, for
// the next miss of any endpoint or tenant and retires it after a short
// idle linger: the scheduler owns no goroutines of its own, and needs no
// explicit shutdown.
func NewScheduler(cache *Cache, workers int, declared ...*Backend) *Scheduler {
	if workers < 1 {
		workers = DefaultBatchWorkers
	}
	s := &Scheduler{
		cache:     cache,
		workers:   workers,
		budget:    map[string]int{},
		endpoints: map[string]*endpoint{},
	}
	for _, b := range declared {
		if b.Workers() > 0 {
			s.budget[b.Name()] = b.Workers()
		}
	}
	return s
}

// Width is how many prompts endpoint runs at once for a tenant of one
// policy, wave being 0 for streaming and the stop-and-go wave width
// otherwise: the backend's declared worker budget, else the scheduler's,
// and under stop-and-go the wave width capped by a declared budget.
// Dispatch, the latency model and the planner's estimate all read it.
func (s *Scheduler) Width(endpoint string, wave int) int {
	if n, declared := s.budget[endpoint]; declared {
		return min(cmp.Or(wave, n), n)
	}
	return cmp.Or(wave, s.workers)
}

// Widths is Width for one policy, as a value the planner carries.
type Widths struct {
	s    *Scheduler
	wave int
}

// Widths returns Width's rule for the policy of wave.
func (s *Scheduler) Widths(wave int) Widths { return Widths{s: s, wave: wave} }

// unbudgeted, declaring no budget, is what the zero Widths reads.
var unbudgeted = &Scheduler{workers: DefaultBatchWorkers}

// Of is the width endpoint runs at under w's policy.
func (w Widths) Of(endpoint string) int {
	return cmp.Or(w.s, unbudgeted).Width(endpoint, w.wave)
}

// ClassGauges is one admission class's live dispatch state, summed over
// endpoints.
type ClassGauges struct {
	Queued  int   `json:"queued"`  // prompts waiting for a slot
	Busy    int   `json:"busy"`    // slots running this class's prompts
	Drained int64 `json:"drained"` // queued prompts granted a slot, cumulative
}

// SchedulerGauges snapshots the scheduler's dispatch state for
// observability surfaces (galois-serve /stats) and for admission
// controllers sampling model-side saturation.
type SchedulerGauges struct {
	Workers     int         `json:"workers"`
	Interactive ClassGauges `json:"interactive"`
	Batch       ClassGauges `json:"batch"`
}

// Gauges snapshots per-class queued/busy counts and the cumulative
// deficit-scheduler drain counters under one lock acquisition.
func (s *Scheduler) Gauges() SchedulerGauges {
	s.mu.Lock()
	defer s.mu.Unlock()
	var per [nClasses]ClassGauges
	for c := range per {
		per[c].Drained = s.drained[c]
	}
	for _, ep := range s.endpoints {
		for c := range ep.bands {
			per[c].Queued += ep.bands[c].queued()
			per[c].Busy += ep.busyCls[c]
		}
	}
	return SchedulerGauges{
		Workers:     s.workers,
		Interactive: per[ClassInteractive],
		Batch:       per[ClassBatch],
	}
}

// CheckQuiescent checks the invariants that hold once every tenant's
// prompts have settled: no band of any endpoint keeps a flow in its
// rotation or its flow set (so no job is queued), and no slot is busy.
func (s *Scheduler) CheckQuiescent() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, ep := range s.endpoints {
		for c := range ep.bands {
			if b := &ep.bands[c]; len(b.rr) != 0 || len(b.flows) != 0 {
				return fmt.Errorf("llm scheduler: %s band of %q keeps %d flows in rotation, %d in its set, %d jobs queued",
					AdmissionClass(c), name, len(b.rr), len(b.flows), b.queued())
			}
		}
		if ep.busy != 0 || ep.busyCls != [nClasses]int{} {
			return fmt.Errorf("llm scheduler: %q has %d busy slots (%v by class)", name, ep.busy, ep.busyCls)
		}
	}
	return nil
}

// endpointLocked returns the dispatch state of one model endpoint.
// Callers hold s.mu.
func (s *Scheduler) endpointLocked(model string) *endpoint {
	ep, ok := s.endpoints[model]
	if !ok {
		ep = newEndpoint()
		s.endpoints[model] = ep
	}
	return ep
}

// Tenant opens one query's submission handle in the interactive class
// with the default weight — the compatibility surface; TenantFor selects
// class and weight. Prompts submitted through it compete for the shared
// per-endpoint worker budget under class-banded deficit-weighted
// fair-share; accounting (prompt latency, critical path, makespan) is
// kept per tenant so per-query attribution stays exact however many
// queries are in flight. When ctx is cancelled the tenant's queued
// prompts are failed immediately — without draining, delaying or
// otherwise perturbing the other tenants — and its running prompts see
// the cancellation through their call context. tag identifies the tenant
// in diagnostics; empty auto-generates one.
//
// Callers must Close the tenant when the query is done (Close is
// idempotent).
func (s *Scheduler) Tenant(ctx context.Context, tag string) *Tenant {
	return s.TenantFor(ctx, tag, ClassInteractive, 1)
}

// TenantFor opens a tenant in an explicit admission class with a
// deficit weight (values below 1 are clamped to 1). Weight scales the
// tenant's share of its band: a weight-2 batch tenant drains twice the
// prompt tokens per rotation of a weight-1 batch tenant. Class is fixed
// for the tenant's lifetime. The tenant's prompts run under ctx with the
// tenant attached, so the resilient transport can charge them.
func (s *Scheduler) TenantFor(ctx context.Context, tag string, class AdmissionClass, weight int) *Tenant {
	if tag == "" {
		tag = fmt.Sprintf("q%d", s.tags.Add(1))
	}
	if class >= nClasses {
		class = ClassInteractive
	}
	if weight < 1 {
		weight = 1
	}
	t := &Tenant{
		s:      s,
		tag:    tag,
		class:  class,
		weight: int64(weight),
		work:   map[string]time.Duration{},
	}
	t.ctx = context.WithValue(ctx, ctxKeyTenant, t)
	t.stream = &Wave{t: t, ctx: t.ctx}
	if ctx.Done() != nil {
		t.unwatch = context.AfterFunc(ctx, func() { t.purge(nil, ctx.Err()) })
	}
	return t
}

// Tenant is one query's handle on the shared scheduler: prompts are
// submitted through it, and the query's usage and simulated latency
// accrue on it. Safe for concurrent use by the query's operators.
type Tenant struct {
	s      *Scheduler
	ctx    context.Context
	tag    string
	class  AdmissionClass
	weight int64
	// width is the stop-and-go wave width (SetWaves); 0 runs the
	// streaming policy.
	width int
	// stream is the streaming policy's one wave: stateless, shared by
	// every operator of the query.
	stream *Wave

	inflight sync.WaitGroup // submitted futures not yet resolved
	// unwatch stops the purge registered on ctx's cancellation; nil when
	// ctx cannot be cancelled.
	unwatch func() bool

	mu    sync.Mutex
	usage Stats                    // counters; SimulatedLatency stays 0
	span  VTime                    // latest dependency-chain completion
	work  map[string]time.Duration // per-endpoint issued-prompt latency
}

// SetWaves switches the tenant, before its first prompt, to the paper's
// stop-and-go policy with waves width wide (0 keeps it streaming, as
// Width reads wave). Operators then drain their input before their
// first prompt and issue each step as one Wave that settles before
// anything downstream starts. The tenant's simulated latency becomes the
// sum of its waves. A wave costs ⌈issued / width⌉ × its slowest issued
// prompt (WaveCost): width concurrent calls per round, or fewer on an
// endpoint whose backend declares a smaller worker budget (Width). A
// prompt submitted through
// Single (a key-scan page) is a wave of one. The sum is kept as the
// critical path, since stop-and-go waves run one after another.
func (t *Tenant) SetWaves(width int) {
	t.width = max(width, 0)
}

// StopAndGo reports whether the tenant runs the stop-and-go policy.
func (t *Tenant) StopAndGo() bool { return t.width > 0 }

// Wave is the set of prompts one operator issues for one batch of input.
// Under the stop-and-go policy it is the unit of latency accounting and
// a barrier: Settle waits it out, and its first failing prompt fails the
// whole wave. A streaming tenant accounts prompts on the critical path
// instead, and Settle returns at once. A Wave is used by one goroutine.
type Wave struct {
	t   *Tenant
	ctx context.Context // the call context of the wave's prompts
	// fail aborts a stop-and-go wave with its first failure; nil for the
	// streaming wave and for a wave of one.
	fail    context.CancelCauseFunc
	futures []*Future     // what Settle waits for; only when fail is set
	issued  int           // prompts that reached the model; guarded by t.mu
	slowest time.Duration // guarded by t.mu
}

// Wave opens a prompt wave on the tenant. Under the streaming policy it
// is the tenant's shared, stateless wave.
func (t *Tenant) Wave() *Wave {
	if t.width == 0 {
		return t.stream
	}
	ctx, fail := context.WithCancelCause(t.ctx)
	return &Wave{t: t, ctx: ctx, fail: fail}
}

// Settle ends a stop-and-go wave: it waits for every prompt and reports
// the failure that aborted the wave (else the first failure in
// submission order, such as a prompt purged by Close), so nothing
// downstream starts on a partial wave. Under the streaming policy it
// returns nil at once, and each answer is awaited where it is consumed.
func (w *Wave) Settle() error {
	if w.fail == nil {
		return nil
	}
	var first error
	for _, f := range w.futures {
		if _, _, err := f.Wait(); err != nil && first == nil {
			first = err
		}
	}
	if err := w.err(); err != nil {
		first = err
	}
	w.fail(nil) // release the wave's context
	return first
}

// err reports why the wave's prompts must not run: the tenant's
// cancellation, or the failure that aborted the wave.
func (w *Wave) err() error {
	if err := w.t.ctx.Err(); err != nil || w.fail == nil {
		return err
	}
	if w.ctx.Err() != nil {
		return context.Cause(w.ctx)
	}
	return nil
}

// abort fails a stop-and-go wave on its first failure, as the query
// fails anyway: prompts of the wave still at the model see their call
// context cancelled, and its queued prompts are failed unsent.
func (w *Wave) abort(err error) {
	if w.fail == nil {
		return
	}
	w.fail(err)
	w.t.purge(w, err)
}

// WaveCost is the simulated duration of prompts issued at once over width
// concurrent calls: ⌈prompts / width⌉ rounds, each as slow as the slowest
// prompt. The planner passes fractional estimated counts.
func WaveCost(prompts float64, width int, slowest time.Duration) time.Duration {
	return time.Duration(math.Ceil(prompts/float64(width))) * slowest
}

// Submit enqueues one raw-text prompt whose dependencies complete at
// ready and returns immediately; the shared pool resolves the future when
// a worker slot of the client's endpoint is granted to this tenant. The
// answered prompt, its tokens and its cache hit or miss count on the
// tenant's Usage, its latency in its Stats. The completion enters the
// cache unclassified. A raw-text prompt is the template-less case of
// Wave.Submit: its whole text is the key.
//
// Under the stop-and-go policy the prompt is a wave of one.
func (t *Tenant) Submit(client Client, prompt string, ready VTime) *Future {
	return t.Single().submit(client, rawText, prompt, ready)
}

// Single is the wave of a prompt submitted on its own: the streaming
// wave, or under the stop-and-go policy a wave of one, accounted as its
// own wave and never settled (its Settle returns nil at once). Inherently
// sequential chains (the key scan's "more results" pages) submit each
// link through it.
func (t *Tenant) Single() *Wave {
	if t.width > 0 {
		return &Wave{t: t, ctx: t.ctx}
	}
	return t.stream
}

// Submit enqueues, as one prompt of the wave, key instantiating the
// template tp; a nil tp submits key as an unclassified raw-text prompt.
// The completion enters the cache under tp's class, with tp's decoding
// of it when tp has a decoder. A prompt submitted to an aborted wave
// fails at once.
//
// A prompt whose completion is resident in the cache is answered here,
// at ready, as by Lookup: no goroutine starts, no worker slot or deficit
// is spent, no tokens are counted and no prompt text is built. The hit is
// counted on the tenant at once, and the answer comes in a settled
// Future. An operator that reads many resident prompts calls Lookup
// first and submits only its misses, with SubmitMiss, so a hit costs it
// neither the Future nor the tenant lock.
func (w *Wave) Submit(client Client, tp *Template, key string, ready VTime) *Future {
	if tp == nil {
		tp = rawText
	}
	return w.track(w.submit(client, tp, key, ready))
}

// SubmitMiss is Submit for a prompt whose Lookup has just missed: it
// enqueues the prompt without probing the cache again. A completion that
// lands in between is still not asked twice: the prompt's slot reads the
// cache before it calls the model, and counts a hit there.
func (w *Wave) SubmitMiss(client Client, tp *Template, key string, ready VTime) *Future {
	if tp == nil {
		tp = rawText
	}
	return w.track(w.enqueue(client, tp, key, ready))
}

// track adds f to what a stop-and-go wave's Settle waits for.
func (w *Wave) track(f *Future) *Future {
	if w.fail != nil {
		w.futures = append(w.futures, f)
	}
	return f
}

// Lookup reads the answer to key instantiating tp (nil: a raw-text
// prompt) when the cache holds it: the completion, tp's decoding of it
// and true. A fact already held costs a map lookup on the key: the hit is
// counted on the cache and its recency bumped exactly as on the slot
// path, and an entry whose decoded slot is tp's decoder's is not decoded
// again. Lookup allocates nothing and touches no tenant state: the caller
// counts its hits, with the latest ready time among them, and folds them
// into the tenant with FoldHits. A hit joins no stop-and-go wave, as it
// has nothing to wait for. A miss reports false, and so does a cancelled
// tenant or an aborted wave, hit or not: the caller then submits the
// prompt, whose future fails.
func (w *Wave) Lookup(client Client, tp *Template, key string) (out string, val any, ok bool) {
	c := w.t.s.cache
	if c == nil {
		return "", nil, false
	}
	// The wave's context is done exactly when err reports a failure;
	// polling Done takes no lock once the channel exists, where Err locks
	// the context on every call.
	select {
	case <-w.ctx.Done():
		return "", nil, false
	default:
	}
	if tp == nil {
		tp = rawText
	}
	if out, val, ok = c.hit(client.Name(), tp, key); !ok {
		return "", nil, false
	}
	return out, tp.value(out, val), true
}

// FoldHits adds, in one step, hits prompts a caller answered with
// Lookup to the tenant's cache hits. latest is the latest of their ready
// times: under the streaming policy the critical path reaches at least
// latest, as if each hit had been submitted.
func (t *Tenant) FoldHits(hits int, latest VTime) {
	t.mu.Lock()
	t.usage.CacheHits += hits
	if t.width == 0 && latest > t.span {
		t.span = latest
	}
	t.mu.Unlock()
}

// submit answers a resident prompt at once and enqueues any other.
func (w *Wave) submit(client Client, tp *Template, key string, ready VTime) *Future {
	if out, val, ok := w.Lookup(client, tp, key); ok {
		w.t.FoldHits(1, ready)
		return &Future{done: resolved, out: out, val: val, vt: ready}
	}
	return w.enqueue(client, tp, key, ready)
}

// enqueue hands a prompt to a free worker slot of its endpoint, or
// queues it in its tenant's band; a failed wave fails it at once.
func (w *Wave) enqueue(client Client, tp *Template, key string, ready VTime) *Future {
	if err := w.err(); err != nil {
		return &Future{done: resolved, err: err}
	}
	t, s := w.t, w.t.s
	tokens := tp.tokens(key)
	j := &job{t: t, wave: w, client: client, tmpl: tp, key: key, ready: ready, tokens: tokens}
	j.done = make(chan struct{})
	f := &j.Future
	t.inflight.Add(1)
	s.mu.Lock()
	// Re-check under the lock: purge also runs under it, so a cancel or
	// an abort landing between the check above and here cannot strand
	// this job in a queue the purge has already swept.
	if err := w.err(); err != nil {
		s.mu.Unlock()
		j.err = err
		close(j.done)
		t.inflight.Done()
		return f
	}
	ep := s.endpointLocked(client.Name())
	j.ep = ep
	if ep.busy < s.Width(client.Name(), 0) {
		// A free slot means every band is empty (dispatch runs under the
		// same lock that frees slots), so direct placement cannot overtake
		// queued work of any class.
		ep.busy++
		ep.busyCls[t.class]++
		s.mu.Unlock()
		gopool.Go(j)
		return f
	}
	ep.bands[t.class].enqueue(j)
	s.mu.Unlock()
	return f
}

// Run is the slot a job was granted at Submit, as a gopool task: the
// handoff passes the job itself, so starting a slot allocates nothing.
func (j *job) Run() { j.t.s.run(j) }

// run is one granted slot of an endpoint, on a pooled goroutine. It
// executes j, then whatever dispatch hands it next, and releases the slot
// when the endpoint's bands are empty; the goroutine then parks in the
// pool, stack already grown, for the next miss.
func (s *Scheduler) run(j *job) {
	ep := j.ep
	for {
		s.exec(j)
		s.mu.Lock()
		ep.busyCls[j.t.class]--
		if j = ep.dispatchLocked(); j == nil {
			ep.busy--
			s.mu.Unlock()
			return
		}
		ep.busyCls[j.t.class]++
		s.drained[j.t.class]++
		s.mu.Unlock()
	}
}

// exec runs one job to resolution; a failure aborts the job's wave.
func (s *Scheduler) exec(j *job) {
	defer j.t.inflight.Done()
	defer close(j.done)
	if err := j.wave.err(); err != nil {
		j.err = err
		return
	}
	j.out, j.val, j.vt, j.err = s.complete(j)
	if j.err != nil {
		j.wave.abort(j.err)
	}
}

// purge fails every queued-but-not-running job of one tenant — of one of
// its waves when w is non-nil — freeing the queue without touching other
// tenants or the running slots. Called on context cancellation, on Close
// and when a wave aborts.
func (t *Tenant) purge(w *Wave, err error) {
	if err == nil {
		err = context.Canceled
	}
	s := t.s
	var purged []*job
	s.mu.Lock()
	for _, ep := range s.endpoints {
		purged = append(purged, ep.bands[t.class].purge(t, w)...)
	}
	s.mu.Unlock()
	for _, j := range purged {
		j.err = err
		close(j.done)
		j.t.inflight.Done()
	}
}

// Close releases the tenant: the purge registered on its context is
// dropped, and any queued prompts (a cancelled or abandoned query's)
// are failed. Idempotent.
func (t *Tenant) Close() {
	if t.unwatch != nil {
		t.unwatch()
	}
	t.purge(nil, t.ctx.Err())
}

// complete runs one job on its granted slot: through the cache when one
// is configured (a prompt that became resident or in flight since Submit
// still costs nothing), else straight to the model. The prompt's text is
// built here, only for the model call, and its answer is decoded here,
// once, on the slot goroutine.
func (s *Scheduler) complete(j *job) (string, any, VTime, error) {
	t, client := j.t, j.client
	ctx := j.wave.ctx
	call := func() (string, error) { return client.Complete(ctx, j.tmpl.text(j.key)) }
	var out string
	var val any
	issued := true
	var err error
	if s.cache != nil {
		out, val, issued, err = s.cache.fetch(ctx, client.Name(), j.tmpl, j.key, call)
	} else {
		out, err = call()
	}
	if err != nil {
		return "", nil, 0, err
	}
	val = j.tmpl.value(out, val)

	var lat time.Duration
	var ct int
	if issued {
		ct = CountTokens(out)
		lat = promptLatency(j.tokens, ct)
	}

	end := j.ready + lat
	t.mu.Lock()
	if issued {
		t.usage.Prompts++
		t.usage.PromptTokens += j.tokens
		t.usage.CompletionTokens += ct
	}
	if s.cache != nil {
		if issued {
			t.usage.CacheMisses++
		} else {
			t.usage.CacheHits++
		}
	}
	switch {
	case t.width == 0:
		t.work[client.Name()] += lat
		if end > t.span {
			t.span = end
		}
	case issued:
		w, width := j.wave, s.Width(client.Name(), t.width)
		before := WaveCost(float64(w.issued), width, w.slowest)
		w.issued++
		w.slowest = max(w.slowest, lat)
		t.span += WaveCost(float64(w.issued), width, w.slowest) - before
	}
	t.mu.Unlock()
	return out, val, end, nil
}

// Quiesce blocks until every future this tenant submitted has resolved.
// Early termination (a satisfied LIMIT) can abandon futures that are
// still talking to the model; their prompts were issued and must be
// accounted, so callers quiesce before reading final stats or the
// makespan.
func (t *Tenant) Quiesce() { t.inflight.Wait() }

// Usage returns the query's accounting: the prompts, tokens, cache and
// resilience counters accrued on the tenant, with SimulatedLatency set
// to the makespan of its Stats. Quiesce first: abandoned futures still
// count.
func (t *Tenant) Usage() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	u := t.usage
	u.SimulatedLatency = Makespan(t.span, t.work, t.s.Widths(t.width).Of)
	return u
}

// Stats snapshots the tenant's simulated-latency accounting, with the
// worker budget each endpoint had, for aggregation across concurrent
// queries.
func (t *Tenant) Stats() *TenantStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := &TenantStats{
		Tag:          t.tag,
		Class:        t.class.String(),
		Weight:       int(t.weight),
		CriticalPath: t.span,
		Work:         make(map[string]time.Duration, len(t.work)),
		Workers:      make(map[string]int, len(t.work)),
	}
	for ep, b := range t.work {
		ts.Work[ep] = b
		ts.Workers[ep] = t.s.Width(ep, t.width)
	}
	return ts
}

// TenantStats is one query's simulated-latency accounting on the shared
// scheduler: the longest dependency chain of its prompts, the summed
// issued-prompt latency per model endpoint, and the worker budget each
// of those endpoints had (its backend's declared budget, else the
// scheduler default). Class and Weight record the dispatch treatment the
// tenant received; they do not enter the latency model (the makespan
// bound is schedule-independent by construction).
type TenantStats struct {
	Tag          string
	Class        string
	Weight       int
	CriticalPath VTime
	Work         map[string]time.Duration
	Workers      map[string]int
}

// Makespan is the query-alone simulated wall-clock of this snapshot: the
// larger of the critical path and the busiest endpoint's work spread
// over that endpoint's worker budget (a stop-and-go tenant's critical
// path is its wave sum, and it keeps no per-endpoint work).
func (ts *TenantStats) Makespan() VTime {
	return Makespan(ts.CriticalPath, ts.Work, func(ep string) int { return ts.Workers[ep] })
}

// Makespan is the list-scheduling bound (Graham): the larger of a
// critical path and each endpoint's work spread over the width that
// endpoint runs at. The scheduler bounds a query with it and the planner
// its estimate.
func Makespan(span VTime, work map[string]time.Duration, width func(endpoint string) int) VTime {
	out := span
	for ep, b := range work {
		out = max(out, b/time.Duration(width(ep)))
	}
	return out
}

// AggregateMakespan bounds the simulated wall-clock of a set of queries
// run concurrently against one scheduler: the same list-scheduling bound
// the per-query model uses, lifted across tenants — no schedule beats
// any single query's critical path, and no schedule beats an endpoint's
// total work (summed over all tenants) spread over the worker budget the
// snapshots record for it. Like the per-query makespan, it is a pure
// function of the prompt sets when the cache is off, so concurrency
// benchmarks built on it are deterministic. It is also
// dispatch-policy-independent: any work-conserving drain order
// (round-robin, deficit-weighted, …) meets the same bound, which is why
// switching policies cannot regress aggregate throughput.
func AggregateMakespan(stats []*TenantStats) VTime {
	var span VTime
	work := map[string]time.Duration{}
	workers := map[string]int{}
	for _, ts := range stats {
		if ts == nil {
			continue
		}
		span = max(span, ts.CriticalPath)
		for ep, b := range ts.Work {
			work[ep] += b
			workers[ep] = ts.Workers[ep]
		}
	}
	return Makespan(span, work, func(ep string) int { return workers[ep] })
}
