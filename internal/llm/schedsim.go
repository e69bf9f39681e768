package llm

import (
	"container/heap"
	"sort"
)

// This file is a deterministic discrete-event simulator for the
// scheduler's dispatch policies. The live scheduler's dispatch order
// under contention depends on goroutine interleaving, so "interactive
// p99 under mixed-class load" cannot be measured reproducibly from a
// real run. The simulator closes that gap: it drives the *same*
// endpoint/band dispatch code the live scheduler runs (strict class
// priority + deficit round-robin), but with a virtual clock and a
// virtual worker pool, so per-query latency under contention is a pure
// function of the workload — byte-identical across runs and machines,
// which is what lets BENCH_sched.json be a committed, diffable
// artifact. The round-robin baseline reimplements the pre-deficit
// dispatch (one job per tenant per rotation visit, blind to class and
// prompt cost) for the A/B comparison.

// SimPolicy selects the dispatch policy of one simulation arm.
type SimPolicy int

const (
	// PolicyRoundRobin is the legacy baseline: per-prompt round-robin
	// over tenants, one band, no classes, no token accounting.
	PolicyRoundRobin SimPolicy = iota
	// PolicyDeficitWeighted is the shipped policy: strict-priority
	// class bands drained by token-denominated deficit round-robin —
	// the very same band code the live scheduler dispatches with.
	PolicyDeficitWeighted
)

func (p SimPolicy) String() string {
	if p == PolicyDeficitWeighted {
		return "deficit-weighted"
	}
	return "round-robin"
}

// SimTenant describes one simulated query's prompt stream.
type SimTenant struct {
	Tag     string
	Class   AdmissionClass
	Weight  int
	Arrival VTime // when the tenant's first prompt becomes ready
	// Costs are the prompt token counts, in issue order. When Chain is
	// set each prompt becomes ready only when its predecessor completes
	// (a query's dependent waves); otherwise all prompts are ready at
	// Arrival (a batch scan's independent fan-out).
	Costs []int
	Chain bool
}

// SimTenantResult is one tenant's simulated outcome.
type SimTenantResult struct {
	Tag          string `json:"tag"`
	Class        string `json:"class"`
	Arrival      VTime  `json:"arrival_ns"`
	FirstDone    VTime  `json:"first_done_ns"`
	LastDone     VTime  `json:"last_done_ns"`
	FirstLatency VTime  `json:"first_latency_ns"` // FirstDone - Arrival
	Latency      VTime  `json:"latency_ns"`       // LastDone - Arrival
}

// SimResult is the outcome of one simulation arm.
type SimResult struct {
	Policy   string            `json:"policy"`
	Workers  int               `json:"workers"`
	Tenants  []SimTenantResult `json:"tenants"`
	Makespan VTime             `json:"makespan_ns"` // last completion
}

// simCompletionTokens fixes every simulated answer's token count so
// service time is a function of the prompt cost alone.
const simCompletionTokens = 8

// simService is one simulated prompt's slot-occupancy time.
func simService(cost int) VTime {
	return promptLatency(cost, simCompletionTokens)
}

// SimService exposes the simulator's service-time model: what one
// prompt of the given token cost occupies a virtual slot for. The sched
// benchmark uses it to express the starvation bound ("an interactive
// arrival waits at most one prompt's service time") in the same units
// the simulation runs in.
func SimService(cost int) VTime { return simService(cost) }

// simDispatcher abstracts the policy under test: jobs enter when ready,
// and dispatch picks which queued job gets a freed virtual slot.
type simDispatcher interface {
	enqueue(*job)
	dispatch() *job
}

// drrSim dispatches through a real scheduler endpoint — the shipped
// strict-priority + deficit-round-robin code path, unmodified.
type drrSim struct{ ep *endpoint }

func (d *drrSim) enqueue(j *job) { d.ep.bands[j.t.class].enqueue(j) }
func (d *drrSim) dispatch() *job { return d.ep.dispatchLocked() }

// rrSim reimplements the pre-deficit dispatch: tenants with queued jobs
// in one rotation, one job popped per visit, FIFO within a tenant.
type rrSim struct {
	rr   []*Tenant
	next int
	q    map[*Tenant][]*job
}

func (r *rrSim) enqueue(j *job) {
	if _, ok := r.q[j.t]; !ok {
		r.rr = append(r.rr, j.t)
	}
	r.q[j.t] = append(r.q[j.t], j)
}

func (r *rrSim) dispatch() *job {
	if len(r.rr) == 0 {
		return nil
	}
	if r.next >= len(r.rr) {
		r.next = 0
	}
	t := r.rr[r.next]
	queue := r.q[t]
	j := queue[0]
	if len(queue) == 1 {
		delete(r.q, t)
		r.rr = append(r.rr[:r.next], r.rr[r.next+1:]...)
	} else {
		r.q[t] = queue[1:]
		r.next++
	}
	return j
}

// simEvent is one virtual-clock event: a prompt becoming ready
// (kindReady) or a running prompt completing (kindDone). seq breaks
// same-instant ties in push order, keeping the event order — and hence
// the whole simulation — deterministic.
type simEvent struct {
	at     VTime
	seq    int
	kind   int // kindReady | kindDone
	tenant int
	idx    int // prompt index within the tenant
}

const (
	kindReady = iota
	kindDone
)

type simHeap []simEvent

func (h simHeap) Len() int { return len(h) }
func (h simHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h simHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *simHeap) Push(x any)   { *h = append(*h, x.(simEvent)) }
func (h *simHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Simulate runs one workload against one policy on a virtual pool of
// workers slots and returns per-tenant latencies. Purely arithmetic: no
// goroutines, no wall clock, no randomness — identical inputs give
// identical outputs on every platform.
func Simulate(workers int, policy SimPolicy, tenants []SimTenant) SimResult {
	if workers < 1 {
		workers = DefaultBatchWorkers
	}
	var disp simDispatcher
	if policy == PolicyDeficitWeighted {
		disp = &drrSim{ep: newEndpoint()}
	} else {
		disp = &rrSim{q: map[*Tenant][]*job{}}
	}

	// Dummy tenants carry class/weight into the shared dispatch code;
	// jobs carry the token cost. meta maps a dispatched job back to its
	// (tenant, prompt) coordinates.
	type coord struct{ tenant, idx int }
	meta := map[*job]coord{}
	dummies := make([]*Tenant, len(tenants))
	for i, st := range tenants {
		w := st.Weight
		if w < 1 {
			w = 1
		}
		cls := st.Class
		if cls >= nClasses {
			cls = ClassInteractive
		}
		dummies[i] = &Tenant{tag: st.Tag, class: cls, weight: int64(w)}
	}

	results := make([]SimTenantResult, len(tenants))
	for i, st := range tenants {
		results[i] = SimTenantResult{Tag: st.Tag, Class: dummies[i].class.String(), Arrival: st.Arrival, FirstDone: -1}
	}

	events := &simHeap{}
	seq := 0
	push := func(at VTime, kind, tenant, idx int) {
		heap.Push(events, simEvent{at: at, seq: seq, kind: kind, tenant: tenant, idx: idx})
		seq++
	}
	for i, st := range tenants {
		if len(st.Costs) == 0 {
			continue
		}
		if st.Chain {
			push(st.Arrival, kindReady, i, 0)
		} else {
			for idx := range st.Costs {
				push(st.Arrival, kindReady, i, idx)
			}
		}
	}

	free := workers
	now := VTime(0)
	var makespan VTime
	for events.Len() > 0 {
		e := heap.Pop(events).(simEvent)
		now = e.at
		switch e.kind {
		case kindReady:
			j := &job{t: dummies[e.tenant], tokens: tenants[e.tenant].Costs[e.idx]}
			meta[j] = coord{e.tenant, e.idx}
			disp.enqueue(j)
		case kindDone:
			free++
			r := &results[e.tenant]
			if r.FirstDone < 0 {
				r.FirstDone = now
			}
			if now > r.LastDone {
				r.LastDone = now
			}
			if now > makespan {
				makespan = now
			}
			st := tenants[e.tenant]
			if st.Chain && e.idx+1 < len(st.Costs) {
				push(now, kindReady, e.tenant, e.idx+1)
			}
		}
		// Work-conserving: hand every free slot to the policy before the
		// clock moves again.
		for free > 0 {
			j := disp.dispatch()
			if j == nil {
				break
			}
			free--
			c := meta[j]
			delete(meta, j)
			push(now+simService(tenants[c.tenant].Costs[c.idx]), kindDone, c.tenant, c.idx)
		}
	}

	for i := range results {
		r := &results[i]
		if r.FirstDone < 0 { // tenant had no prompts
			r.FirstDone, r.LastDone = r.Arrival, r.Arrival
		}
		r.FirstLatency = r.FirstDone - r.Arrival
		r.Latency = r.LastDone - r.Arrival
	}
	return SimResult{Policy: policy.String(), Workers: workers, Tenants: results, Makespan: makespan}
}

// Percentile returns the p-th percentile (0 < p <= 100) of ds by the
// nearest-rank method — deterministic, no interpolation.
func Percentile(ds []VTime, p float64) VTime {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]VTime(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(float64(len(sorted))*p/100 + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
