package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// errAdmissionShed marks a request refused at the gate: the controller
// is already at its floor and the wait queue is at its bound, so the
// only honest answer is "come back later" — fast.
var errAdmissionShed = errors.New("admission queue saturated")

// errAdmissionCancelled marks a request whose client disconnected before
// it held an execution slot: on arrival, or while it waited.
var errAdmissionCancelled = errors.New("request cancelled while queued for admission")

// admission is the adaptive concurrency gate in front of query
// execution. It replaces the fixed channel semaphore with an AIMD
// (additive-increase / multiplicative-decrease) controller: the
// effective limit starts at the configured ceiling — an idle, healthy
// server admits exactly like the static gate did — and moves between a
// floor and that ceiling driven by backpressure signals sampled at each
// query's completion (scheduler queue depth beyond the worker budget,
// a non-closed circuit breaker). Healthy completions grow the limit by
// one; congested completions halve it toward the floor, rate-limited by
// a cooldown so one backlogged sample doesn't collapse the window.
//
// Shedding is a last resort, not the first response to pressure: a
// request that finds the wait queue full while the limit is still above
// the floor is admitted into the queue anyway and the limit is cut —
// the queue transiently overshoots its bound, but the shrinking limit
// drains it, and only when the controller is already at the floor AND
// the queue is at its bound does a request get 503 + Retry-After. This
// keeps the static gate's property that a burst onto an idle server is
// never shed, while adding the property that a degraded backend sheds
// early instead of queueing doomed work.
//
// Waiters are granted strictly FIFO via per-request channels: a freed
// slot is handed to the oldest waiter (channel close), so arrival order
// is service order and no waiter can be starved by fast-path arrivals
// (the fast path requires an empty queue).
//
// The controller is class-aware: batch queries run under their own
// sub-limit (batchLimit, starting wide open at the ceiling) inside the
// global limit, and congestion observed while batch work is present
// halves that sub-limit first — batch concurrency is the headroom shed
// to protect interactive capacity, and only once the batch band is down
// to one slot do further congested samples cut the global limit. A
// purely interactive workload never has batch pressure, so its AIMD
// trajectory is exactly the class-blind controller's. Batch waiters
// queue separately; an interactive arrival is never stuck behind a
// batch head blocked on the batch cap.
type admission struct {
	mu    sync.Mutex
	limit int // current effective concurrency bound (floor..ceil)
	floor int
	ceil  int
	// batchLimit caps concurrently executing batch-class queries
	// (1..ceil); congestion cuts it before the global limit.
	batchLimit  int
	active      int             // slots granted (may transiently exceed limit after a cut)
	batchActive int             // granted slots held by batch-class queries
	queue       []chan struct{} // FIFO interactive waiters; a close grants the slot
	batchQueue  []chan struct{} // FIFO batch waiters, granted only under batchLimit
	lastCut     time.Time       // last multiplicative decrease, for the cooldown

	maxQueue int
	cooldown time.Duration
	now      func() time.Time

	increases atomic.Int64 // additive limit growths
	decreases atomic.Int64 // multiplicative limit cuts

	// waiting mirrors the queue length into the server's public gauge
	// (tests and /stats read the atomic without taking mu).
	waiting *atomic.Int64
}

// defaultCutCooldown spaces multiplicative decreases: congestion
// signals arrive once per completing query, and a single backlog spike
// observed by a dozen completions should cost one cut, not a collapse
// to the floor.
const defaultCutCooldown = 250 * time.Millisecond

// newAdmission builds the controller. floor <= 0 selects ceil/4
// (minimum 1); cooldown < 0 disables the cut rate limit (tests drive
// deterministic cut sequences that way).
func newAdmission(ceil, floor, maxQueue int, cooldown time.Duration, waiting *atomic.Int64) *admission {
	if ceil < 1 {
		ceil = 1
	}
	if floor <= 0 {
		floor = ceil / 4
	}
	if floor < 1 {
		floor = 1
	}
	if floor > ceil {
		floor = ceil
	}
	if cooldown == 0 {
		cooldown = defaultCutCooldown
	}
	return &admission{
		limit:      ceil, // start wide open: an idle server behaves like the static gate
		floor:      floor,
		ceil:       ceil,
		batchLimit: ceil, // batch headroom also starts wide open
		maxQueue:   maxQueue,
		cooldown:   cooldown,
		now:        time.Now,
		waiting:    waiting,
	}
}

// acquire admits an interactive-class request (see acquireClass).
func (a *admission) acquire(done <-chan struct{}) error {
	return a.acquireClass(done, false)
}

// acquireClass blocks until the request holds an execution slot, the
// context is cancelled (errAdmissionCancelled), or the gate sheds it
// (errAdmissionShed). done is the request context's Done channel (split
// out so tests can drive it directly); batch routes the request through
// the batch band's sub-limit.
func (a *admission) acquireClass(done <-chan struct{}, batch bool) error {
	select {
	case <-done:
		// The client left before the request reached the gate: a free
		// slot would serve no one.
		return errAdmissionCancelled
	default:
	}
	a.mu.Lock()
	if a.fastPathLocked(batch) {
		// A free slot and nobody ahead: admitted immediately, never
		// queued. This path must not touch the waiting gauge — a burst
		// onto an idle server is not queue pressure.
		a.active++
		if batch {
			a.batchActive++
		}
		a.mu.Unlock()
		return nil
	}
	if len(a.queue)+len(a.batchQueue) >= a.maxQueue {
		if a.limit <= a.floor {
			// Floor AND full queue: genuinely saturated, shed.
			a.mu.Unlock()
			return errAdmissionShed
		}
		// Full queue above the floor is congestion evidence, not a shed:
		// cut the limit and queue anyway. The bound is transiently
		// exceeded; the shrinking limit converges to the floor, where
		// the bound becomes hard again.
		a.cutLocked()
	}
	ch := make(chan struct{})
	if batch {
		a.batchQueue = append(a.batchQueue, ch)
	} else {
		a.queue = append(a.queue, ch)
	}
	a.waiting.Add(1)
	a.mu.Unlock()

	select {
	case <-ch:
		a.waiting.Add(-1)
		select {
		case <-done:
			// The client was already gone when the slot was granted (with
			// both cases ready either may win): hand the slot straight to
			// the next waiter and do not serve.
			a.returnSlot(batch)
			return errAdmissionCancelled
		default:
		}
		return nil
	case <-done:
		a.mu.Lock()
		granted := true
		q := &a.queue
		if batch {
			q = &a.batchQueue
		}
		for i, w := range *q {
			if w == ch {
				// Still queued: withdraw. Order of the rest is preserved.
				*q = append((*q)[:i], (*q)[i+1:]...)
				granted = false
				break
			}
		}
		if granted {
			// grantLocked already popped us and transferred a slot; give
			// it back to the next in line.
			a.active--
			if batch {
				a.batchActive--
			}
			a.grantLocked()
		}
		a.mu.Unlock()
		a.waiting.Add(-1)
		return errAdmissionCancelled
	}
}

// fastPathLocked reports whether a fresh arrival may take a slot without
// queueing. Interactive requires a free global slot and no interactive
// waiter ahead — batch waiters blocked on their cap never delay it.
// Batch additionally requires batch headroom and an empty batch queue.
func (a *admission) fastPathLocked(batch bool) bool {
	if a.active >= a.limit || len(a.queue) > 0 {
		return false
	}
	if batch {
		return a.batchActive < a.batchLimit && len(a.batchQueue) == 0
	}
	return true
}

// release frees an interactive-class slot (see releaseClass).
func (a *admission) release(congested bool) {
	a.releaseClass(congested, false)
}

// releaseClass frees the caller's slot and folds one completion's
// congestion sample into the limits: congested cuts (batch headroom
// first — see cutLocked), healthy grows the global limit by one toward
// the ceiling, then restores batch headroom.
func (a *admission) releaseClass(congested, batch bool) {
	a.mu.Lock()
	if congested {
		a.cutLocked()
	} else if a.limit < a.ceil {
		a.limit++
		a.increases.Add(1)
	} else if a.batchLimit < a.ceil {
		// Global capacity restored: heal the batch band last, one slot
		// per healthy completion — the inverse of the cut order.
		a.batchLimit++
		a.increases.Add(1)
	}
	a.active--
	if batch {
		a.batchActive--
	}
	a.grantLocked()
	a.mu.Unlock()
}

// returnSlot gives a slot back without sampling — the holder never
// executed (cancelled between grant and service).
func (a *admission) returnSlot(batch bool) {
	a.mu.Lock()
	a.active--
	if batch {
		a.batchActive--
	}
	a.grantLocked()
	a.mu.Unlock()
}

// cutLocked is one multiplicative decrease, rate-limited by the
// cooldown. While batch work is present (executing or queued) and its
// band is above one slot, the cut halves the batch sub-limit and leaves
// interactive capacity untouched; otherwise it halves the global limit
// toward the floor — so a purely interactive workload sees exactly the
// class-blind AIMD trajectory. Callers hold mu.
func (a *admission) cutLocked() {
	if a.cooldown > 0 {
		if now := a.now(); now.Sub(a.lastCut) < a.cooldown {
			return
		} else {
			a.lastCut = now
		}
	}
	if (a.batchActive > 0 || len(a.batchQueue) > 0) && a.batchLimit > 1 {
		next := a.batchLimit / 2
		if next < 1 {
			next = 1
		}
		a.batchLimit = next
		a.decreases.Add(1)
		return
	}
	next := a.limit / 2
	if next < a.floor {
		next = a.floor
	}
	if next < a.limit {
		a.limit = next
		a.decreases.Add(1)
	}
}

// grantLocked hands freed capacity to waiters while the limit allows:
// interactive first (oldest first), then batch heads under the batch
// cap. Callers hold mu.
func (a *admission) grantLocked() {
	for a.active < a.limit {
		if len(a.queue) > 0 {
			ch := a.queue[0]
			a.queue = a.queue[1:]
			a.active++
			close(ch)
			continue
		}
		if len(a.batchQueue) > 0 && a.batchActive < a.batchLimit {
			ch := a.batchQueue[0]
			a.batchQueue = a.batchQueue[1:]
			a.active++
			a.batchActive++
			close(ch)
			continue
		}
		return
	}
}

// admissionStats is the /stats rendering of the adaptive gate: the
// effective concurrency limit between its floor and ceiling, how many
// additive growths / multiplicative cuts moved it there, and the batch
// band's sub-limit inside it with its current occupancy — the headroom
// congestion sheds before cutting interactive capacity.
type admissionStats struct {
	Limit       int   `json:"limit"`
	Floor       int   `json:"floor"`
	Ceil        int   `json:"ceil"`
	Increases   int64 `json:"increases"`
	Decreases   int64 `json:"decreases"`
	BatchLimit  int   `json:"batch_limit"`
	BatchActive int   `json:"batch_active"`
}

// stats snapshots the controller's observable state for /stats.
func (a *admission) stats() admissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return admissionStats{
		Limit:       a.limit,
		Floor:       a.floor,
		Ceil:        a.ceil,
		Increases:   a.increases.Load(),
		Decreases:   a.decreases.Load(),
		BatchLimit:  a.batchLimit,
		BatchActive: a.batchActive,
	}
}
