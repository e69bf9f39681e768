package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// Unit tests for the AIMD admission controller, driven synchronously:
// a negative cooldown disables the cut rate limit so every congestion
// sample moves the limit deterministically.

// TestAdmissionAIMDLimitMoves: congested completions halve the limit
// toward the floor, healthy completions grow it by one toward the
// ceiling, and both legs are counted.
func TestAdmissionAIMDLimitMoves(t *testing.T) {
	var waiting atomic.Int64
	a := newAdmission(8, 2, 4, -1, &waiting)

	for i := 0; i < 8; i++ {
		if err := a.acquire(nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := a.stats(); st.Limit != 8 || st.Floor != 2 || st.Ceil != 8 {
		t.Fatalf("fresh controller = limit %d floor %d ceil %d, want 8/2/8", st.Limit, st.Floor, st.Ceil)
	}

	// Multiplicative decrease: 8 -> 4 -> 2, then clamped at the floor.
	a.release(true)
	a.release(true)
	a.release(true)
	st := a.stats()
	if st.Limit != 2 || st.Decreases != 2 {
		t.Fatalf("after three congested releases: limit %d decreases %d, want 2/2 (floor clamps the third)", st.Limit, st.Decreases)
	}

	// Additive increase: one per healthy completion, capped at the ceiling.
	for i := 0; i < 10; i++ {
		a.release(false)
	}
	st = a.stats()
	if st.Limit != 8 {
		t.Fatalf("after recovery: limit %d, want ceiling 8", st.Limit)
	}
	if st.Increases != 6 {
		t.Fatalf("increases = %d, want 6 (2 -> 8, capped thereafter)", st.Increases)
	}
	if waiting.Load() != 0 {
		t.Fatalf("waiting gauge = %d, want 0 (nothing ever queued)", waiting.Load())
	}
}

// TestAdmissionFullQueueCutsBeforeShedding: a request that finds the
// wait queue at its bound while the limit is above the floor is NOT
// shed — it cuts the limit and queues anyway. Only at the floor does
// the bound become a hard shed.
func TestAdmissionFullQueueCutsBeforeShedding(t *testing.T) {
	var waiting atomic.Int64
	a := newAdmission(4, 1, 1, -1, &waiting)

	for i := 0; i < 4; i++ {
		if err := a.acquire(nil); err != nil {
			t.Fatal(err)
		}
	}

	// Three waiters arrive one at a time. #1 fills the queue; #2 finds
	// it full above the floor (cut 4 -> 2, queued anyway); #3 the same
	// (cut 2 -> 1 = floor, queued anyway).
	acquired := make(chan error, 3)
	for i := 0; i < 3; i++ {
		want := int64(i + 1)
		go func() { acquired <- a.acquire(nil) }()
		waitFor(t, func() bool { return waiting.Load() == want })
	}
	if st := a.stats(); st.Limit != 1 || st.Decreases != 2 {
		t.Fatalf("after queue-full arrivals: limit %d decreases %d, want 1/2", st.Limit, st.Decreases)
	}

	// Floor AND full queue: the next arrival is shed, synchronously.
	if err := a.acquire(nil); !errors.Is(err, errAdmissionShed) {
		t.Fatalf("acquire at floor with full queue = %v, want errAdmissionShed", err)
	}

	// Drain the four initial holders. Healthy releases grow the limit
	// (1 -> 2 -> 3 -> 4) and active falls, so freed capacity reaches the
	// FIFO queue: all three waiters are granted slots.
	for i := 0; i < 4; i++ {
		a.release(false)
	}
	for i := 0; i < 3; i++ {
		if err := <-acquired; err != nil {
			t.Fatal(err)
		}
	}
	// Release the waiters' slots too, so the gate ends idle.
	for i := 0; i < 3; i++ {
		a.release(false)
	}
	if waiting.Load() != 0 {
		t.Fatalf("waiting gauge leaked: %d", waiting.Load())
	}
}

// TestAdmissionCancelledOnArrival: on an idle gate, a request whose
// context is already done takes no slot, so it is never served.
func TestAdmissionCancelledOnArrival(t *testing.T) {
	var waiting atomic.Int64
	a := newAdmission(1, 1, 4, -1, &waiting)
	done := make(chan struct{})
	close(done)
	for _, batch := range []bool{false, true} {
		if err := a.acquireClass(done, batch); !errors.Is(err, errAdmissionCancelled) {
			t.Fatalf("batch=%t: a request cancelled on arrival got %v, want errAdmissionCancelled", batch, err)
		}
	}
	if a.active != 0 || waiting.Load() != 0 {
		t.Fatalf("active %d, waiting %d after cancelled arrivals, want 0 and 0", a.active, waiting.Load())
	}
	if err := a.acquire(nil); err != nil {
		t.Fatalf("a live request after the cancelled ones: %v", err)
	}
}

// TestAdmissionCancelWhileQueued: a waiter whose request dies while
// queued withdraws cleanly — the gauge returns to zero, the slot is
// never consumed, and later arrivals are unaffected.
func TestAdmissionCancelWhileQueued(t *testing.T) {
	var waiting atomic.Int64
	a := newAdmission(1, 1, 4, -1, &waiting)
	if err := a.acquire(nil); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	errc := make(chan error, 1)
	go func() { errc <- a.acquire(done) }()
	waitFor(t, func() bool { return waiting.Load() == 1 })
	close(done)
	if err := <-errc; !errors.Is(err, errAdmissionCancelled) {
		t.Fatalf("cancelled waiter got %v, want errAdmissionCancelled", err)
	}
	if waiting.Load() != 0 {
		t.Fatalf("waiting gauge leaked after cancel: %d", waiting.Load())
	}

	a.release(false)
	if err := a.acquire(nil); err != nil {
		t.Fatalf("acquire after cancelled waiter = %v, want immediate admit", err)
	}
	a.release(false)
}

// TestAdmissionFIFO: queued waiters are granted strictly in arrival
// order — a freed slot goes to the oldest waiter, and the fast path
// cannot jump the queue (it requires the queue to be empty).
func TestAdmissionFIFO(t *testing.T) {
	var waiting atomic.Int64
	a := newAdmission(1, 1, 8, -1, &waiting)
	if err := a.acquire(nil); err != nil {
		t.Fatal(err)
	}

	const waiters = 3
	order := make(chan int, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		i := i
		go func() {
			defer wg.Done()
			if err := a.acquire(nil); err != nil {
				t.Error(err)
				return
			}
			order <- i
			a.release(false)
		}()
		// Serialize arrivals so the queue order is the loop order.
		waitFor(t, func() bool { return waiting.Load() == int64(i+1) })
	}

	a.release(false) // frees the chain: each waiter's release grants the next
	wg.Wait()
	for want := 0; want < waiters; want++ {
		if got := <-order; got != want {
			t.Fatalf("grant order position %d went to waiter %d (FIFO violated)", want, got)
		}
	}
}

// TestAdmissionBatchCutFirst: congestion observed while batch-class
// queries hold slots halves the batch band's sub-limit — repeatedly,
// down to one slot — before the global interactive limit is touched;
// only once the batch band is minimal do further congested samples cut
// the global limit. Healthy completions restore the global limit first,
// then the batch band, the inverse of the cut order.
func TestAdmissionBatchCutFirst(t *testing.T) {
	var waiting atomic.Int64
	a := newAdmission(8, 2, 4, -1, &waiting)

	// Four batch queries and four interactive queries in flight.
	for i := 0; i < 4; i++ {
		if err := a.acquireClass(nil, true); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := a.acquireClass(nil, false); err != nil {
			t.Fatal(err)
		}
	}
	if st := a.stats(); st.BatchLimit != 8 || st.BatchActive != 4 {
		t.Fatalf("batch band = limit %d active %d, want 8/4", st.BatchLimit, st.BatchActive)
	}

	// Congested batch completions: the batch sub-limit halves 8 -> 4 ->
	// 2 -> 1 while the global limit stays at the ceiling.
	a.releaseClass(true, true)
	a.releaseClass(true, true)
	a.releaseClass(true, true)
	st := a.stats()
	if st.Limit != 8 {
		t.Fatalf("global limit = %d, want 8 (batch headroom absorbs the cuts)", st.Limit)
	}
	if st.BatchLimit != 1 || st.Decreases != 3 {
		t.Fatalf("batch limit = %d decreases = %d, want 1/3 (8 -> 4 -> 2 -> 1)", st.BatchLimit, st.Decreases)
	}
	if st.BatchActive != 1 {
		t.Fatalf("batch active = %d, want 1", st.BatchActive)
	}

	// Batch band already minimal: the next congested sample (batch work
	// still present) cuts the global limit.
	a.releaseClass(true, true)
	st = a.stats()
	if st.Limit != 4 || st.Decreases != 4 {
		t.Fatalf("after cut at minimal batch band: limit %d decreases %d, want 4/4", st.Limit, st.Decreases)
	}
	if st.BatchActive != 0 {
		t.Fatalf("batch active = %d, want 0", st.BatchActive)
	}

	// Recovery: healthy completions grow the global limit back to the
	// ceiling first (4 -> 8), then refill the batch band (1 -> 8). The
	// four interactive queries still hold slots; their releases are the
	// first healthy samples.
	for i := 0; i < 4; i++ {
		a.releaseClass(false, false)
	}
	st = a.stats()
	if st.Limit != 8 || st.BatchLimit != 1 {
		t.Fatalf("global-first recovery: limit %d batch %d, want 8/1", st.Limit, st.BatchLimit)
	}
	for i := 0; i < 7; i++ {
		if err := a.acquireClass(nil, false); err != nil {
			t.Fatal(err)
		}
		a.releaseClass(false, false)
	}
	if bl := a.stats().BatchLimit; bl != 8 {
		t.Fatalf("batch band after recovery = %d, want 8", bl)
	}
}

// TestAdmissionInteractivePassesBlockedBatch: batch waiters blocked on
// the batch cap never delay an interactive arrival — it takes a free
// global slot directly — and a freed batch slot goes to the oldest
// batch waiter.
func TestAdmissionInteractivePassesBlockedBatch(t *testing.T) {
	var waiting atomic.Int64
	a := newAdmission(4, 1, 8, -1, &waiting)

	// Shrink the batch band to one slot: batch congestion with batch
	// work present.
	if err := a.acquireClass(nil, true); err != nil {
		t.Fatal(err)
	}
	a.releaseClass(true, true) // 4 -> 2
	if err := a.acquireClass(nil, true); err != nil {
		t.Fatal(err)
	}
	a.releaseClass(true, true) // 2 -> 1
	if bl := a.stats().BatchLimit; bl != 1 {
		t.Fatalf("batch limit = %d, want 1", bl)
	}

	// One batch query holds the band; a second batch request must queue.
	if err := a.acquireClass(nil, true); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- a.acquireClass(nil, true) }()
	waitFor(t, func() bool { return waiting.Load() == 1 })

	// Interactive arrivals pass the blocked batch head: three global
	// slots remain and all are granted immediately.
	for i := 0; i < 3; i++ {
		if err := a.acquireClass(nil, false); err != nil {
			t.Fatalf("interactive acquire %d: %v", i, err)
		}
	}
	select {
	case err := <-blocked:
		t.Fatalf("batch waiter granted early: %v", err)
	default:
	}

	// Freeing the batch slot hands it to the queued batch waiter.
	a.releaseClass(false, true)
	if err := <-blocked; err != nil {
		t.Fatalf("batch waiter: %v", err)
	}
	if waiting.Load() != 0 {
		t.Fatalf("waiting gauge = %d, want 0", waiting.Load())
	}
}
