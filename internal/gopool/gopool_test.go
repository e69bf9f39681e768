package gopool

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// gate is a task that signals when it starts and blocks until released.
type gate struct {
	started chan struct{}
	release chan struct{}
}

func newGate() *gate { return &gate{started: make(chan struct{}), release: make(chan struct{})} }

func (g *gate) Run() {
	close(g.started)
	<-g.release
}

// nop is a task that does nothing.
type nop struct{ wg *sync.WaitGroup }

func (n nop) Run() { n.wg.Done() }

// waitFor polls cond for a few seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// drained waits until no goroutine is parked, so a test counts its own.
func drained(t *testing.T) {
	t.Helper()
	waitFor(t, "the pool to drain", func() bool { return Idle() == 0 })
}

// settled waits until no goroutine is parked and the goroutine count has
// held still for a while, and returns that count. A worker reap has just
// retired leaves the idle list before it exits, so Idle() == 0 alone
// can still count it.
func settled(t *testing.T) int {
	t.Helper()
	drained(t)
	n, still := runtime.NumGoroutine(), 0
	waitFor(t, "the goroutine count to settle", func() bool {
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
		return still >= 20
	})
	return n
}

// top returns the parked worker that Go hands the next task to.
func top() *worker {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return pool.idle[len(pool.idle)-1]
}

// TestReuseIsLIFO: the most recently parked goroutine takes the next
// task, and a task handed to a parked goroutine starts none.
func TestReuseIsLIFO(t *testing.T) {
	drained(t)
	first, second := newGate(), newGate()
	Go(first)
	Go(second)
	<-first.started
	<-second.started

	close(first.release)
	waitFor(t, "the first goroutine to park", func() bool { return Idle() == 1 })
	older := top()
	close(second.release)
	waitFor(t, "the second goroutine to park", func() bool { return Idle() == 2 })
	newer := top()
	if newer == older {
		t.Fatal("two parked goroutines share a worker")
	}

	started := Started()
	next := newGate()
	Go(next)
	<-next.started
	if n := Started() - started; n != 0 {
		t.Errorf("a task handed to a parked goroutine started %d goroutines", n)
	}
	if Idle() != 1 || top() != older {
		t.Error("Go did not reuse the most recently parked goroutine")
	}
	close(next.release)
	drained(t)
}

// TestIdleCapAndRetirement: of a burst of goroutines no more than maxIdle
// park, each parked goroutine retires once the linger passes without a
// task, and the process returns to its baseline goroutine count.
func TestIdleCapAndRetirement(t *testing.T) {
	baseline := settled(t)
	started := Started()
	const burst = maxIdle + 8
	gates := make([]*gate, burst)
	for i := range gates {
		gates[i] = newGate()
		Go(gates[i])
	}
	for _, g := range gates {
		<-g.started
	}
	if n := Started() - started; n != burst {
		t.Fatalf("a burst of %d started %d goroutines, want one per task", burst, n)
	}
	released := time.Now()
	for _, g := range gates {
		close(g.release)
	}
	waitFor(t, "the burst to park", func() bool { return Idle() == maxIdle })
	waitFor(t, "the goroutines past the cap to exit", func() bool { return runtime.NumGoroutine() <= baseline+maxIdle })

	drained(t)
	if d := time.Since(released); d < linger {
		t.Errorf("parked goroutines retired after %v, before the %v linger", d, linger)
	}
	waitFor(t, "the goroutine count to return to baseline", func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestConcurrentGo hands many short tasks to the pool from several
// goroutines at once (meaningful under -race): every task runs once, and
// the pool drains afterwards.
func TestConcurrentGo(t *testing.T) {
	baseline := settled(t)
	var wg sync.WaitGroup
	const senders, each = 8, 500
	wg.Add(senders * each)
	var send sync.WaitGroup
	for s := 0; s < senders; s++ {
		send.Add(1)
		go func() {
			defer send.Done()
			for i := 0; i < each; i++ {
				Go(nop{&wg})
			}
		}()
	}
	send.Wait()
	wg.Wait()
	if n := Idle(); n > maxIdle {
		t.Errorf("%d parked goroutines, cap %d", n, maxIdle)
	}
	drained(t)
	waitFor(t, "the goroutine count to return to baseline", func() bool { return runtime.NumGoroutine() <= baseline })
}

// signal is a task that reports it ran; a channel converts to a Task
// without allocating.
type signal chan struct{}

func (s signal) Run() { s <- struct{}{} }

// TestHandoffAllocatesNothing: handing a pointer-shaped task to a parked
// goroutine allocates nothing, neither in Go nor in the woken goroutine.
func TestHandoffAllocatesNothing(t *testing.T) {
	ran := make(signal)
	if allocs := testing.AllocsPerRun(100, func() {
		Go(ran)
		<-ran
	}); allocs != 0 {
		t.Errorf("a warm handoff costs %.1f allocs, want 0", allocs)
	}
}

// BenchmarkGo is one task handed to a parked goroutine and waited for:
// the pool's cost where a go statement would start a goroutine.
func BenchmarkGo(b *testing.B) {
	ran := make(signal)
	b.ReportAllocs()
	for b.Loop() {
		Go(ran)
		<-ran
	}
}
