// Package gopool runs short tasks on warm goroutines. A goroutine that
// finishes a task parks for the next one instead of exiting, so a task
// that would otherwise start a goroutine, and regrow its stack on the
// way, runs on one whose stack is already grown. The pool is process-wide:
// the prompt scheduler's slot loops and the executor's pipe producers
// share it.
//
// Reuse is LIFO, so the most recently parked goroutine, the one whose
// stack is most likely still warm, goes first. At most maxIdle goroutines
// park at once, and a parked goroutine exits after linger without a task,
// so an idle process returns to the goroutines it had before.
package gopool

import (
	"sync"
	"sync/atomic"
	"time"
)

// Task is one unit of work for a pooled goroutine. Handing the pool a
// pointer that implements Task allocates nothing; a closure would.
type Task interface{ Run() }

const (
	// maxIdle caps the parked goroutines. A goroutine that finishes its
	// task while maxIdle others are parked exits instead.
	maxIdle = 32
	// linger is how long a parked goroutine waits for a task before it
	// exits.
	linger = 100 * time.Millisecond
)

// worker is one pooled goroutine's mailbox and the time it parked. The
// buffer of one means a handoff never blocks: a worker off the stack
// receives exactly one send, a task from Go or nil from reap.
type worker struct {
	tasks chan Task
	since time.Time
}

var pool struct {
	mu   sync.Mutex
	idle []*worker // parked workers, oldest first
	// reaper runs reap at the oldest parked worker's deadline; armed
	// while it is pending.
	reaper  *time.Timer
	armed   bool
	started atomic.Int64
}

// Go runs t on the most recently parked goroutine, or on a new one when
// none is parked. It does not wait for t.
func Go(t Task) {
	pool.mu.Lock()
	if n := len(pool.idle); n > 0 {
		w := pool.idle[n-1]
		pool.idle[n-1] = nil
		pool.idle = pool.idle[:n-1]
		pool.mu.Unlock()
		w.tasks <- t
		return
	}
	pool.mu.Unlock()
	pool.started.Add(1)
	go work(t)
}

// Idle reports the goroutines parked now.
func Idle() int {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return len(pool.idle)
}

// Started reports how many goroutines the pool has started since the
// process began.
func Started() int64 { return pool.started.Load() }

// work is one pooled goroutine: it runs t, then parks for the next task
// until reap retires it or the pool is full.
func work(t Task) {
	w := &worker{tasks: make(chan Task, 1)}
	for t != nil {
		t.Run()
		pool.mu.Lock()
		if len(pool.idle) >= maxIdle {
			pool.mu.Unlock()
			return
		}
		w.since = time.Now()
		pool.idle = append(pool.idle, w)
		if !pool.armed {
			pool.armed = true
			if pool.reaper == nil {
				pool.reaper = time.AfterFunc(linger, reap)
			} else {
				pool.reaper.Reset(linger)
			}
		}
		pool.mu.Unlock()
		t = <-w.tasks
	}
}

// reap retires the workers parked for linger or longer, the oldest ones
// since reuse is LIFO, and re-arms itself for the next one's deadline.
func reap() {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	now := time.Now()
	n := 0
	for ; n < len(pool.idle) && now.Sub(pool.idle[n].since) >= linger; n++ {
		pool.idle[n].tasks <- nil
	}
	kept := copy(pool.idle, pool.idle[n:])
	clear(pool.idle[kept:])
	pool.idle = pool.idle[:kept]
	if pool.armed = kept > 0; pool.armed {
		pool.reaper.Reset(pool.idle[0].since.Add(linger).Sub(now))
	}
}
