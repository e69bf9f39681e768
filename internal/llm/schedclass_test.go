package llm

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// Tests for the class/weight dispatch layer: strict priority between
// the interactive and batch bands, token-denominated deficit shares
// within a band, the per-class gauges, and the class/weight fields on
// the tenant accounting. All of them run on a one-slot scheduler so
// the dispatch order is observable and deterministic: with a single
// worker, every grant happens in the completing job's run loop, one at
// a time, under the scheduler lock.

// TestSchedulerStarvationBound: the tentpole latency guarantee. A batch
// tenant saturates the only slot and queues a deep backlog; an
// interactive prompt that arrives afterwards must be granted the very
// next slot — it waits for exactly the one in-flight prompt, never for
// any queued batch work. (The live-clock twin of the simulator's
// strict-priority test; this one drives the real submit/run path and is
// meant to run under -race.)
func TestSchedulerStarvationBound(t *testing.T) {
	s := NewScheduler(nil, 1)
	release := make(chan struct{})
	var mu sync.Mutex
	var order []string
	step := make(chan struct{}, 64)
	client := &seqLLM{release: release, onCall: func(p string) {
		mu.Lock()
		order = append(order, p)
		mu.Unlock()
		step <- struct{}{}
	}}

	batch := s.TenantFor(context.Background(), "bulk", ClassBatch, 1)
	defer batch.Close()
	inter := s.Tenant(context.Background(), "human")
	defer inter.Close()

	var futs []*Future
	futs = append(futs, batch.Submit(client, "b0", 0))
	<-step // b0 holds the slot
	for i := 1; i <= 9; i++ {
		futs = append(futs, batch.Submit(client, fmt.Sprintf("b%d", i), 0))
	}
	futs = append(futs, inter.Submit(client, "i0", 0))
	close(release)
	for _, f := range futs {
		if _, _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 11 {
		t.Fatalf("dispatched %d prompts, want 11 (order %v)", len(order), order)
	}
	// The bound: i0 is dispatched immediately after the in-flight b0,
	// ahead of all nine queued batch prompts.
	if order[1] != "i0" {
		t.Fatalf("starvation bound violated: interactive prompt ran at position %v, want 1 (order %v)", order, order)
	}
}

// TestSchedulerWeightedShare: within one band, slots divide in
// proportion to tenant weight. A weight-2 tenant drains two prompts per
// rotation against a weight-1 tenant's one (equal-cost prompts).
func TestSchedulerWeightedShare(t *testing.T) {
	s := NewScheduler(nil, 1)
	release := make(chan struct{})
	var mu sync.Mutex
	var order []string
	step := make(chan struct{}, 64)
	client := &seqLLM{release: release, onCall: func(p string) {
		mu.Lock()
		order = append(order, p)
		mu.Unlock()
		step <- struct{}{}
	}}

	heavy := s.TenantFor(context.Background(), "heavy", ClassBatch, 2)
	defer heavy.Close()
	light := s.TenantFor(context.Background(), "light", ClassBatch, 1)
	defer light.Close()

	// h0 occupies the slot; then six heavy and three light one-token
	// prompts queue behind it.
	var futs []*Future
	futs = append(futs, heavy.Submit(client, "h0", 0))
	<-step
	for i := 1; i <= 6; i++ {
		futs = append(futs, heavy.Submit(client, fmt.Sprintf("h%d", i), 0))
	}
	for i := 1; i <= 3; i++ {
		futs = append(futs, light.Submit(client, fmt.Sprintf("l%d", i), 0))
	}
	close(release)
	for _, f := range futs {
		if _, _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	// Deficit rotation with quantum 1: heavy (weight 2) affords two
	// one-token prompts per visit, light (weight 1) one.
	want := []string{"h0", "h1", "h2", "l1", "h3", "h4", "l2", "h5", "h6", "l3"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("weighted drain order = %v, want %v", order, want)
	}
}

// TestSchedulerTokenProportionalShare: the deficit is denominated in
// prompt tokens, not prompt counts. At equal weight, a tenant sending
// three-token prompts gets one slot for every three a one-token tenant
// gets — token-fair, not count-fair.
func TestSchedulerTokenProportionalShare(t *testing.T) {
	s := NewScheduler(nil, 1)
	release := make(chan struct{})
	var mu sync.Mutex
	var order []string
	step := make(chan struct{}, 64)
	client := &seqLLM{release: release, onCall: func(p string) {
		mu.Lock()
		order = append(order, p)
		mu.Unlock()
		step <- struct{}{}
	}}

	wide := s.TenantFor(context.Background(), "wide", ClassBatch, 1)
	defer wide.Close()
	thin := s.TenantFor(context.Background(), "thin", ClassBatch, 1)
	defer thin.Close()

	var futs []*Future
	futs = append(futs, wide.Submit(client, "w0 x y", 0))
	<-step
	futs = append(futs, wide.Submit(client, "w1 x y", 0)) // cost 3
	futs = append(futs, wide.Submit(client, "w2 x y", 0)) // cost 3
	for i := 1; i <= 6; i++ {
		futs = append(futs, thin.Submit(client, fmt.Sprintf("t%d", i), 0)) // cost 1
	}
	close(release)
	for _, f := range futs {
		if _, _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	// Each dispatch pass grants one token of deficit to every flow it
	// crosses, so a three-token prompt fires only after several thin
	// serves: the drain interleaves two thin prompts per wide one and
	// the totals come out token-fair — six thin jobs (6 tokens) against
	// two wide jobs (6 tokens).
	want := []string{"w0 x y", "t1", "t2", "w1 x y", "t3", "t4", "w2 x y", "t5", "t6"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("token-proportional drain order = %v, want %v", order, want)
	}
}

// TestSchedulerClassGauges: the observability snapshot tracks per-class
// queued/busy prompts and the cumulative drain counters that /stats and
// the admission controller read.
func TestSchedulerClassGauges(t *testing.T) {
	s := NewScheduler(nil, 1)
	client := &gatedLLM{release: make(chan struct{}), started: make(chan struct{}, 8)}

	batch := s.TenantFor(context.Background(), "bulk", ClassBatch, 1)
	defer batch.Close()
	inter := s.Tenant(context.Background(), "human")
	defer inter.Close()

	var futs []*Future
	futs = append(futs, batch.Submit(client, "b0", 0))
	<-client.started // b0 holds the only slot
	futs = append(futs, batch.Submit(client, "b1", 0))
	futs = append(futs, inter.Submit(client, "i0", 0))

	g := s.Gauges()
	if g.Workers != 1 {
		t.Errorf("workers = %d, want 1", g.Workers)
	}
	if g.Batch.Busy != 1 || g.Batch.Queued != 1 {
		t.Errorf("batch gauges = %+v, want busy 1 queued 1", g.Batch)
	}
	if g.Interactive.Busy != 0 || g.Interactive.Queued != 1 {
		t.Errorf("interactive gauges = %+v, want busy 0 queued 1", g.Interactive)
	}
	if g.Interactive.Drained != 0 || g.Batch.Drained != 0 {
		t.Errorf("drain counters moved before any queued grant: %+v / %+v", g.Interactive, g.Batch)
	}

	close(client.release)
	for _, f := range futs {
		if _, _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// A slot is released just after its last future resolves.
	waitDrained(t, "slots", func() bool { return busySlots(s) == 0 })

	g = s.Gauges()
	if g.Batch.Busy != 0 || g.Batch.Queued != 0 || g.Interactive.Busy != 0 || g.Interactive.Queued != 0 {
		t.Errorf("gauges leaked after drain: %+v", g)
	}
	// b0 ran on the direct path (free slot, never queued); b1 and i0
	// were queued and granted — one drain in each class.
	if g.Interactive.Drained != 1 || g.Batch.Drained != 1 {
		t.Errorf("drained = interactive %d / batch %d, want 1 / 1", g.Interactive.Drained, g.Batch.Drained)
	}
}

// TestSchedulerStatsClassWeight: tenant accounting carries the dispatch
// treatment (class, weight), and the aggregate makespan bound stays
// exact — and class-blind — for mixed-class tenant sets, because the
// bound is dispatch-policy-independent by construction.
func TestSchedulerStatsClassWeight(t *testing.T) {
	client := &echoLLM{name: "m", answer: "w x y z"}
	s := NewScheduler(nil, 2)
	a := s.Tenant(context.Background(), "a")
	defer a.Close()
	b := s.TenantFor(context.Background(), "b", ClassBatch, 3)
	defer b.Close()

	var futs []*Future
	for i := 0; i < 4; i++ {
		futs = append(futs, a.Submit(client, "shared pool prompt", 0))
	}
	for i := 0; i < 2; i++ {
		futs = append(futs, b.Submit(client, "shared pool prompt", 0))
	}
	for _, f := range futs {
		if _, _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	as, bs := a.Stats(), b.Stats()
	if as.Class != "interactive" || as.Weight != 1 {
		t.Errorf("default tenant stats = class %q weight %d, want interactive/1", as.Class, as.Weight)
	}
	if bs.Class != "batch" || bs.Weight != 3 {
		t.Errorf("batch tenant stats = class %q weight %d, want batch/3", bs.Class, bs.Weight)
	}

	// Exactness: same numbers the single-class accounting test proves,
	// unchanged by the class/weight split — 6 equal prompts over 2
	// workers, area-bound.
	one := latOf("shared pool prompt", "w x y z")
	if got := bs.Makespan(); got != one {
		t.Errorf("batch tenant solo makespan = %v, want %v", got, one)
	}
	if got := AggregateMakespan([]*TenantStats{as, bs}); got != 6*one/2 {
		t.Errorf("mixed-class aggregate makespan = %v, want %v", got, 6*one/2)
	}
}

// TestParseClass: the HTTP layer's class parser.
func TestParseClass(t *testing.T) {
	for in, want := range map[string]AdmissionClass{"": ClassInteractive, "interactive": ClassInteractive, "batch": ClassBatch} {
		got, err := ParseClass(in)
		if err != nil || got != want {
			t.Errorf("ParseClass(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseClass("bulk"); err == nil {
		t.Error("ParseClass(\"bulk\") accepted, want error")
	}
}
