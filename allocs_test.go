// The race detector's sync.Pool drops pooled objects at random, so
// allocation counts are pinned only without it.

//go:build !race

package main

import "testing"

// TestAdhocAllocs pins BenchmarkAdhocPlan's allocations at their
// measured count: an ad-hoc statement on a warm runtime, whose every
// fact is resident, allocates per row only the rows it returns, so an
// executor or planner change that allocates more per query fails here.
func TestAdhocAllocs(t *testing.T) {
	const ceiling = 276
	_, run := adhocPlan(t)
	allocs := testing.AllocsPerRun(1000, func() { run(1) })
	if allocs > ceiling {
		t.Errorf("an ad-hoc statement allocates %.0f times, want at most %d", allocs, ceiling)
	}
}
