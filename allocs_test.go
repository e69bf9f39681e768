// The race detector's sync.Pool drops pooled objects at random, so
// allocation counts are pinned only without it.

//go:build !race

package main

import "testing"

// TestAdhocAllocs pins BenchmarkAdhocPlan's allocations at their
// measured count: an ad-hoc statement on a warm runtime, whose every
// fact is resident and whose shape was planned before, is bound rather
// than parsed and planned, and allocates per row only the rows it
// returns, so a front-end, planner or executor change that allocates
// more per query fails here. The statements are generated before the
// measured runs. A shape is memoized on its second sight, so the few
// shapes the warm-up saw only once are parsed once more in them.
func TestAdhocAllocs(t *testing.T) {
	const ceiling = 139
	_, next, run := adhocPlan(t)
	sqls := next(1001)
	allocs := testing.AllocsPerRun(1000, func() {
		run(sqls[:1])
		sqls = sqls[1:]
	})
	if allocs > ceiling {
		t.Errorf("an ad-hoc statement allocates %.0f times, want at most %d", allocs, ceiling)
	}
}

// TestRepeatedQueryCachedAllocs pins BenchmarkRepeatedQueryCached's
// allocations: one statement repeated verbatim on a warm runtime without
// a result cache, every prompt resident, so each repeat is bound from
// the shape memo and replanned from the plan cache.
func TestRepeatedQueryCachedAllocs(t *testing.T) {
	const ceiling = 99
	query := repeatedQuery(t)
	allocs := testing.AllocsPerRun(1000, func() { query() })
	if allocs > ceiling {
		t.Errorf("a repeated statement allocates %.0f times, want at most %d", allocs, ceiling)
	}
}
