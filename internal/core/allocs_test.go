// The race detector's sync.Pool drops pooled objects at random, so
// allocation counts are pinned only without it.

//go:build !race

package core

import "testing"

// TestResidualCandidatesAllocs pins BenchmarkResidualCandidates's
// allocations at their measured count: a change to the subsumption
// planning path (probe, residual, local-safety check, residual plan)
// that allocates more per consumer fails here.
func TestResidualCandidatesAllocs(t *testing.T) {
	const ceiling = 41
	pass, children := residualCandidatesPass(t)
	if allocs := testing.AllocsPerRun(4*children, pass); allocs > ceiling {
		t.Errorf("residualCandidates allocates %.0f times per consumer, want at most %d", allocs, ceiling)
	}
}
