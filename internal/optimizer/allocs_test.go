// The race detector's sync.Pool drops pooled objects at random, so
// allocation counts are pinned only without it.

//go:build !race

package optimizer

import "testing"

// TestChooseAllocs pins BenchmarkChoose's allocations at their measured
// count: a planner change that allocates more per candidate fails here.
func TestChooseAllocs(t *testing.T) {
	const ceiling = 500
	if allocs := testing.AllocsPerRun(20, chooseJoin(t)); allocs > ceiling {
		t.Errorf("Choose allocates %.0f times per enumeration, want at most %d", allocs, ceiling)
	}
}

// TestTemplateOfAllocs pins BenchmarkTemplateOf's allocations at their
// measured count: a change that renders a parsed statement's plan again,
// or allocates more while rendering it, fails here.
func TestTemplateOfAllocs(t *testing.T) {
	const ceiling = 40
	if allocs := testing.AllocsPerRun(100, templateJoin(t)); allocs > ceiling {
		t.Errorf("Canonicalize and TemplateOf allocate %.0f times, want at most %d", allocs, ceiling)
	}
}
