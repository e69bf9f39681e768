package bench

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/simllm"
)

// TestSmoke runs one query end to end through the ground-truth engine and
// through Galois on every simulated model. It is the canary for the whole
// pipeline.
func TestSmoke(t *testing.T) {
	r, err := NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	truth, err := r.GroundTruth(ctx, `SELECT name FROM city WHERE population > 5000000`)
	if err != nil {
		t.Fatal(err)
	}
	if truth.Cardinality() == 0 {
		t.Fatal("ground truth returned no rows")
	}
	t.Logf("ground truth: %d cities", truth.Cardinality())

	for _, p := range simllm.AllProfiles() {
		rt, err := r.Runtime(r.Model(p), core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		got, rep, err := rt.NewSession().Query(ctx, `SELECT name FROM city WHERE population > 5000000`)
		if err != nil {
			t.Fatalf("%s: %v", p.ID, err)
		}
		t.Logf("%s: %d rows, %s", p.ID, got.Cardinality(), rep.Stats.String())
	}
}
