package core

import (
	"context"
	"testing"

	"repro/internal/difftest"
	"repro/internal/logical"
)

// residualCandidatesPass returns one subsumption planning pass per call:
// the residual candidates of the next child of difftest.New(1..4)'s
// first 25 pairs each, on a serving runtime whose result cache holds
// every pair's parent. A call probes the conjunct index, checks each
// candidate's residual, and builds and compiles its residual plan.
func residualCandidatesPass(tb testing.TB) (pass func(), children int) {
	rt, _ := serveRuntime(tb, ServeOptions())
	s := rt.NewSession()
	type child struct {
		canon logical.Canonical
		stamp string
	}
	var cs []child
	extras := 0
	for seed := int64(1); seed <= 4; seed++ {
		gen := difftest.New(seed)
		for i := 0; i < 25; i++ {
			p := gen.Pair()
			if _, _, err := s.Query(context.Background(), p.Parent); err != nil {
				tb.Fatalf("%s: %v", p.Parent, err)
			}
			q, _, _, _ := prepared(tb, s, p.Child)
			if q == nil {
				tb.Fatalf("%s: does not prepare", p.Child)
			}
			c := child{q.canon, rt.stampFor(q.canon.Components)}
			extras += len(s.residualCandidates(c.canon, c.stamp))
			cs = append(cs, c)
		}
	}
	if extras == 0 {
		tb.Fatal("no child found a residual candidate")
	}
	i := 0
	return func() {
		c := cs[i%len(cs)]
		i++
		s.residualCandidates(c.canon, c.stamp)
	}, len(cs)
}

// BenchmarkResidualCandidates is residualCandidatesPass's planning pass,
// one child per iteration.
func BenchmarkResidualCandidates(b *testing.B) {
	pass, _ := residualCandidatesPass(b)
	b.ReportAllocs()
	for b.Loop() {
		pass()
	}
}
