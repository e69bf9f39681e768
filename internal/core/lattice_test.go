package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/simllm"
	"repro/internal/world"
)

// TestLatencyLattice pins the planner's estimate and the executed
// simulated latency of workersSQL over the lattice of what the width
// an endpoint runs at depends on: the worker budget declared on "cheap"
// (none, 1 or 8), the execution policy (streaming, or stop-and-go waves
// of the session's BatchWorkers) and the routing (every role on
// "cheap"; galois.yaml's routes; those plus a verify route to "strong",
// which the fetches' own completions answer, or to "cheap"). The
// streaming rows set BatchWorkers 3 too, which only a stop-and-go
// session reads.
func TestLatencyLattice(t *testing.T) {
	const ms, us = time.Millisecond, time.Microsecond
	routes := map[string]map[string]string{
		"unrouted":     nil,
		"routed":       {"keyscan": "cheap", "filter": "cheap"},
		"verify":       {"keyscan": "cheap", "filter": "cheap", "verify": "strong"},
		"verify-cheap": {"keyscan": "cheap", "filter": "cheap", "verify": "cheap"},
	}
	w := world.Build()
	for _, c := range []struct {
		route         string
		workers       int
		pipelined     bool
		wave          int
		estimate      time.Duration
		prompts, cost float64
		latency       time.Duration
		executed      int
	}{
		{"unrouted", 0, true, 3, 7315 * ms, 37.8, 9.45, 6450937500, 52},
		{"unrouted", 0, false, 8, 7315 * ms, 37.8, 9.45, 12001500 * us, 52},
		{"unrouted", 0, false, 3, 8904 * ms, 37.8, 9.45, 22799 * ms, 52},
		{"unrouted", 1, true, 3, 26712 * ms, 37.8, 9.45, 51607500 * us, 52},
		{"unrouted", 1, false, 8, 26712 * ms, 37.8, 9.45, 56756 * ms, 52},
		{"unrouted", 1, false, 3, 26712 * ms, 37.8, 9.45, 56756 * ms, 52},
		{"unrouted", 8, true, 3, 7315 * ms, 37.8, 9.45, 6450937500, 52},
		{"unrouted", 8, false, 8, 7315 * ms, 37.8, 9.45, 12001500 * us, 52},
		{"unrouted", 8, false, 3, 8904 * ms, 37.8, 9.45, 22799 * ms, 52},
		{"routed", 0, true, 3, 7315 * ms, 37.8, 17.55, 5561500 * us, 52},
		{"routed", 0, false, 8, 7315 * ms, 37.8, 17.55, 12001500 * us, 52},
		{"routed", 0, false, 3, 7315 * ms, 37.8, 17.55, 22799 * ms, 52},
		{"routed", 1, true, 3, 19530 * ms, 37.8, 17.55, 29494500 * us, 52},
		{"routed", 1, false, 8, 19530 * ms, 37.8, 17.55, 33414500 * us, 52},
		{"routed", 1, false, 3, 19530 * ms, 37.8, 17.55, 39557 * ms, 52},
		{"routed", 8, true, 3, 7315 * ms, 37.8, 17.55, 5561500 * us, 52},
		{"routed", 8, false, 8, 7315 * ms, 37.8, 17.55, 12001500 * us, 52},
		{"routed", 8, false, 3, 7315 * ms, 37.8, 17.55, 22799 * ms, 52},
		{"verify", 0, true, 3, 7315 * ms, 37.8, 17.55, 5561500 * us, 52},
		{"verify", 0, false, 8, 7315 * ms, 37.8, 17.55, 12001500 * us, 52},
		{"verify", 0, false, 3, 7315 * ms, 37.8, 17.55, 22799 * ms, 52},
		{"verify", 1, true, 3, 19530 * ms, 37.8, 17.55, 29494500 * us, 52},
		{"verify", 1, false, 8, 19530 * ms, 37.8, 17.55, 33414500 * us, 52},
		{"verify", 1, false, 3, 19530 * ms, 37.8, 17.55, 39557 * ms, 52},
		{"verify", 8, true, 3, 7315 * ms, 37.8, 17.55, 5561500 * us, 52},
		{"verify", 8, false, 8, 7315 * ms, 37.8, 17.55, 12001500 * us, 52},
		{"verify", 8, false, 3, 7315 * ms, 37.8, 17.55, 22799 * ms, 52},
		{"verify-cheap", 0, true, 3, 7315 * ms, 48.6, 20.25, 6450937500, 74},
		{"verify-cheap", 0, false, 8, 7315 * ms, 48.6, 20.25, 15687 * ms, 74},
		{"verify-cheap", 0, false, 3, 8904 * ms, 48.6, 20.25, 32627 * ms, 74},
		{"verify-cheap", 1, true, 3, 26712 * ms, 48.6, 20.25, 51607500 * us, 74},
		{"verify-cheap", 1, false, 8, 26712 * ms, 48.6, 20.25, 60441500 * us, 74},
		{"verify-cheap", 1, false, 3, 26712 * ms, 48.6, 20.25, 66584 * ms, 74},
		{"verify-cheap", 8, true, 3, 7315 * ms, 48.6, 20.25, 6450937500, 74},
		{"verify-cheap", 8, false, 8, 7315 * ms, 48.6, 20.25, 15687 * ms, 74},
		{"verify-cheap", 8, false, 3, 8904 * ms, 48.6, 20.25, 32627 * ms, 74},
	} {
		def := "strong"
		if c.route == "unrouted" {
			def = "cheap"
		}
		rt, err := NewRuntimeWithBackends([]BackendDef{
			{Name: "cheap", Client: simllm.New(simllm.ChatGPT, w, 1), Workers: c.workers, CostWeight: 0.25, Fallback: []string{"strong"}},
			{Name: "strong", Client: simllm.New(simllm.ChatGPT, w, 1), Fallback: []string{"cheap"}},
		}, def, routes[c.route], DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"country", "city", "mayor", "stadium", "mountain"} {
			if err := rt.BindLLMTable(w.Table(name).Def); err != nil {
				t.Fatal(err)
			}
		}
		s := rt.NewSession()
		opts := s.Options()
		opts.Pipelined, opts.BatchWorkers = c.pipelined, c.wave
		s.SetOptions(opts)
		_, rep, err := s.Query(context.Background(), workersSQL)
		if err != nil {
			t.Fatal(err)
		}
		est := rep.Estimate
		if est.Latency != c.estimate || est.Prompts != c.prompts || est.Cost != c.cost {
			t.Errorf("%s, workers %d, pipelined %v, wave %d: estimated latency %v, prompts %v, cost %v; want %v, %v, %v",
				c.route, c.workers, c.pipelined, c.wave, est.Latency, est.Prompts, est.Cost, c.estimate, c.prompts, c.cost)
		}
		if got := rep.Stats; got.SimulatedLatency != c.latency || got.Prompts != c.executed {
			t.Errorf("%s, workers %d, pipelined %v, wave %d: executed %v over %d prompts, want %v over %d",
				c.route, c.workers, c.pipelined, c.wave, got.SimulatedLatency, got.Prompts, c.latency, c.executed)
		}
	}
}
