package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/simllm"
	"repro/internal/world"
)

// workersSQL routes its key scan and its boolean filter to "cheap" and its
// fetches to "strong" under galois.yaml's routes.
const workersSQL = `SELECT name, mayor FROM city WHERE population > 1000000`

// workersRuntime is galois.yaml's two-backend runtime with the "cheap"
// backend's worker budget declared as workers (0 = the runtime default).
func workersRuntime(t *testing.T, w *world.World, workers int) *Runtime {
	t.Helper()
	rt, err := NewRuntimeWithBackends([]BackendDef{
		{Name: "cheap", Client: simllm.New(simllm.ChatGPT, w, 1), Workers: workers, CostWeight: 0.25, Fallback: []string{"strong"}},
		{Name: "strong", Client: simllm.New(simllm.ChatGPT, w, 1), Fallback: []string{"cheap"}},
	}, "strong", map[string]string{"keyscan": "cheap", "filter": "cheap"}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"country", "city", "mayor", "stadium", "mountain"} {
		if err := rt.BindLLMTable(w.Table(name).Def); err != nil {
			t.Fatal(err)
		}
	}
	return rt
}

// TestDeclaredWorkersBoundRuntime: a backend's declared worker budget is
// the one its endpoint runs at. The query's snapshot records it, and
// with one worker the cheap endpoint's work, issued one prompt at a time,
// is the query's simulated latency.
func TestDeclaredWorkersBoundRuntime(t *testing.T) {
	rt := workersRuntime(t, world.Build(), 1)
	_, rep, err := rt.NewSession().Query(context.Background(), workersSQL)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Sched.Workers["cheap"]; got != 1 {
		t.Errorf("cheap budget = %d, want the declared 1", got)
	}
	if got := rep.Sched.Workers["strong"]; got != rt.Options().BatchWorkers {
		t.Errorf("strong budget = %d, want the runtime default %d", got, rt.Options().BatchWorkers)
	}
	if area := rep.Sched.Work["cheap"]; area == 0 || rep.Stats.SimulatedLatency != area {
		t.Errorf("simulated latency = %v, want the 1-worker area of cheap %v", rep.Stats.SimulatedLatency, area)
	}
}

// TestPlannerPricesDeclaredWorkers: the planner spreads each backend's
// work over the budget that backend declares, as the scheduler does, so
// a one-worker cheap backend estimates a longer latency than an
// eight-worker one.
func TestPlannerPricesDeclaredWorkers(t *testing.T) {
	w := world.Build()
	estimate := func(workers int) *Report {
		t.Helper()
		_, rep, err := workersRuntime(t, w, workers).NewSession().Query(context.Background(), workersSQL)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	one, eight := estimate(1), estimate(8)
	if one.Estimate.Latency <= eight.Estimate.Latency {
		t.Errorf("estimated latency at 1 worker %v, at 8 workers %v: want the first longer",
			one.Estimate.Latency, eight.Estimate.Latency)
	}
	if one.Stats.Prompts != eight.Stats.Prompts {
		t.Errorf("prompts = %d at 1 worker, %d at 8: the budget must not change the plan's prompts", one.Stats.Prompts, eight.Stats.Prompts)
	}
}

// TestStopAndGoWavesHonourDeclaredWorkers: a stop-and-go wave on a
// backend runs no more prompts at once than that backend declares, in
// the executed latency and in the planner's estimate, so a one-worker
// cheap backend is slower than an eight-worker one under either policy
// (both read 12.0015 s while waves ignored the budget). The streaming
// latencies and the prompts stay as they were.
func TestStopAndGoWavesHonourDeclaredWorkers(t *testing.T) {
	w := world.Build()
	for _, c := range []struct {
		workers   int
		pipelined bool
		latency   time.Duration
	}{
		{1, false, 33414500 * time.Microsecond},
		{8, false, 12001500 * time.Microsecond},
		{1, true, 29494500 * time.Microsecond},
		{8, true, 5561500 * time.Microsecond},
	} {
		s := workersRuntime(t, w, c.workers).NewSession()
		opts := s.Options()
		opts.Pipelined = c.pipelined
		s.SetOptions(opts)
		_, rep, err := s.Query(context.Background(), workersSQL)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.SimulatedLatency != c.latency || rep.Stats.Prompts != 52 {
			t.Errorf("workers %d, pipelined %v: latency %v over %d prompts, want %v over 52",
				c.workers, c.pipelined, rep.Stats.SimulatedLatency, rep.Stats.Prompts, c.latency)
		}
		// The planner prices a wave at the same width as the scheduler.
		want := 7315 * time.Millisecond
		if c.workers == 1 {
			want = 19530 * time.Millisecond
		}
		if rep.Estimate.Latency != want {
			t.Errorf("workers %d, pipelined %v: estimated %v, want %v", c.workers, c.pipelined, rep.Estimate.Latency, want)
		}
	}
}
