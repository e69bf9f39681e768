package bench

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/faultllm"
	"repro/internal/llm"
	"repro/internal/simllm"
	"repro/internal/spider"
)

// Routing differential constants. Both backends of the routed arms wrap
// the SAME simulated model profile and seed, differing only in their
// declared cost weight — so the routed corpus is bit-identical to the
// single-backend corpus by construction, and the only thing routing can
// change is which endpoint's meter a prompt lands on.
const (
	// RoutingCheapCost is the cheap backend's optimizer price per prompt
	// relative to the strong backend's 1.0.
	RoutingCheapCost = 0.25
	// RoutingBreakerThreshold is the failover arm's breaker setting on
	// the cheap backend: small enough that the mid-corpus outage trips
	// it within one query.
	RoutingBreakerThreshold = 3
)

// RoutingArm is one routing configuration run over the whole corpus.
type RoutingArm struct {
	Config  string `json:"config"`
	Queries int    `json:"queries"`
	// FailedQueries counts corpus queries that returned an error. Every
	// arm — including the one with a mid-corpus backend outage — must
	// hold this at zero.
	FailedQueries int `json:"failed_queries"`
	// Prompts is the total recorded model calls across the corpus.
	Prompts int `json:"prompts"`
	// BackendPrompts breaks the total down by answering backend.
	BackendPrompts map[string]int64 `json:"backend_prompts"`
	// WeightedCost is Σ backend prompts × declared cost weight — the
	// routing policy's objective. A single-backend arm prices every
	// prompt at 1.0, so its weighted cost equals its prompt count.
	WeightedCost float64 `json:"weighted_cost"`
	// ResultsIdentical: every relation matches the single-backend arm
	// bit for bit.
	ResultsIdentical bool `json:"results_identical"`
	// PromptsIdentical: per-query recorded prompt counts match the
	// single-backend arm exactly.
	PromptsIdentical bool `json:"prompts_identical"`
	// Failovers counts prompts that failed over to a fallback backend.
	Failovers int64 `json:"failovers"`
	// OutageAtQuery is the corpus index where the failover arm's primary
	// went down (-1 for fault-free arms).
	OutageAtQuery int `json:"outage_at_query,omitempty"`
	// BreakerOpened: the cheap backend's breaker opened during the
	// outage (failover arm only).
	BreakerOpened bool `json:"breaker_opened,omitempty"`
}

// RoutingReport is the machine-readable routing record
// (BENCH_routing.json): the corpus under a single backend, under
// cost-aware routing (cheap backend on keyscan/filter), and under
// routing with a mid-corpus outage of the routed-to backend.
type RoutingReport struct {
	Model           string     `json:"model"`
	Seed            int64      `json:"seed"`
	Queries         int        `json:"queries"`
	CheapCostWeight float64    `json:"cheap_cost_weight"`
	Single          RoutingArm `json:"single"`
	Routed          RoutingArm `json:"routed"`
	Failover        RoutingArm `json:"failover"`
}

// routingOptions pins the routing differential's engine configuration:
// the stop-and-go policy, fixed heuristic plans and both caches off,
// so the set and order of issued prompts is a pure function of the query
// text and every prompt is a distinct, attributable model call.
func routingOptions() core.Options {
	opts := PaperOptions()
	opts.Optimizer.CostBased = false
	opts.ResultCacheEnabled = false
	return opts
}

// routedRuntime builds the differential's two-backend runtime over one
// model profile and seed: "cheap" (a quarter of the price, first choice
// for key scans and filters) and "strong" (the default; fetch and verify
// stay on it), mutual fallbacks, with the benchmark schema bound.
// cheapClient substitutes the cheap backend's transport when non-nil
// (the failover arm wraps it in a seeded outage injector).
func (r *Runner) routedRuntime(p simllm.Profile, cheapClient llm.Client, opts core.Options) (*core.Runtime, error) {
	if cheapClient == nil {
		cheapClient = r.Model(p)
	}
	defs := []core.BackendDef{
		{Name: "cheap", Client: cheapClient, CostWeight: RoutingCheapCost, Fallback: []string{"strong"}},
		{Name: "strong", Client: r.Model(p), Fallback: []string{"cheap"}},
	}
	routes := map[string]string{"keyscan": "cheap", "filter": "cheap"}
	rt, err := core.NewRuntimeWithBackends(defs, "strong", routes, opts)
	if err != nil {
		return nil, err
	}
	return r.bind(rt)
}

// runRoutingArm runs the corpus once on rt, recording per-query
// outcomes and the per-backend meters afterwards. onQuery (when
// non-nil) runs before each corpus query — the failover arm's outage
// trigger.
func runRoutingArm(ctx context.Context, rt *core.Runtime, config string, onQuery func(i int)) (RoutingArm, []queryOutcome) {
	corpus := spider.Queries()
	arm := RoutingArm{Config: config, Queries: len(corpus), OutageAtQuery: -1}
	outcomes := make([]queryOutcome, len(corpus))
	for i, q := range corpus {
		if onQuery != nil {
			onQuery(i)
		}
		outcomes[i] = runQuery(ctx, rt, q.SQL, "", 0)
		if outcomes[i].err != nil {
			arm.FailedQueries++
		}
		arm.Prompts += outcomes[i].prompts
	}
	arm.BackendPrompts = map[string]int64{}
	for _, b := range rt.Registry().Backends() {
		arm.BackendPrompts[b.Name()] = b.Prompts()
		arm.WeightedCost += float64(b.Prompts()) * b.CostWeight()
	}
	arm.Failovers = rt.Failovers()
	return arm, outcomes
}

// diffRoutingArm fills an arm's differential fields against the
// single-backend baseline.
func diffRoutingArm(arm *RoutingArm, baseline, got []queryOutcome) {
	arm.ResultsIdentical = true
	arm.PromptsIdentical = true
	for i := range baseline {
		if got[i].rel != baseline[i].rel {
			arm.ResultsIdentical = false
		}
		if got[i].prompts != baseline[i].prompts {
			arm.PromptsIdentical = false
		}
	}
}

// RoutingComparison runs the routing differential: the corpus on a
// single strong backend, on a cheap/strong pair with key scans and
// filters routed to the cheap backend (relations bit-identical, total
// weighted prompt cost strictly lower), and on the same pair with the
// cheap backend suffering a total outage from the middle of the corpus
// onward — every prompt failing over to the strong backend with zero
// query failures and bit-identical relations. Deterministic end to end;
// CI diffs the committed artifact.
func (r *Runner) RoutingComparison(ctx context.Context, p simllm.Profile) (*RoutingReport, error) {
	corpus := spider.Queries()
	rep := &RoutingReport{Model: p.ID, Seed: r.Seed, Queries: len(corpus), CheapCostWeight: RoutingCheapCost}

	// Arm 1: the pre-routing engine — one backend, every prompt at
	// weight 1.0.
	single, err := r.Runtime(r.Model(p), routingOptions())
	if err != nil {
		return nil, err
	}
	singleArm, baseline := runRoutingArm(ctx, single, "single-backend", nil)
	diffRoutingArm(&singleArm, baseline, baseline)
	rep.Single = singleArm

	// Arm 2: cost-aware routing, both backends healthy.
	routed, err := r.routedRuntime(p, nil, routingOptions())
	if err != nil {
		return nil, err
	}
	routedArm, outcomes := runRoutingArm(ctx, routed, "routed-cheap-keyscan-filter", nil)
	diffRoutingArm(&routedArm, baseline, outcomes)
	rep.Routed = routedArm

	// Arm 3: the same routing with the cheap backend dying mid-corpus.
	// The injector is fault-free until the trigger flips it to a total
	// outage; the pre-wrapped resilient transport fails fast (no
	// retries, instant backoff) so the breaker trips deterministically
	// and every shed call fails over to the strong backend.
	inj := faultllm.Wrap(r.Model(p), faultllm.Profile{Seed: r.Seed})
	cheap := llm.NewResilient(inj, llm.ResilientConfig{
		Endpoint:         "cheap",
		MaxRetries:       -1,
		BreakerThreshold: RoutingBreakerThreshold,
		Sleep:            instantSleep,
	})
	failover, err := r.routedRuntime(p, cheap, routingOptions())
	if err != nil {
		return nil, err
	}
	outageAt := len(corpus) / 2
	failArm, outcomes := runRoutingArm(ctx, failover, "routed-primary-outage", func(i int) {
		if i == outageAt {
			inj.SetOutage(true)
		}
	})
	failArm.OutageAtQuery = outageAt
	failArm.BreakerOpened = cheap.Counters().BreakerOpens >= 1
	diffRoutingArm(&failArm, baseline, outcomes)
	rep.Failover = failArm
	return rep, nil
}

// CheckAcceptance enforces the routing acceptance criteria: zero failed
// queries everywhere, routed relations and prompt counts bit-identical
// to single-backend, the cheap backend actually absorbing keyscan and
// filter volume at a strictly lower total weighted cost, and the outage
// arm failing over mid-corpus (breaker open, failovers counted) with no
// result divergence.
func (rep *RoutingReport) CheckAcceptance() error {
	var errs []error
	check := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	check(rep.Single.FailedQueries == 0, "single: %d queries failed", rep.Single.FailedQueries)
	check(rep.Routed.FailedQueries == 0, "routed: %d queries failed", rep.Routed.FailedQueries)
	check(rep.Failover.FailedQueries == 0, "failover: %d queries failed despite the fallback chain", rep.Failover.FailedQueries)

	check(rep.Routed.ResultsIdentical, "routed: a relation diverged from single-backend")
	check(rep.Routed.PromptsIdentical, "routed: per-query prompt counts diverged from single-backend")
	check(rep.Routed.Failovers == 0, "routed: %d failovers with both backends healthy", rep.Routed.Failovers)
	check(rep.Routed.BackendPrompts["cheap"] > 0, "routed: cheap backend answered no prompts — routes inert")
	check(rep.Routed.BackendPrompts["strong"] > 0, "routed: strong backend answered no prompts — default route inert")
	check(rep.Routed.WeightedCost < rep.Single.WeightedCost,
		"routed: weighted cost %.2f not below single-backend %.2f", rep.Routed.WeightedCost, rep.Single.WeightedCost)
	check(rep.Single.WeightedCost == float64(rep.Single.Prompts),
		"single: weighted cost %.2f != prompt count %d (implicit backend must price at 1.0)", rep.Single.WeightedCost, rep.Single.Prompts)

	check(rep.Failover.ResultsIdentical, "failover: a relation diverged from single-backend")
	check(rep.Failover.Failovers > 0, "failover: no prompts failed over during the outage")
	check(rep.Failover.BreakerOpened, "failover: the cheap backend's breaker never opened")
	check(rep.Failover.WeightedCost > rep.Routed.WeightedCost,
		"failover: weighted cost %.2f not above healthy routed %.2f (outage traffic must land on the strong meter)",
		rep.Failover.WeightedCost, rep.Routed.WeightedCost)
	return errors.Join(errs...)
}
