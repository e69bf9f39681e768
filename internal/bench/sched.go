package bench

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/llm"
	"repro/internal/simllm"
)

// The sched benchmark measures what the deficit-weighted scheduler buys
// over the legacy per-prompt round-robin, in two complementary halves:
//
//   - A simulated half: a deterministic discrete-event run of one mixed
//     workload — batch tenants saturating the worker pool while short
//     interactive chains arrive on top — under both dispatch policies
//     (llm.Simulate drives the live band code for the deficit arm).
//     Dispatch order under contention is scheduling policy, so this is
//     where interactive tail latency actually differs; the virtual clock
//     makes the difference a pure function of the workload, diffable in
//     CI.
//
//   - A live half: the corpus executed solo (one query at a time)
//     versus K-way concurrent with alternating admission classes on one
//     shared runtime. Class and weight must be pure scheduling hints:
//     relations bit-identical, per-query prompt counts unchanged, and
//     the aggregate simulated makespan no worse than the solo sum.

// Simulated-workload shape. The batch tenants arrive first and carry
// enough independent prompts to keep every slot busy past the last
// interactive arrival, so each interactive chain lands on a saturated
// pool — the regime the two policies disagree in.
const (
	// DefaultSimInteractive is how many interactive chain tenants arrive.
	DefaultSimInteractive = 16
	// DefaultSimBatch is how many batch tenants saturate the pool. A
	// round-robin rotation visits every ready flow once, so a wide batch
	// fleet is exactly what stretches an interactive chain's per-step
	// wait under the baseline — the fan-in a shared serving deployment
	// actually sees, not an adversarial corner.
	DefaultSimBatch = 24
	// simBatchPrompts is each batch tenant's independent prompt count.
	simBatchPrompts = 24
	// simChainPrompts is each interactive tenant's dependent chain length.
	simChainPrompts = 4
	// simStagger spaces interactive arrivals so roughly half the pool's
	// worth of chains is in flight at once: contention without the
	// interactive band itself becoming the bottleneck (the starvation
	// bound is per-band).
	simStagger = 500 * time.Millisecond
)

// SchedWorkload builds the benchmark's mixed-class workload — a pure
// function, so both arms and every regeneration see the same prompts.
func SchedWorkload() []llm.SimTenant {
	var ts []llm.SimTenant
	for b := 0; b < DefaultSimBatch; b++ {
		costs := make([]int, simBatchPrompts)
		for i := range costs {
			costs[i] = 32 + 8*((b+i)%4) // 32..56 tokens, deterministic spread
		}
		ts = append(ts, llm.SimTenant{
			Tag:     fmt.Sprintf("batch-%d", b),
			Class:   llm.ClassBatch,
			Weight:  1,
			Arrival: 0,
			Costs:   costs,
		})
	}
	for q := 0; q < DefaultSimInteractive; q++ {
		costs := make([]int, simChainPrompts)
		for i := range costs {
			costs[i] = 16 + 4*((q+i)%3) // 16..24 tokens
		}
		ts = append(ts, llm.SimTenant{
			Tag:     fmt.Sprintf("interactive-%d", q),
			Class:   llm.ClassInteractive,
			Weight:  1,
			Arrival: llm.VTime(q) * llm.VTime(simStagger),
			Costs:   costs,
			Chain:   true,
		})
	}
	return ts
}

// schedWorkloadBound is the workload's starvation bound: the service
// time of its costliest prompt — the longest any in-flight prompt can
// hold a slot, and therefore the longest an interactive arrival may
// wait for its first dispatch under strict priority.
func schedWorkloadBound(ts []llm.SimTenant) llm.VTime {
	var maxCost int
	for _, t := range ts {
		for _, c := range t.Costs {
			if c > maxCost {
				maxCost = c
			}
		}
	}
	return llm.SimService(maxCost)
}

// SchedSimArm summarizes one policy's simulated outcome.
type SchedSimArm struct {
	Policy string `json:"policy"`
	// Interactive latency percentiles: arrival to last prompt done.
	InteractiveP50MS float64 `json:"interactive_p50_ms"`
	InteractiveP99MS float64 `json:"interactive_p99_ms"`
	// MaxFirstWaitMS is the worst interactive wait for a first dispatch:
	// first completion minus arrival minus the first prompt's own
	// service time. Under strict priority it must stay within the
	// starvation bound.
	MaxFirstWaitMS float64 `json:"max_first_wait_ms"`
	// BatchP99MS is the batch tenants' completion-latency p99 — what
	// strict priority costs the background work.
	BatchP99MS float64 `json:"batch_p99_ms"`
	MakespanMS float64 `json:"makespan_ms"`
}

// SchedLiveArm aggregates one live execution mode over the corpus.
type SchedLiveArm struct {
	Config              string  `json:"config"` // "solo" or "mixed-kN"
	Queries             int     `json:"queries"`
	TotalPrompts        int     `json:"total_prompts"`
	AggregateMakespanMS float64 `json:"aggregate_makespan_ms"`
}

// SchedReport is the machine-readable scheduling record
// (BENCH_sched.json).
type SchedReport struct {
	Model   string `json:"model"`
	Workers int    `json:"workers_per_endpoint"`
	K       int    `json:"concurrency"`

	// Simulated mixed-class contention, both policies over one workload.
	SimInteractive int         `json:"sim_interactive_tenants"`
	SimBatch       int         `json:"sim_batch_tenants"`
	RoundRobin     SchedSimArm `json:"sim_round_robin"`
	Deficit        SchedSimArm `json:"sim_deficit_weighted"`
	// P99ImprovementX is round-robin interactive p99 over
	// deficit-weighted interactive p99 — the headline win.
	P99ImprovementX float64 `json:"interactive_p99_improvement_x"`
	// StarvationBoundMS is the workload's one-prompt service-time bound
	// the deficit arm's MaxFirstWaitMS is gated against.
	StarvationBoundMS float64 `json:"starvation_bound_ms"`

	// Live corpus, solo versus mixed-class concurrent.
	Solo  SchedLiveArm `json:"solo"`
	Mixed SchedLiveArm `json:"mixed"`
	// ResultsIdentical reports whether every query's relation was
	// bit-identical between the solo and mixed-class runs.
	ResultsIdentical bool `json:"results_identical"`
	// PromptsIdentical reports whether every query issued exactly the
	// same number of prompts in both runs.
	PromptsIdentical bool `json:"prompts_identical"`
}

// simArm runs one policy over the workload and reduces it to the arm
// summary.
func simArm(workers int, policy llm.SimPolicy, ts []llm.SimTenant) SchedSimArm {
	res := llm.Simulate(workers, policy, ts)
	var inter, batch []llm.VTime
	var maxWait llm.VTime
	for i, tr := range res.Tenants {
		if ts[i].Class == llm.ClassBatch {
			batch = append(batch, tr.Latency)
			continue
		}
		inter = append(inter, tr.Latency)
		if wait := tr.FirstLatency - llm.SimService(ts[i].Costs[0]); wait > maxWait {
			maxWait = wait
		}
	}
	ms := func(v llm.VTime) float64 { return float64(v) / float64(time.Millisecond) }
	return SchedSimArm{
		Policy:           res.Policy,
		InteractiveP50MS: ms(llm.Percentile(inter, 50)),
		InteractiveP99MS: ms(llm.Percentile(inter, 99)),
		MaxFirstWaitMS:   ms(maxWait),
		BatchP99MS:       ms(llm.Percentile(batch, 99)),
		MakespanMS:       ms(res.Makespan),
	}
}

// SchedComparison runs both halves of the scheduling benchmark: the
// simulated policy A/B over the mixed workload, and the live corpus
// solo versus K-way mixed-class concurrent (queries alternating between
// the interactive and batch bands, batch at weight 2 to exercise the
// weighted deficit). Cache off and fixed plans in both live arms, so
// every reported number is a pure function of the prompt sets.
func (r *Runner) SchedComparison(ctx context.Context, p simllm.Profile) (*SchedReport, error) {
	workload := SchedWorkload()
	rep := &SchedReport{
		Model:             p.ID,
		Workers:           DefaultServeWorkers,
		K:                 DefaultConcurrency,
		SimInteractive:    DefaultSimInteractive,
		SimBatch:          DefaultSimBatch,
		RoundRobin:        simArm(DefaultServeWorkers, llm.PolicyRoundRobin, workload),
		Deficit:           simArm(DefaultServeWorkers, llm.PolicyDeficitWeighted, workload),
		StarvationBoundMS: float64(schedWorkloadBound(workload)) / float64(time.Millisecond),
	}
	if rep.Deficit.InteractiveP99MS > 0 {
		rep.P99ImprovementX = rep.RoundRobin.InteractiveP99MS / rep.Deficit.InteractiveP99MS
	}

	// Odd corpus indexes run in the batch band at weight 2.
	run, err := r.kWayCorpus(ctx, p, func(i int) (string, int) {
		if i%2 == 1 {
			return "batch", 2
		}
		return "interactive", 1
	})
	if err != nil {
		return nil, err
	}
	rep.Solo = SchedLiveArm(run.serial)
	rep.Solo.Config = "solo"
	rep.Mixed = SchedLiveArm(run.concurrent)
	rep.Mixed.Config = fmt.Sprintf("mixed-k%d", DefaultConcurrency)
	rep.ResultsIdentical = run.resultsIdentical
	rep.PromptsIdentical = run.promptsIdentical
	return rep, nil
}

// CheckAcceptance enforces the scheduling acceptance criteria: under
// simulated mixed-class contention the deficit-weighted policy must cut
// interactive p99 versus round-robin (with margin) while staying inside
// the one-prompt starvation bound and costing essentially no makespan;
// and in the live mixed-class run, classes and weights must be pure
// scheduling hints — bit-identical relations, identical prompt counts,
// aggregate makespan no worse than solo.
func (rep *SchedReport) CheckAcceptance() error {
	var errs []error
	if rep.P99ImprovementX < 1.2 {
		errs = append(errs, fmt.Errorf("interactive p99 improvement %.2fx under mixed-class contention, want >= 1.2x", rep.P99ImprovementX))
	}
	if rep.Deficit.MaxFirstWaitMS > rep.StarvationBoundMS {
		errs = append(errs, fmt.Errorf("interactive first-dispatch wait %.1fms exceeds the one-prompt starvation bound %.1fms",
			rep.Deficit.MaxFirstWaitMS, rep.StarvationBoundMS))
	}
	if rep.Deficit.MakespanMS > rep.RoundRobin.MakespanMS*1.02 {
		errs = append(errs, fmt.Errorf("strict priority cost throughput: deficit makespan %.0fms vs round-robin %.0fms (>2%% regression)",
			rep.Deficit.MakespanMS, rep.RoundRobin.MakespanMS))
	}
	if !rep.ResultsIdentical {
		errs = append(errs, errors.New("mixed-class execution changed a result relation"))
	}
	if !rep.PromptsIdentical {
		errs = append(errs, errors.New("mixed-class execution changed a per-query prompt count"))
	}
	if rep.Mixed.AggregateMakespanMS > rep.Solo.AggregateMakespanMS {
		errs = append(errs, fmt.Errorf("mixed-class aggregate makespan %.0fms worse than solo %.0fms",
			rep.Mixed.AggregateMakespanMS, rep.Solo.AggregateMakespanMS))
	}
	return errors.Join(errs...)
}
