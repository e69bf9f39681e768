package bench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/simllm"
)

// DefaultConcurrency is the K of the committed concurrency benchmark:
// how many corpus queries run at once against one shared runtime.
const DefaultConcurrency = 4

// DefaultServeWorkers is the per-endpoint worker budget of the
// concurrency benchmark: the connection budget a serving deployment
// provisions, shared fairly by all in-flight queries. It is larger than
// one interactive query's DefaultBatchWorkers because a server sizes its
// endpoint budget for the fleet, not for one query — and the whole point
// of the shared scheduler is that concurrent queries soak up the slots
// any single query would leave idle while it waits on its sequential
// prompt chains.
const DefaultServeWorkers = 16

// ConcurrencyArm aggregates one isolation mode over the corpus.
type ConcurrencyArm struct {
	Config  string `json:"config"` // "serial" or "concurrent-kN"
	Queries int    `json:"queries"`
	// TotalPrompts sums issued model calls across the corpus (cache off:
	// every prompt is a model call).
	TotalPrompts int `json:"total_prompts"`
	// AggregateMakespanMS is the simulated wall-clock to finish the whole
	// corpus: summed per-query makespans when serial, summed per-batch
	// aggregate makespans (max critical path vs summed per-endpoint work
	// over the shared budget) when concurrent.
	AggregateMakespanMS float64 `json:"aggregate_makespan_ms"`
}

// ConcurrencyReport is the machine-readable concurrency record
// (BENCH_concurrency.json): the corpus executed serially versus K-ways
// concurrently against one shared runtime and scheduler.
type ConcurrencyReport struct {
	Model      string         `json:"model"`
	Workers    int            `json:"workers_per_endpoint"`
	K          int            `json:"concurrency"`
	Serial     ConcurrencyArm `json:"serial"`
	Concurrent ConcurrencyArm `json:"concurrent"`
	// SpeedupX is serial aggregate makespan over concurrent aggregate
	// makespan — how much faster the corpus finishes when K queries
	// share the worker budget instead of running one at a time.
	SpeedupX float64 `json:"speedup_x"`
	// ResultsIdentical reports whether every query's relation was
	// bit-identical between the serial and concurrent runs.
	ResultsIdentical bool `json:"results_identical"`
	// PromptsIdentical reports whether every query issued exactly the
	// same number of prompts in both runs.
	PromptsIdentical bool `json:"prompts_identical"`
}

// concurrencyOptions pins the configuration of the serial-versus-K-way
// corpus runs (the concurrency and sched artifacts): pipelined on the
// shared scheduler with DefaultServeWorkers per endpoint, cache off (both
// arms pay for every prompt, and per-query accounting becomes a pure
// function of the query), fixed heuristic plans (no cost-based feedback,
// so plan choice cannot depend on the order concurrent queries observe
// statistics).
func concurrencyOptions() core.Options {
	opts := PaperOptions()
	opts.Pipelined = true
	opts.BatchWorkers = DefaultServeWorkers
	return opts
}

// kWayRun is the outcome of kWayCorpus. Its arms leave Config to the
// caller.
type kWayRun struct {
	serial, concurrent     ConcurrencyArm
	serialTotal, concTotal time.Duration
	// diff is the concurrent arm's differential against the serial one.
	diff passDiff
}

// kWayCorpus runs the corpus on two fresh, identically configured
// runtimes (concurrencyOptions): one query at a time, then
// DefaultConcurrency queries at a time with query i in the admission
// class and weight classOf(i) returns (nil keeps the default class).
//
// The serial arm's aggregate makespan sums each query's makespan — the
// larger of its critical path and its work spread over the full budget;
// a lone query cannot do better. The concurrent arm sums each batch's
// aggregate makespan — max(any query's critical path, any endpoint's
// summed work over the budget), the same list-scheduling bound lifted
// across queries (llm.AggregateMakespan). With the cache off both are
// pure functions of the prompt sets, so the result is deterministic.
func (r *Runner) kWayCorpus(ctx context.Context, p simllm.Profile, classOf func(i int) (string, int)) (*kWayRun, error) {
	corpus := corpusSQL()
	serialRT, err := r.Runtime(r.Model(p), concurrencyOptions())
	if err != nil {
		return nil, err
	}
	serial, err := cleanPass(ctx, serialRT, corpus, "serial arm")
	if err != nil {
		return nil, err
	}

	concRT, err := r.Runtime(r.Model(p), concurrencyOptions())
	if err != nil {
		return nil, err
	}
	run := &kWayRun{}
	concurrent := make([]queryOutcome, len(corpus))
	for lo := 0; lo < len(corpus); lo += DefaultConcurrency {
		hi := min(lo+DefaultConcurrency, len(corpus))
		var wg sync.WaitGroup
		for i := lo; i < hi; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				class, weight := "", 0
				if classOf != nil {
					class, weight = classOf(i)
				}
				concurrent[i] = runQuery(ctx, concRT, corpus[i], class, weight)
			}(i)
		}
		wg.Wait()
		var batch []*llm.TenantStats
		for i := lo; i < hi; i++ {
			if concurrent[i].err != nil {
				return nil, fmt.Errorf("bench: concurrent arm: %w", concurrent[i].err)
			}
			batch = append(batch, concurrent[i].sched)
		}
		run.concTotal += llm.AggregateMakespan(batch)
	}

	run.serial.TotalPrompts, run.serialTotal = totals(serial)
	run.concurrent.TotalPrompts, _ = totals(concurrent)
	run.diff = diffPasses(serial, concurrent)
	run.serial.Queries = len(corpus)
	run.concurrent.Queries = len(corpus)
	run.serial.AggregateMakespanMS = ms(run.serialTotal)
	run.concurrent.AggregateMakespanMS = ms(run.concTotal)
	return run, nil
}

// ConcurrencyComparison measures the shared-runtime concurrency model:
// the corpus executed one query at a time versus DefaultConcurrency
// queries at a time against one runtime (one scheduler, one statistics
// store), with the per-endpoint worker budget fixed at
// DefaultServeWorkers in both arms (see kWayCorpus).
func (r *Runner) ConcurrencyComparison(ctx context.Context, p simllm.Profile) (*ConcurrencyReport, error) {
	run, err := r.kWayCorpus(ctx, p, nil)
	if err != nil {
		return nil, err
	}
	rep := &ConcurrencyReport{
		Model:            p.ID,
		Workers:          DefaultServeWorkers,
		K:                DefaultConcurrency,
		Serial:           run.serial,
		Concurrent:       run.concurrent,
		ResultsIdentical: run.diff.rels,
		PromptsIdentical: run.diff.prompts,
	}
	rep.Serial.Config = "serial"
	rep.Concurrent.Config = fmt.Sprintf("concurrent-k%d", DefaultConcurrency)
	if run.concTotal > 0 {
		rep.SpeedupX = float64(run.serialTotal) / float64(run.concTotal)
	}
	return rep, nil
}

// CheckAcceptance enforces the concurrency acceptance criteria: K
// concurrent corpus queries must finish in aggregate simulated makespan
// at least 2x better than K-times-serial (i.e. strictly less than K× a
// single query's latency, with margin), with bit-identical relations,
// identical prompt counts per query, and both arms running the same
// non-empty corpus for the same total prompts.
func (rep *ConcurrencyReport) CheckAcceptance() error {
	var errs []error
	if rep.Serial.Queries != rep.Concurrent.Queries || rep.Serial.Queries == 0 {
		errs = append(errs, fmt.Errorf("arm sizes diverged: serial %d vs concurrent %d", rep.Serial.Queries, rep.Concurrent.Queries))
	}
	if rep.Serial.TotalPrompts != rep.Concurrent.TotalPrompts {
		errs = append(errs, fmt.Errorf("total prompts diverged: serial %d vs concurrent %d", rep.Serial.TotalPrompts, rep.Concurrent.TotalPrompts))
	}
	if !rep.ResultsIdentical {
		errs = append(errs, errors.New("concurrent execution changed a result relation"))
	}
	if !rep.PromptsIdentical {
		errs = append(errs, errors.New("concurrent execution changed a per-query prompt count"))
	}
	if rep.SpeedupX < 2 {
		errs = append(errs, fmt.Errorf("aggregate speedup %.2fx under shared scheduler, want >= 2x at k=%d", rep.SpeedupX, rep.K))
	}
	return errors.Join(errs...)
}
