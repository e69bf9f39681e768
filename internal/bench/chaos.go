package bench

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faultllm"
	"repro/internal/llm"
	"repro/internal/simllm"
	"repro/internal/spider"
)

// Chaos fault profiles. The rates are per (prompt, attempt) decisions —
// pure hashes of the seeded injector, never of wall-clock or goroutine
// interleaving — so every arm of the differential is reproducible and CI
// can diff the committed artifact byte-for-byte.
const (
	// ChaosTransientRate injects retryable backend errors on ~12% of
	// first and second attempts.
	ChaosTransientRate = 0.12
	// ChaosTimeoutRate injects per-attempt deadline expiries on ~5%.
	ChaosTimeoutRate = 0.05
	// ChaosMalformedRate brands ~15% of completions with the malformed
	// marker the transport's validator must reject before any cache can
	// store them.
	ChaosMalformedRate = 0.15
	// ChaosBreakerThreshold is the outage scenario's breaker setting:
	// small enough that a short total outage trips it.
	ChaosBreakerThreshold = 3
)

// ChaosArm is one fault profile run over the whole corpus, twice (a cold
// pass and a cache-hot pass), through the resilient transport.
type ChaosArm struct {
	Config  string           `json:"config"`
	Profile faultllm.Profile `json:"profile"`
	Queries int              `json:"queries"`
	// FailedQueries counts corpus queries that returned an error. With
	// retries on, every transient profile must heal to zero.
	FailedQueries int `json:"failed_queries"`
	// ColdPrompts / HotPrompts count model calls recorded per pass
	// (retries are not prompts: the Recorder sees one call per success).
	ColdPrompts int `json:"cold_prompts"`
	HotPrompts  int `json:"hot_prompts"`
	// ColdMakespanMS sums per-query simulated makespans of the cold pass.
	ColdMakespanMS float64 `json:"cold_makespan_ms"`
	// Retries / Faults are the transport's recovery work — the only
	// place fault handling is allowed to show up.
	Retries int64 `json:"retries"`
	Faults  int64 `json:"faults"`
	// Injected* report what the chaos injector actually dealt.
	InjectedTransient int64 `json:"injected_transient"`
	InjectedTimeouts  int64 `json:"injected_timeouts"`
	InjectedMalformed int64 `json:"injected_malformed"`
	// The differential against the fault-free baseline: relations
	// bit-identical on both passes, recorded prompt counts and simulated
	// makespan exact per query.
	ResultsIdentical  bool `json:"results_identical"`
	HotIdentical      bool `json:"hot_identical"`
	PromptsIdentical  bool `json:"prompts_identical"`
	MakespanIdentical bool `json:"makespan_identical"`
}

// NoRetryControl is the availability-loss control: the same transient
// profile with retries disabled. Failure counts are deterministic; the
// queries that do survive must still match the baseline bit-for-bit.
type NoRetryControl struct {
	Config        string `json:"config"`
	Queries       int    `json:"queries"`
	FailedQueries int    `json:"failed_queries"`
	// FailuresClassified reports that every failure surfaced as a
	// classified transport error (transient or deadline), never as a
	// bare or cancellation-shaped error.
	FailuresClassified bool `json:"failures_classified"`
	// SurvivorsIdentical reports that the queries that did succeed
	// produced relations bit-identical to the fault-free baseline.
	SurvivorsIdentical bool `json:"survivors_identical"`
}

// OutageScenario is the breaker lifecycle record: a total endpoint
// outage trips the breaker, calls shed fast with classified errors while
// cached results stay servable, and after the cooldown a single
// half-open probe heals the endpoint with no stale or partial cache
// entries left behind. Every field is a deterministic boolean or count.
type OutageScenario struct {
	BreakerThreshold   int   `json:"breaker_threshold"`
	FailedDuringOutage int   `json:"failed_during_outage"`
	FailuresClassified bool  `json:"failures_classified"`
	BreakerOpened      bool  `json:"breaker_opened"`
	BreakerOpens       int64 `json:"breaker_opens"`
	// FastFailed: at least one call was shed without touching the
	// backend while the breaker was open.
	FastFailed bool `json:"fast_failed"`
	// ShedClassified: a query during the open window failed with a
	// breaker-open classified error (so serve layers can map it to 503).
	ShedClassified bool `json:"shed_classified"`
	// CacheServedDuringOutage: a query whose relation was cached before
	// the outage kept answering (zero prompts) while the backend was down.
	CacheServedDuringOutage bool `json:"cache_served_during_outage"`
	HalfOpenAfterCooldown   bool `json:"half_open_after_cooldown"`
	// ProbeHealed: one successful half-open probe closed the breaker.
	ProbeHealed    bool `json:"probe_healed"`
	PostRecoveryOK bool `json:"post_recovery_ok"`
	// PostRecoveryIdentical: queries run after recovery (including the
	// ones that failed mid-outage) match a fault-free control exactly —
	// failed queries left no stale or partial cache entries.
	PostRecoveryIdentical bool `json:"post_recovery_identical"`
}

// ChaosReport is the machine-readable chaos record (BENCH_chaos.json):
// the corpus under seeded fault profiles with and without the resilient
// transport's recovery, plus the breaker lifecycle under a total outage.
type ChaosReport struct {
	Model     string         `json:"model"`
	Seed      int64          `json:"seed"`
	Queries   int            `json:"queries"`
	Baseline  ChaosArm       `json:"baseline"`
	Transient ChaosArm       `json:"transient"`
	Malformed ChaosArm       `json:"malformed"`
	NoRetry   NoRetryControl `json:"no_retry"`
	Outage    OutageScenario `json:"outage"`
}

// chaosOptions pins the differential's engine configuration: the
// stop-and-go policy and fixed heuristic plans, so the set and order of
// issued prompts is a pure function of the query text, with the prompt
// and result caches optionally on (the retry arms run them on to prove
// faults cannot poison either tier).
func chaosOptions(caches bool) core.Options {
	opts := PaperOptions()
	opts.Optimizer.CostBased = false
	opts.CacheEnabled = caches
	opts.ResultCacheEnabled = caches
	return opts
}

// instantSleep skips backoff wall-clock in the bench while still
// honoring cancellation — backoff durations stay deterministic, they are
// just not waited out.
func instantSleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

// chaosTransport builds the bench's transport stack: the seeded chaos
// injector under the resilient client, with the injector's validator
// installed, the breaker disabled (the lifecycle is measured separately
// in the outage scenario), and the retry budget effectively unlimited so
// the differential exercises retries alone (budget dynamics have their
// own unit tests).
func chaosTransport(model llm.Client, p faultllm.Profile, retries bool) (*faultllm.Injector, *llm.ResilientClient) {
	inj := faultllm.Wrap(model, p)
	cfg := llm.ResilientConfig{
		BreakerThreshold:   -1,
		RetryBudgetReserve: 1e6,
		Validate:           faultllm.Validator(),
		Sleep:              instantSleep,
	}
	if !retries {
		cfg.MaxRetries = -1
	}
	return inj, llm.NewResilient(inj, cfg)
}

// runChaosArm runs the corpus twice (cold, then cache-hot) through one
// fault profile with retries on, requiring every query to succeed.
func (r *Runner) runChaosArm(ctx context.Context, p simllm.Profile, config string, fp faultllm.Profile) (ChaosArm, [2][]queryOutcome, error) {
	var passes [2][]queryOutcome
	inj, rc := chaosTransport(r.Model(p), fp, true)
	rt, err := r.Runtime(rc, chaosOptions(true))
	if err != nil {
		return ChaosArm{}, passes, err
	}
	corpus := spider.Queries()
	arm := ChaosArm{Config: config, Profile: inj.Profile(), Queries: len(corpus)}
	for pass := 0; pass < 2; pass++ {
		outcomes := make([]queryOutcome, len(corpus))
		for i, q := range corpus {
			outcomes[i] = runQuery(ctx, rt, q.SQL, "", 0)
			if outcomes[i].err != nil {
				arm.FailedQueries++
			}
			if pass == 0 {
				arm.ColdPrompts += outcomes[i].prompts
				arm.ColdMakespanMS += float64(outcomes[i].makespan) / float64(time.Millisecond)
			} else {
				arm.HotPrompts += outcomes[i].prompts
			}
		}
		passes[pass] = outcomes
	}
	res := rc.Counters()
	arm.Retries = res.Retries
	arm.Faults = res.Faults
	ic := inj.Counters()
	arm.InjectedTransient = ic.Transient
	arm.InjectedTimeouts = ic.Timeouts
	arm.InjectedMalformed = ic.Malformed
	return arm, passes, nil
}

// diffArm fills an arm's differential fields against the baseline passes.
func diffArm(arm *ChaosArm, baseline, got [2][]queryOutcome) {
	arm.ResultsIdentical = true
	arm.HotIdentical = true
	arm.PromptsIdentical = true
	arm.MakespanIdentical = true
	for i := range baseline[0] {
		if got[0][i].rel != baseline[0][i].rel {
			arm.ResultsIdentical = false
		}
		if got[1][i].rel != baseline[1][i].rel {
			arm.HotIdentical = false
		}
		if got[0][i].prompts != baseline[0][i].prompts || got[1][i].prompts != baseline[1][i].prompts {
			arm.PromptsIdentical = false
		}
		if got[0][i].makespan != baseline[0][i].makespan {
			arm.MakespanIdentical = false
		}
	}
}

// classifiedFailure reports whether err carries the transport's error
// taxonomy (any class but a caller cancellation).
func classifiedFailure(err error) bool {
	var le *llm.Error
	return errors.As(err, &le) && !llm.IsCancellation(err)
}

// runNoRetryControl runs the transient profile with retries disabled:
// the availability loss the resilient transport exists to prevent. The
// caches stay off — a failing query abandons its wave mid-flight, so
// which sibling completions land in a cache is scheduling-dependent and
// would make later prompt counts unstable.
func (r *Runner) runNoRetryControl(ctx context.Context, p simllm.Profile, fp faultllm.Profile, baseline []queryOutcome) (NoRetryControl, error) {
	_, rc := chaosTransport(r.Model(p), fp, false)
	rt, err := r.Runtime(rc, chaosOptions(false))
	if err != nil {
		return NoRetryControl{}, err
	}
	corpus := spider.Queries()
	ctl := NoRetryControl{
		Config:             "transient-no-retries",
		Queries:            len(corpus),
		FailuresClassified: true,
		SurvivorsIdentical: true,
	}
	for i, q := range corpus {
		out := runQuery(ctx, rt, q.SQL, "", 0)
		if out.err != nil {
			ctl.FailedQueries++
			if !classifiedFailure(out.err) {
				ctl.FailuresClassified = false
			}
			continue
		}
		if out.rel != baseline[i].rel {
			ctl.SurvivorsIdentical = false
		}
	}
	return ctl, nil
}

// runOutageScenario walks the breaker lifecycle under a total endpoint
// outage on a fake clock: classified failures trip the breaker, open
// sheds fast while the result cache keeps pre-outage queries servable,
// the cooldown admits exactly one half-open probe, and recovery leaves
// no stale cache entries behind.
func (r *Runner) runOutageScenario(ctx context.Context, p simllm.Profile) (OutageScenario, error) {
	corpus := spider.Queries()
	// Fault-free control for the identity checks.
	control, err := r.Runtime(r.Model(p), chaosOptions(true))
	if err != nil {
		return OutageScenario{}, err
	}
	expect := make([]string, 6)
	for i := 0; i < 6; i++ {
		out := runQuery(ctx, control, corpus[i].SQL, "", 0)
		if out.err != nil {
			return OutageScenario{}, fmt.Errorf("bench: outage control: %w", out.err)
		}
		expect[i] = out.rel
	}

	clock := time.Unix(0, 0)
	inj := faultllm.Wrap(r.Model(p), faultllm.Profile{Seed: r.Seed})
	rc := llm.NewResilient(inj, llm.ResilientConfig{
		MaxRetries:       -1, // fail fast: every failed call feeds the breaker
		BreakerThreshold: ChaosBreakerThreshold,
		Sleep:            instantSleep,
		Now:              func() time.Time { return clock },
	})
	rt, err := r.Runtime(rc, chaosOptions(true))
	if err != nil {
		return OutageScenario{}, err
	}
	sc := OutageScenario{BreakerThreshold: ChaosBreakerThreshold, FailuresClassified: true}

	// Healthy: warm the caches with query 0.
	if out := runQuery(ctx, rt, corpus[0].SQL, "", 0); out.err != nil || out.rel != expect[0] {
		return sc, fmt.Errorf("bench: pre-outage query failed or diverged: %v", out.err)
	}

	// Total outage: fresh queries fail with classified errors until the
	// breaker opens (or, once open, shed with breaker-open errors).
	inj.SetOutage(true)
	for i := 1; i <= 3; i++ {
		out := runQuery(ctx, rt, corpus[i].SQL, "", 0)
		if out.err == nil {
			return sc, fmt.Errorf("bench: query %d succeeded during a total outage", i)
		}
		sc.FailedDuringOutage++
		if !classifiedFailure(out.err) {
			sc.FailuresClassified = false
		}
	}
	sc.BreakerOpened = rc.State() == llm.BreakerOpen

	// The pre-outage query keeps answering from the result cache: zero
	// prompts, no call anywhere near the dead backend.
	if out := runQuery(ctx, rt, corpus[0].SQL, "", 0); out.err == nil && out.prompts == 0 && out.rel == expect[0] {
		sc.CacheServedDuringOutage = true
	}

	// A fresh query while open is shed fast with a breaker-open error.
	if out := runQuery(ctx, rt, corpus[4].SQL, "", 0); out.err != nil {
		var le *llm.Error
		sc.ShedClassified = errors.As(out.err, &le) && le.Class == llm.ClassBreakerOpen
	}
	sc.FastFailed = rc.Counters().BreakerFastFails >= 1

	// Backend heals; the cooldown elapses on the fake clock and exactly
	// one half-open probe closes the breaker.
	inj.SetOutage(false)
	clock = clock.Add(llm.DefaultBreakerCooldown + time.Second)
	sc.HalfOpenAfterCooldown = rc.State() == llm.BreakerHalfOpen
	if _, err := rc.Complete(ctx, "health probe: reply with any completion"); err == nil {
		sc.ProbeHealed = rc.State() == llm.BreakerClosed
	}

	// Recovery: the shed query and every query that failed mid-outage now
	// run clean and match the fault-free control — no stale or partial
	// cache entries survived the failures.
	sc.PostRecoveryOK = true
	sc.PostRecoveryIdentical = true
	for _, i := range []int{4, 1, 2, 3, 0, 5} {
		out := runQuery(ctx, rt, corpus[i].SQL, "", 0)
		if out.err != nil {
			sc.PostRecoveryOK = false
			continue
		}
		if out.rel != expect[i] {
			sc.PostRecoveryIdentical = false
		}
	}
	sc.BreakerOpens = rc.Counters().BreakerOpens
	return sc, nil
}

// ChaosComparison runs the seeded chaos differential: the corpus under a
// fault-free baseline, a transient-fault profile and a malformed-output
// profile (retries on — results, prompt counts and simulated makespan
// must be bit-identical to the baseline), the same transient profile
// with retries off (the availability loss), and the breaker lifecycle
// under a total outage. Every recorded number is deterministic, so the
// committed artifact is reproducible and CI can diff it.
func (r *Runner) ChaosComparison(ctx context.Context, p simllm.Profile) (*ChaosReport, error) {
	rep := &ChaosReport{Model: p.ID, Seed: r.Seed, Queries: len(spider.Queries())}

	baseline, basePasses, err := r.runChaosArm(ctx, p, "fault-free", faultllm.Profile{Seed: r.Seed})
	if err != nil {
		return nil, err
	}
	diffArm(&baseline, basePasses, basePasses)
	rep.Baseline = baseline

	transientProfile := faultllm.Profile{
		Seed:          r.Seed,
		TransientRate: ChaosTransientRate,
		TimeoutRate:   ChaosTimeoutRate,
	}
	transient, passes, err := r.runChaosArm(ctx, p, "transient-retries", transientProfile)
	if err != nil {
		return nil, err
	}
	diffArm(&transient, basePasses, passes)
	rep.Transient = transient

	malformed, passes, err := r.runChaosArm(ctx, p, "malformed-validated",
		faultllm.Profile{Seed: r.Seed, MalformedRate: ChaosMalformedRate})
	if err != nil {
		return nil, err
	}
	diffArm(&malformed, basePasses, passes)
	rep.Malformed = malformed

	if rep.NoRetry, err = r.runNoRetryControl(ctx, p, transientProfile, basePasses[0]); err != nil {
		return nil, err
	}
	if rep.Outage, err = r.runOutageScenario(ctx, p); err != nil {
		return nil, err
	}
	return rep, nil
}

// CheckAcceptance enforces the chaos acceptance criteria: with retries
// on, every fault profile heals to zero failed queries with relations,
// prompt counts and makespan bit-identical to fault-free; without
// retries the same faults lose queries (all classified); and the outage
// scenario walks the full breaker lifecycle with no cache poisoning.
func (rep *ChaosReport) CheckAcceptance() error {
	var errs []error
	check := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	check(rep.Baseline.FailedQueries == 0, "baseline: %d queries failed", rep.Baseline.FailedQueries)
	check(rep.Baseline.Retries == 0 && rep.Baseline.Faults == 0,
		"baseline: transport reported recovery work (%d retries, %d faults) with no faults injected",
		rep.Baseline.Retries, rep.Baseline.Faults)
	for _, arm := range []*ChaosArm{&rep.Transient, &rep.Malformed} {
		check(arm.FailedQueries == 0, "%s: %d queries failed with retries on", arm.Config, arm.FailedQueries)
		check(arm.Faults > 0 && arm.Retries > 0, "%s: injector dealt no faults (faults=%d retries=%d) — profile inert", arm.Config, arm.Faults, arm.Retries)
		check(arm.ResultsIdentical, "%s: a cold-pass relation diverged from fault-free", arm.Config)
		check(arm.HotIdentical, "%s: a cache-hot relation diverged from fault-free (cache poisoned)", arm.Config)
		check(arm.PromptsIdentical, "%s: recorded prompt counts diverged from fault-free", arm.Config)
		check(arm.MakespanIdentical, "%s: simulated makespan diverged from fault-free", arm.Config)
	}
	check(rep.Malformed.InjectedMalformed > 0, "malformed arm injected no malformed completions")
	check(rep.NoRetry.FailedQueries > 0, "no-retry control lost no queries — transient profile inert")
	check(rep.NoRetry.FailuresClassified, "no-retry control: a failure escaped the error taxonomy")
	check(rep.NoRetry.SurvivorsIdentical, "no-retry control: a surviving query diverged from fault-free")
	o := rep.Outage
	check(o.FailedDuringOutage == 3 && o.FailuresClassified, "outage: failures %d classified=%v", o.FailedDuringOutage, o.FailuresClassified)
	check(o.BreakerOpened && o.BreakerOpens == 1, "outage: breaker opened=%v opens=%d, want one open", o.BreakerOpened, o.BreakerOpens)
	check(o.FastFailed && o.ShedClassified, "outage: open breaker did not shed classified fast-fails (fast=%v shed=%v)", o.FastFailed, o.ShedClassified)
	check(o.CacheServedDuringOutage, "outage: cached relation not served during the outage")
	check(o.HalfOpenAfterCooldown && o.ProbeHealed, "outage: breaker did not recover via half-open probe (half-open=%v healed=%v)", o.HalfOpenAfterCooldown, o.ProbeHealed)
	check(o.PostRecoveryOK && o.PostRecoveryIdentical, "outage: post-recovery queries failed or diverged (ok=%v identical=%v)", o.PostRecoveryOK, o.PostRecoveryIdentical)
	return errors.Join(errs...)
}
