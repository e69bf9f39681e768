GO ?= go

.PHONY: check vet build test race bench bench-artifacts bench-pipeline bench-optimizer bench-concurrency bench-resultcache bench-semcache bench-chaos bench-persist bench-sched bench-routing benchmark-smoke serve fuzz cover

check: vet build race

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Regenerates all nine committed BENCH_*.json artifacts in one run (each
# is deterministic; about 2 s) and fails when any differs from the
# committed file. The per-artifact targets below regenerate one each.
bench-artifacts:
	$(GO) test -run '^$$' -bench 'Comparison$$' -benchtime=1x .
	git diff --exit-code BENCH_*.json

# Regenerates the committed BENCH_pipeline.json artifact (deterministic).
bench-pipeline:
	$(GO) test -run '^$$' -bench BenchmarkPipelineComparison -benchtime=1x .

# Regenerates the committed BENCH_optimizer.json artifact (deterministic).
bench-optimizer:
	$(GO) test -run '^$$' -bench BenchmarkOptimizerComparison -benchtime=1x .

# Regenerates the committed BENCH_concurrency.json artifact
# (deterministic): serial vs K-way-concurrent corpus on one shared
# runtime and scheduler.
bench-concurrency:
	$(GO) test -run '^$$' -bench BenchmarkConcurrencyComparison -benchtime=1x .

# Regenerates the committed BENCH_resultcache.json artifact
# (deterministic): repeated corpus traffic against the relation-level
# result cache, with an epoch-bump invalidation probe.
bench-resultcache:
	$(GO) test -run '^$$' -bench BenchmarkResultCacheComparison -benchtime=1x .

# Regenerates the committed BENCH_semcache.json artifact
# (deterministic): the subsumption tier answering never-seen near-miss
# queries from cached relations, with a per-table invalidation probe.
bench-semcache:
	$(GO) test -run '^$$' -bench BenchmarkSemanticCacheComparison -benchtime=1x .

# Regenerates the committed BENCH_chaos.json artifact (deterministic):
# the seeded chaos differential — corpus under transient/malformed fault
# profiles with retries vs fault-free, the no-retry availability control,
# and the breaker lifecycle under a total outage.
bench-chaos:
	$(GO) test -run '^$$' -bench BenchmarkChaosComparison -benchtime=1x .

# Regenerates the committed BENCH_persist.json artifact (deterministic):
# the durable store across four runtime generations over one data
# directory — cold fill, zero-prompt warm restart, a rebind probe, and
# an ANALYZE whose invalidation survives the drain.
bench-persist:
	$(GO) test -run '^$$' -bench BenchmarkPersistComparison -benchtime=1x .

# Regenerates the committed BENCH_sched.json artifact (deterministic):
# simulated mixed-class contention under round-robin vs deficit-weighted
# dispatch, plus the live corpus solo vs K-way mixed-class concurrent.
bench-sched:
	$(GO) test -run '^$$' -bench BenchmarkSchedComparison -benchtime=1x .

# Regenerates the committed BENCH_routing.json artifact (deterministic):
# the multi-backend routing differential — single backend vs cheap/strong
# pair with keyscan/filter routed cheap (bit-identical, lower weighted
# cost) vs the same pair with a mid-corpus outage of the cheap backend
# (zero failures, every prompt failing over down the declared chain).
bench-routing:
	$(GO) test -run '^$$' -bench BenchmarkRoutingComparison -benchtime=1x .

# Smoke-runs the repository benchmark (benchmark/README.md): all four
# workloads at tiny request counts through a real galois-serve
# subprocess. It fails on a wrong answer or a broken accounting
# invariant (queries_served, response prompts vs backend prompts,
# non-zero shed/retries); it gates no timing.
benchmark-smoke:
	bash benchmark/run.sh -smoke

# Run the concurrent SQL server on the simulated world.
serve:
	$(GO) run ./cmd/galois-serve

# Short fuzz smoke of the SQL parser and the simulated model's prompt
# parser (same runs CI does).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 30s ./internal/sql/parser
	$(GO) test -run '^$$' -fuzz FuzzParseResponse -fuzztime 30s ./internal/simllm

# Per-package coverage summary.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1
