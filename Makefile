GO ?= go

.PHONY: check vet build test race bench bench-artifacts benchmark-smoke serve fuzz cover netlines

check: vet build race

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The caches' singleflight and eviction run ten times more under -race:
# the substrate (internal/lru) and its two concurrent owners; so does the
# LLM operators' hand-off from inline execution to a producer
# (internal/physical).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 ./internal/lru ./internal/rescache ./internal/llm ./internal/physical

# The root package's end-to-end benchmarks (BenchmarkAdhocPlan: a
# never-seen templated statement on a warm runtime, where planning is the
# cost), then the planner's (BenchmarkChoose: one templated enumeration
# of a two-conjunct join, as on a plan-cache miss), the scheduler's
# (BenchmarkSchedulerMiss: the per-prompt cost of a model miss;
# BenchmarkCachedMiss: the same through the prompt cache, a new key every
# time), the LLM operators' (BenchmarkResidentFetch: a fetch-then-filter
# whose every answer is resident), the goroutine pool's (BenchmarkGo:
# one task handed to a parked goroutine), the result cache's
# (BenchmarkCandidates: one planning pass's subsumption candidates), the
# cache substrate's (BenchmarkFlight: one led, settled and admitted miss
# that evicts) and internal/serve's (BenchmarkServeExactHit: one warm
# exact hit through the HTTP handler, buffered and NDJSON).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ . ./internal/optimizer ./internal/llm ./internal/physical ./internal/gopool ./internal/rescache ./internal/lru ./internal/serve

# Regenerates every committed BENCH_*.json artifact (the rows of
# bench.Artifacts; each is deterministic) and fails when any differs from
# the committed file. One artifact: add /<name> to the -run pattern.
bench-artifacts:
	$(GO) test ./internal/bench -run TestArtifacts -update
	git diff --exit-code BENCH_*.json

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

# Short fuzz smoke of the SQL parser, a built plan's canonical form, the
# simulated model's prompt parser, the galois.yaml decoder, the
# model-answer number decoder, the token counter, the prompt template's
# token count, the durable store's segment replay and MANIFEST reader,
# the persisted result-cache entry decoder and internal/serve's /query
# parameter decoders (same runs CI does).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 30s ./internal/sql/parser
	$(GO) test -run '^$$' -fuzz FuzzCanonical -fuzztime 30s ./internal/logical
	$(GO) test -run '^$$' -fuzz FuzzParseResponse -fuzztime 30s ./internal/simllm
	$(GO) test -run '^$$' -fuzz FuzzConfigParse -fuzztime 30s ./internal/config
	$(GO) test -run '^$$' -fuzz FuzzParseNumber -fuzztime 30s ./internal/clean
	$(GO) test -run '^$$' -fuzz FuzzCountTokens -fuzztime 30s ./internal/llm
	$(GO) test -run '^$$' -fuzz FuzzTemplateTokens -fuzztime 30s ./internal/llm
	$(GO) test -run '^$$' -fuzz FuzzStoreSegment -fuzztime 30s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzManifest -fuzztime 30s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzDecodeEntry -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzQueryParams -fuzztime 30s ./internal/serve

# Per-package coverage summary.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Added, removed and net Go lines of the change since BASE, non-test and
# test separately, from git diff --numstat. BASE defaults to HEAD, i.e.
# the uncommitted change (stage new files first: untracked files are not
# in the diff). With BASE=rev it counts everything since rev, uncommitted
# changes included.
BASE ?= HEAD
netlines:
	@git diff --numstat $(BASE) -- '*.go' | awk ' \
		$$1 == "-" { next } \
		{ k = ($$3 ~ /_test\.go$$/) ? "test" : "non-test"; add[k] += $$1; del[k] += $$2 } \
		END { \
			printf "non-test Go: +%d -%d net %d\n", add["non-test"], del["non-test"], add["non-test"] - del["non-test"]; \
			printf "test Go:     +%d -%d net %d\n", add["test"], del["test"], add["test"] - del["test"] \
		}'
