GO ?= go

.PHONY: check vet build test race bench bench-smoke examples bench-compare bench-artifacts benchmark-smoke serve fuzz cover netlines stress

check: vet build race bench-smoke examples

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -race covers the executor under both policies, the 200-query
# randomized differential harness (internal/difftest), every feature's
# concurrency, chaos, persistence, scheduling, routing and subsumption
# tests, and TestArtifacts: every committed BENCH_*.json is regenerated,
# acceptance-checked and diffed byte for byte. The caches' singleflight
# and eviction run ten times more under -race: the substrate
# (internal/lru) and its two concurrent owners; so do the LLM operators'
# hand-off from inline execution to a producer (internal/physical) and
# the goroutine pool's park, handoff and retirement (internal/gopool).
# CI's check job runs `make check`.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 ./internal/lru ./internal/rescache ./internal/llm ./internal/physical ./internal/gopool

# The root package's end-to-end timings of the query hot path
# (BenchmarkAdhocPlan: a never-seen templated statement on a warm
# runtime, where planning is the cost; the paper's numbers are
# BENCH_paper.json, not benchmarks), then the front end's
# (BenchmarkShape: the lexer pass that keys the shape memo;
# BenchmarkParse: a full parse, one typical ad-hoc statement each), the
# planner's
# (BenchmarkChoose: one templated enumeration
# of a two-conjunct join, as on a plan-cache miss, each candidate lowered
# and estimated; BenchmarkTemplateOf: the same statement's one rendering
# and the plan-cache template cut from it, a parsed statement's rendering
# cost), the scheduler's
# (BenchmarkSchedulerMiss: the per-prompt cost of a model miss;
# BenchmarkCachedMiss: the same through the prompt cache, a new key every
# time), the LLM operators' (BenchmarkResidentFetch: a fetch-then-filter
# whose every answer is resident), the goroutine pool's (BenchmarkGo:
# one task handed to a parked goroutine), the result cache's
# (BenchmarkCandidates: the subsumption probe over 256 resident producers,
# one probe that finds nothing and one that finds a residual), the
# cache substrate's (BenchmarkFlight: one led, settled and admitted miss
# that evicts) and internal/serve's (BenchmarkServeExactHit: one warm
# exact hit through the HTTP handler, buffered and NDJSON).
BENCH_PKGS = . ./internal/sql/lexer ./internal/sql/parser ./internal/optimizer ./internal/llm ./internal/physical ./internal/gopool ./internal/rescache ./internal/lru ./internal/serve
bench:
	$(GO) test -bench=. -benchmem -run=^$$ $(BENCH_PKGS)

# Runs every benchmark of the bench target's packages once, so one that
# panics or fails is seen by check; it measures nothing, and no
# experiment runs here (TestArtifacts runs them under go test).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x $(BENCH_PKGS)

# Runs every example program (examples/*) and fails when one exits
# non-zero; no test executes them. Their output is discarded.
examples:
	@for d in examples/*/; do echo "$(GO) run ./$$d"; $(GO) run ./$$d > /dev/null || exit 1; done

# Compares the bench target's benchmarks at BASE (a git revision; HEAD,
# the default, compares the uncommitted change) with the working tree:
# both sides' test binaries are built first, BASE's from a git archive
# under $(TMPDIR), then run alternately COUNT times each, and the medians
# of ns/op, B/op, allocs/op and the custom units are printed side by
# side. BENCH narrows the benchmarks (a -test.bench pattern), PKGS the
# packages and BENCHTIME sets -test.benchtime, e.g.
# make bench-compare BASE=HEAD~1 PKGS=./internal/physical BENCHTIME=4000x.
COUNT ?= 10
BENCH ?= .
BENCHTIME ?= 1s
PKGS ?= $(BENCH_PKGS)
bench-compare:
	BENCHTIME=$(BENCHTIME) bash scripts/bench-compare.sh $(BASE) $(COUNT) '$(BENCH)' $(PKGS)

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

# Runs every fuzz target of every package (go test -list '^Fuzz') for
# 30 s each, one at a time, and stops at the first crasher. CI's fuzz
# job runs `make fuzz`, so a new target needs no edit here.
fuzz:
	@for pkg in $$($(GO) list ./...); do \
		list=$$($(GO) test -list '^Fuzz' $$pkg) || exit 1; \
		for t in $$(echo "$$list" | grep '^Fuzz'); do \
			echo "$(GO) test -run '^$$' -fuzz '^$$t$$' -fuzztime 30s $$pkg"; \
			$(GO) test -run '^$$' -fuzz "^$${t}\$$" -fuzztime 30s $$pkg || exit 1; \
		done; \
	done

# Reproduces a flaky test under load: builds PKG's test binary once, runs
# it as 4 concurrent processes in PKG's directory, each running the tests
# RUN matches 100 times (-test.count=100), and fails when any run fails,
# printing the failures, e.g.
# make stress RUN=TestServeCancelledQueuedCounters PKG=./internal/serve.
RUN ?= .
PKG ?= .
stress:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) test -c -o "$$dir/stress.test" $(PKG) || exit 1; \
	cd $(PKG) || exit 1; pids=; \
	for i in 1 2 3 4; do \
		"$$dir/stress.test" -test.run '$(RUN)' -test.count 100 > "$$dir/$$i.log" 2>&1 & pids="$$pids $$!"; \
	done; \
	fail=0; for p in $$pids; do wait $$p || fail=1; done; \
	if [ $$fail -ne 0 ]; then grep -h -A5 -- '--- FAIL' "$$dir"/*.log; echo "stress: $$(cat "$$dir"/*.log | grep -c -- '^--- FAIL') of 400 runs failed"; exit 1; fi; \
	echo "stress: 400 runs of $(RUN) in $(PKG) passed"

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
