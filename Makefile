GO ?= go

.PHONY: check vet build test race bench bench-artifacts benchmark-smoke serve fuzz cover

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

# Short fuzz smoke of the SQL parser and the simulated model's prompt
# parser (same runs CI does).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 30s ./internal/sql/parser
	$(GO) test -run '^$$' -fuzz FuzzParseResponse -fuzztime 30s ./internal/simllm

# Per-package coverage summary.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1
