GO ?= go

.PHONY: build test lint check loc bench cluster results serve fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Style gate: gofmt must produce no diffs, vet must be clean. staticcheck
# and govulncheck additionally run when installed (CI installs them; get
# them locally with:
#   go install honnef.co/go/tools/cmd/staticcheck@latest
#   go install golang.org/x/vuln/cmd/govulncheck@latest).
lint:
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "govulncheck not installed; skipping"; fi

# Full gate: lint plus the whole suite under the race detector. The parallel
# partition+compile pipeline must stay race-clean and deterministic.
check: lint
	$(GO) test -race ./...

# The two tracked size numbers (ROADMAP "net lines of non-test code"):
# non-test Go lines outside bench/, and the same for internal/sim +
# internal/codegen. CI logs them per commit.
loc:
	@printf 'non-test Go lines (excluding bench/): '; \
		find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l
	@printf 'non-test Go lines in internal/sim + internal/codegen: '; \
		find internal/sim internal/codegen -name '*.go' -not -name '*_test.go' | xargs cat | wc -l

# The repository's one benchmark (BENCHMARK.json, bench/README.md): six
# workloads through a spawned repcutd. The Go micro-benchmarks stay
# reachable through `go test -bench`.
bench:
	bash bench/run.sh

# Multi-node fleet suite under the race detector: consistent-hash compile
# routing, peer artifact fetch, checkpoint/restore, drain migration, and
# the fault-injection matrix (peer death, stalls, corrupted artifacts).
cluster:
	$(GO) test -race -count=1 ./internal/cluster/...

# Regenerate the paper's tables and figures (hostmodel output,
# deterministic at seed 1). results/ holds the 12-design -full suite.
results:
	$(GO) run ./cmd/benchall -full -out results

# Differential fuzzing: each native fuzz target for FUZZTIME, then a
# deterministic 200-seed cross-engine sweep via the repcutfuzz CLI.
# Crashers are minimized and written to internal/difftest/testdata/crashers/
# where TestDifferentialCorpus replays them forever after.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzDifferentialSim -fuzztime=$(FUZZTIME) ./internal/difftest/
	$(GO) test -run=NONE -fuzz=FuzzFirrtlRoundTrip -fuzztime=$(FUZZTIME) ./internal/firrtl/
	$(GO) test -run=NONE -fuzz=FuzzBitvecOps -fuzztime=$(FUZZTIME) ./internal/bitvec/
	$(GO) run ./cmd/repcutfuzz -seeds 200

# Boot the simulation service on the default local address.
serve:
	$(GO) run ./cmd/repcutd -addr 127.0.0.1:8372
