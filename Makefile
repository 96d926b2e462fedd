GO ?= go

.PHONY: check fmt vet build perfbench-build test race race-stress bench-smoke bench bench-parallel bench-baseline bench-gate cover equiv chaos server-smoke multinode-smoke loc

## check: everything CI runs — format, vet, build (incl. the perfbench
## module), tests (incl. -race), bench smoke, the facade-equivalence
## golden diff, the coverage floor, the chaos sweep, and the
## client/server and multinode smokes.
check: fmt vet build perfbench-build test race bench-smoke equiv cover chaos server-smoke multinode-smoke

## COVER_FLOOR: minimum total statement coverage (percent) make cover accepts.
COVER_FLOOR ?= 70.0

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

## perfbench-build: vet and build the benchmark module (binary
## discarded). It is a separate Go module, so the root `go build ./...`
## never compiles it; a public API change would otherwise break the
## benchmark silently.
perfbench-build:
	cd perfbench && $(GO) vet ./... && $(GO) build -o /dev/null ./...

test:
	$(GO) test ./...

## race: the test suite under the race detector (the concurrent scan
## and session tests only prove anything when this runs).
race:
	$(GO) test -race ./...

## race-stress: the concurrency-heavy packages under the race detector,
## repeated and at several GOMAXPROCS settings, so schedule-dependent
## flakes surface in CI. Its own CI job; not part of check.
race-stress:
	$(GO) test -race -count=3 -cpu 1,2,4 . ./internal/server ./internal/parallel ./internal/bufferpool

## bench-smoke: one iteration of every benchmark so they cannot rot.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

## bench: the real benchmark suite with allocation reporting.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

## bench-parallel: the P=1/2/4/8 parallel-scan sweep, refreshing the
## machine-readable trajectory file BENCH_parallel.json.
bench-parallel:
	$(GO) run ./cmd/ssload -bench parallel -json BENCH_parallel.json

## bench-baseline: regenerate the committed throughput baseline the CI
## perf gate compares against. Run after deliberate perf changes (or a
## CI runner class change) and commit testdata/bench_baseline.json.
bench-baseline:
	$(GO) run ./cmd/benchgate -write

## bench-gate: fail on a >25% tuples/s regression against the
## committed baseline (best-of-3 runs; see cmd/benchgate for the
## noise-tolerance rationale).
bench-gate:
	$(GO) run ./cmd/benchgate

## COVER_DIR: where coverage artifacts land — an ignored scratch dir,
## so `make cover` never strands a cover.out in the working tree.
COVER_DIR ?= tmp

## cover: the test suite with coverage, enforcing COVER_FLOOR on the total.
## -coverpkg counts cross-package coverage: ssclient and internal/loadgen
## are exercised by the server and remote-equivalence suites, not by
## same-package tests.
cover:
	@mkdir -p $(COVER_DIR)
	$(GO) test -coverprofile=$(COVER_DIR)/cover.out -coverpkg=./... ./...
	@total=$$($(GO) tool cover -func=$(COVER_DIR)/cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); 	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; 	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || 		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor" >&2; exit 1; }

## loc: the non-test Go line count outside perfbench/ — the net size
## figure a simplification reports in CHANGES.md.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' | xargs wc -l | tail -1

## equiv: diff the deterministic ssbench experiments against the
## committed golden — proves facade/plan refactors left the simulated
## I/O and CPU accounting byte-identical.
equiv:
	./scripts/equivcheck.sh

## chaos: the fault-injection matrix under the race detector plus the
## ssload chaos sweep — recovered results must be byte-identical to
## the fault-free oracle, unrecoverable faults must surface as typed
## errors with no goroutine leaks.
chaos:
	$(GO) test -race -run 'TestFault' -count=1 . ./internal/disk/
	$(GO) run ./cmd/ssload -chaos -rows 60000 -clients 4 -queries 32

## server-smoke: boot ssserver and drive it with ssload -addr, both
## race-instrumented — plain, prepared and chaos remote runs must be
## clean (zero failed queries) with nonzero client-observed throughput.
server-smoke:
	./scripts/server_smoke.sh

## multinode-smoke: boot N race-instrumented shard-node ssservers and
## drive them with a remote-sharded ssload (-shard-addrs) — clean runs
## whose result digest must be identical to in-process sharded and
## unsharded runs of the same workload.
multinode-smoke:
	./scripts/multinode_smoke.sh
