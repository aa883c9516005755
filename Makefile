# Tier-1 verification: everything CI runs, in the same order.
# `make verify` must pass before any commit.

GO ?= go

.PHONY: verify build vet fmt lint waivers test race bench bench-gate bench-gate-record gslint

verify: build vet fmt lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails when gofmt would change any Go file in the tree.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# The gslint binary is built once into bin/ and reused by lint, waivers
# and CI; `go build` is incremental, so repeat runs are near-free.
gslint:
	$(GO) build -o bin/gslint ./cmd/gslint

# gslint machine-checks the paper's implementation invariants (locking
# discipline, deterministic serialization, commit-clock time, OOP identity,
# lock-order deadlock freedom, lock-release path coverage, durability error
# flow, pooled-buffer ownership, session lifecycles). See DESIGN.md
# "Invariants & static analysis".
lint: gslint
	./bin/gslint ./...

# waivers audits every //lint:ignore suppression with its reason. CI
# enforces a count budget over this listing so waivers cannot grow
# silently; raise the budget in .github/workflows/ci.yml deliberately.
waivers: gslint
	./bin/gslint -waivers ./...

test:
	$(GO) test ./...

# race covers every package, which includes the wire session-authorization
# regression tests, the executor logout/execute race test, and the obs
# snapshot-determinism test.
race:
	$(GO) test -race ./...

# bench runs the full benchmark suite, folds the numbers into the
# BENCH_2.json ledger (section "current"; the committed "baseline" section
# predates the group-commit pipeline), and regenerates the paper's
# experiments. benchjson reads `go test -bench` output from stdin.
bench:
	$(GO) test -bench=. -benchmem ./... | tee /tmp/bench_out.txt
	$(GO) run ./cmd/benchjson -o BENCH_2.json -section current < /tmp/bench_out.txt
	$(GO) run ./cmd/gsbench -openloop -conns 1000 -ledger BENCH_2.json
	$(GO) run ./cmd/gsbench -all

# The single-writer commit benchmarks that gate the commit path's
# allocation budget. -benchtime is pinned to a fixed iteration count:
# with append-only history every commit grows the written record, so
# B/op depends on b.N; at a fixed count it is deterministic and
# machine-independent.
GATE_BENCH = BenchmarkCommitAllocs/workers=1$$|BenchmarkC3_OptimisticCommits/disjoint/workers=1$$
GATE_TIME  = 300x

# The streaming-executor plan benchmark that gates the query path's
# allocation budget (the optimized C1 plan over the 85-employee Acme set).
# Read-only queries don't grow history, but a fixed iteration count keeps
# the gate cheap and deterministic anyway.
QUERY_GATE_BENCH = BenchmarkC1_QueryPlans/optimized/employees=85$$
QUERY_GATE_TIME  = 50x

# bench-gate compares a fresh run against the committed commit_gate
# baseline in BENCH_2.json and fails on regression. B/op and allocs/op
# are tight (they don't depend on machine speed); ns/op is a loose
# catastrophic-regression backstop because shared-runner wall clock
# swings 2-3x.
bench-gate:
	$(GO) test -bench '$(GATE_BENCH)' -benchtime=$(GATE_TIME) -benchmem -run '^$$' . \
	  | $(GO) run ./cmd/benchjson -gate BENCH_2.json -section commit_gate \
	      -metric B/op:1.25 -metric allocs/op:1.2 -metric ns/op:4.0
	$(GO) test -bench '$(QUERY_GATE_BENCH)' -benchtime=$(QUERY_GATE_TIME) -benchmem -run '^$$' . \
	  | $(GO) run ./cmd/benchjson -gate BENCH_2.json -section query_gate \
	      -metric B/op:1.25 -metric allocs/op:1.2 -metric ns/op:4.0

# bench-gate-record re-baselines the gate. Run deliberately, in the same
# PR as an intentional commit-path change, never to paper over a
# regression.
bench-gate-record:
	$(GO) test -bench '$(GATE_BENCH)' -benchtime=$(GATE_TIME) -benchmem -run '^$$' . \
	  | $(GO) run ./cmd/benchjson -o BENCH_2.json -section commit_gate
	$(GO) test -bench '$(QUERY_GATE_BENCH)' -benchtime=$(QUERY_GATE_TIME) -benchmem -run '^$$' . \
	  | $(GO) run ./cmd/benchjson -o BENCH_2.json -section query_gate
