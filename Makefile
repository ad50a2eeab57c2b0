# Tier-1 verify is `make ci` (build + vet + test + race).

GO ?= go
# Shorten in CI's fuzz job (make fuzz FUZZTIME=15s).
FUZZTIME ?= 30s
# Suffix for the benchmark snapshot (CI passes the run number so
# artifacts accumulate into a perf trajectory).
BENCH_N ?= local

.PHONY: build vet fmt-check detlint lint-docs test race chaos bench bench-json bench-compare bench-e2e bench-e2e-test fuzz smoke sloc ci

build:
	$(GO) build ./...

vet: fmt-check detlint
	$(GO) vet ./...

# Determinism & hot-path lint: cmd/detlint type-checks every package
# (stdlib source importer, no external linter) and enforces the
# simulator's invariants at compile time — no wall clock or global
# math/rand in simulation packages, no goroutines/select outside the
# parallel fabric, no order-sensitive map iteration, no allocations in
# //det:hotpath functions. Suppressions are audited //det:ignore
# directives with mandatory reasons. Any finding exits 1.
detlint:
	$(GO) run ./cmd/detlint .

# Fail on any file gofmt would rewrite.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Doc gate: every exported identifier in the repo (facade, internal
# packages, commands) must carry a godoc comment. cmd/lintdocs is a
# small go/ast walker, so the rule needs no external linter.
lint-docs:
	$(GO) run ./cmd/lintdocs -r .

test:
	$(GO) test ./...

# The fleet layer runs engine replicas on real goroutines; race-check it
# together with the engine it drives. The second leg re-runs the
# parallel-fabric determinism suite under the detector with the worker
# pool forced on (multi-worker online, disagg, prefix and fault runs,
# plus the cross-shard-boundary property), since those tests are the
# only ones that exercise coordinator/worker hand-off on every code
# path.
race:
	$(GO) test -race ./internal/fleet/... ./internal/core/...
	$(GO) test -race -count=1 -run 'TestParallel' ./internal/fleet/
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/faults/

# Chaos harness: randomized-but-seeded correlated-failure plans swept
# across domain shapes, outage kinds and checkpoint cadences, served by
# both fleet fault routers at one and four workers, asserting
# exactly-once conservation and byte-identical reports run-to-run and
# across worker counts. TDPIPE_CHAOS_LONG=1 widens the seed set and
# varies the retry budget (the race job above runs the short sweep
# under the detector).
chaos:
	TDPIPE_CHAOS_LONG=$${TDPIPE_CHAOS_LONG:-0} $(GO) test -count=1 -run 'TestChaos' -v ./internal/faults/

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# One machine-readable benchmark snapshot per run: name -> ns/op,
# B/op, allocs/op. CI uploads BENCH_<run>.json as an artifact. The
# intermediate file (not a pipe) makes a benchmark failure fail the
# target instead of being masked by benchjson's exit status.
bench-json:
	$(GO) test -bench=. -benchmem -run='^$$' ./... > bench.out
	$(GO) run ./cmd/benchjson < bench.out > BENCH_$(BENCH_N).json
	@rm -f bench.out
	@echo wrote BENCH_$(BENCH_N).json

# Advisory perf gate: diff two bench-json snapshots and fail on a >15%
# ns/op regression (override with THRESHOLD). CI runs this with the
# merge-base snapshot as OLD.
OLD ?= BENCH_base.json
NEW ?= BENCH_local.json
THRESHOLD ?= 15
bench-compare:
	$(GO) run ./cmd/benchjson -compare -threshold $(THRESHOLD) -geomean $(OLD) $(NEW)

# End-to-end benchmark: cmd/tdpipe-bench runs the five fixed serving
# workloads twice each (about 30 s) and checks their golden digests.
# The harness is a module of its own, so root `go test ./...` skips its
# tests; bench-e2e-test runs them.
bench-e2e:
	bash cmd/tdpipe-bench/run.sh --seconds 0

bench-e2e-test:
	$(GO) -C cmd/tdpipe-bench test ./...

# Non-test Go lines (comments and blank lines included) per package,
# the count each change reports as its line-count delta.
sloc:
	@$(GO) list -f '{{$$d := .Dir}}{{.ImportPath}}{{range .GoFiles}} {{$$d}}/{{.}}{{end}}' ./... | \
	while read -r pkg files; do \
		[ -n "$$files" ] && printf '%6d  %s\n' "$$(cat $$files | wc -l)" "$$pkg"; \
	done; true

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzGenerateSplitInvariants -fuzztime=$(FUZZTIME) ./internal/workload/

# Smoke-run the disaggregated serving sweep and the fault-injection
# study at tiny scale through the real CLI: exercises the whole
# hand-off path (prefill pool -> KV export -> modeled transfer ->
# import -> continuous-batching decode) and the crash/recovery path
# (seeded fault plan -> abort -> re-dispatch/checkpoint resume ->
# conservation) so neither -exp surface can rot unnoticed. The second
# run repeats both experiments with the parallel fabric's worker pool
# forced on (-workers 4), exercising the sharded epoch scheduler
# through the same CLI surface.
smoke:
	$(GO) run ./cmd/tdpipe -exp disagg,faults -requests 250 -pool 2000
	$(GO) run ./cmd/tdpipe -exp disagg,faults -requests 250 -pool 2000 -workers 4
	$(GO) run ./cmd/tdpipe -exp autoscale -requests 250 -pool 2000 -workers 4

ci: build vet lint-docs test race chaos smoke
