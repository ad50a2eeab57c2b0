# Tier-1 verify is `make ci` (build + vet + test + race + chaos +
# smoke + the benchmark harness's own tests).

GO ?= go
# Shorten in CI's fuzz job (make fuzz FUZZTIME=15s).
FUZZTIME ?= 30s
# Suffix for the benchmark snapshot (CI passes the run number so
# artifacts accumulate into a perf trajectory).
BENCH_N ?= local

.PHONY: build vet fmt-check detlint test race chaos bench bench-json bench-compare bench-e2e bench-e2e-test fuzz smoke golden sloc ci

build:
	$(GO) build ./...

vet: fmt-check detlint
	$(GO) vet ./...

# Determinism & hot-path lint: cmd/detlint type-checks every package
# (stdlib source importer, no external linter) and enforces the
# simulator's invariants at compile time — no wall clock or global
# math/rand in simulation packages, no goroutines/select outside the
# parallel fabric, no order-sensitive map iteration, no allocations in
# //det:hotpath functions — plus the doc gate: every exported
# identifier (facade, internal packages, commands) carries a godoc
# comment. Suppressions are audited //det:ignore directives with
# mandatory reasons. Any finding exits 1.
detlint:
	$(GO) run ./cmd/detlint .

# Fail on any file gofmt would rewrite.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test ./...

# The fabric advances every replica on the coordinator; its worker
# goroutines (fabric.forEach) run only per-replica work that no control
# event separates: every run's engine build and finalize and every
# fleet's replicas after the last control event (their finish hooks
# then write only per-replica slots, no shared state). Race-check the
# fleet together with the engine it drives (TestConcurrentFleetsRace
# also runs whole fleets side by side). The second leg re-runs, uncached,
# the fabric's determinism suite under the detector, whose tests force
# the worker pool on by setting GOMAXPROCS (multi-worker online, prefix
# and fault runs, closed-loop runs through TestParallelRouterGolden, the
# cross-shard-boundary property, and forEach's own split). Those runs hand the replicas
# from the coordinator to the workers and back to build them, to run
# them to completion after the last control event and to finalize
# them. The suite's disagg legs advance entirely on the coordinator,
# since a split fleet always gets one worker. The leg also runs the
# lazy-advance check: lazy runs, with no layer and under policy stacks
# (breakers, the autoscaler, admission and retries, preemption),
# against the forced eager schedule at one and four workers, each
# finish held to the fabric's control instant. Their finish hooks feed
# the stack's breakers and autoscaler window from the workers in the
# tail.
race:
	$(GO) test -race ./internal/fleet/... ./internal/core/...
	$(GO) test -race -count=1 -run 'TestParallel|TestLazyPicksMatchEager' ./internal/fleet/
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/faults/

# Chaos harness: randomized-but-seeded correlated-failure plans swept
# across domain shapes, outage kinds and checkpoint cadences, served by
# the fleet router's fault layer on a colocated and a disaggregated
# fleet, and by the fault layer together with a full policy stack on a
# colocated fleet, at one and four workers (GOMAXPROCS 1 and 4, which
# size fleet.Serve's worker pool), asserting exactly-once
# conservation (finished + Faults.Dropped + Admission.Dropped = trace)
# and byte-identical reports run-to-run and across worker counts. TDPIPE_CHAOS_LONG=1 widens the seed set and
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
# The harness is a module of its own, so root `go build ./...` and
# `go test ./...` never compile it against the fleet shims it calls;
# bench-e2e-test (part of ci) builds and tests it.
bench-e2e:
	bash cmd/tdpipe-bench/run.sh --seconds 0

bench-e2e-test:
	$(GO) -C cmd/tdpipe-bench test ./...

# Non-test Go lines (comments and blank lines included) per package,
# the count each change reports as its line-count delta. The total is
# the root module's; cmd/tdpipe-bench is a module of its own, so its
# packages follow on labelled lines, with the total over both modules.
# `$(GO) list $(SLOC_PKGS)` prints "<lines>  <package>" per package.
SLOC_PKGS = -f '{{$$d := .Dir}}{{.ImportPath}}{{range .GoFiles}} {{$$d}}/{{.}}{{end}}' ./... | \
	while read -r pkg files; do \
		[ -n "$$files" ] && printf '%6d  %s\n' "$$(cat $$files | wc -l)" "$$pkg"; \
	done
sloc:
	@{ $(GO) list $(SLOC_PKGS); echo; $(GO) -C cmd/tdpipe-bench list $(SLOC_PKGS); } | \
	awk '/^$$/ { printf "%6d  total\n", n; bench = 1; next } \
		{ all += $$1 } !bench { print; n += $$1 } bench { print $$0 " (module of its own)" } \
		END { printf "%6d  total with cmd/tdpipe-bench\n", all }'

# Fuzz the workload generator's split invariants, then the prefix cache
# against its brute-force reference model (FuzzSharedPrefixModel), each
# for FUZZTIME. `go test -fuzz` takes one target per call.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzGenerateSplitInvariants -fuzztime=$(FUZZTIME) ./internal/workload/
	$(GO) test -run='^$$' -fuzz=FuzzSharedPrefixModel -fuzztime=$(FUZZTIME) ./internal/kvcache/

# Smoke-run the disaggregated serving sweep, the fault-injection and
# correlated-failure studies and the autoscaling frontier at tiny scale
# through the real CLI: exercises the whole hand-off path (prefill pool
# -> KV export -> modeled transfer -> import -> continuous-batching
# decode), the crash/recovery path (seeded fault plan -> abort ->
# re-dispatch/checkpoint resume -> conservation), rack/zone domain
# outages and the elastic replica lifecycle, so none of these -exp
# surfaces can rot unnoticed. fleet.Serve sizes a fleet's worker pool
# from GOMAXPROCS, so the run is repeated at GOMAXPROCS=1 (one worker
# per fleet) and fails unless its stdout equals the default run's,
# which it prints.
SMOKE_ARGS = -exp disagg,faults,chaos,autoscale -requests 250 -pool 2000
smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/tdpipe" ./cmd/tdpipe && \
	"$$dir/tdpipe" $(SMOKE_ARGS) > "$$dir/default" && \
	GOMAXPROCS=1 "$$dir/tdpipe" $(SMOKE_ARGS) > "$$dir/one" && \
	cat "$$dir/default" && \
	cmp "$$dir/default" "$$dir/one" && \
	echo "smoke: identical stdout at the default GOMAXPROCS and at GOMAXPROCS=1"

# Every byte-identity check in one target, the gate for a refactor that
# must keep every output byte: the golden suites (reports, digests,
# experiment tables, stage costs, training), the deep-queue byte
# identity, the lazy-against-eager pick check, then the smoke run at
# two GOMAXPROCS settings (diff its stdout against the parent commit's).
golden:
	$(GO) test -count=1 -run 'Golden|ByteIdentity|LazyPicksMatchEager' ./...
	$(MAKE) smoke

ci: build vet test race chaos smoke bench-e2e-test
