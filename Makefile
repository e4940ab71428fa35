# Development entry points. Everything is stdlib-only; plain `go` suffices.

GO ?= go

# Per-benchmark time budget for `make bench` (passed to -benchtime when set;
# e.g. `make bench BENCHTIME=100ms` for a quick sweep, `BENCHTIME=5x` for
# iteration counts).
BENCHTIME ?=

# Perf-regression gate knobs (see perf-check). PERF_BASELINE is the committed
# trajectory point to compare against — BENCH_0007.json is a multi-record
# array (one record per GOMAXPROCS; lfrcperf selects the one matching the
# candidate). PERF_TOL is the relative tolerance; PERF_STRICT=1 turns a
# regression into a hard failure.
PERF_BASELINE ?= BENCH_0009.json
PERF_TOL ?= 0.25
PERF_STRICT ?= 0

.PHONY: all check build vet test check-race check-fault check-reclaim check-rc check-timeline check-census check-doctor race cover bench bench-smoke perf-baseline perf-check fuzz experiments stress explore examples clean

all: check

# The default gate: compile, vet, tests, and the race detector in one target.
# check-race runs first: it covers the packages with the trickiest
# concurrency (seqlock rings, the lifecycle ledger/auditor, the LFRC core)
# and fails fast before the full -race sweep. check-fault stresses every
# structure under deterministic fault injection with the lifecycle auditor
# armed. check-reclaim repeats that sweep across both reclamation backends.
# check-rc repeats it again across both reference-count strategies — the
# count protocol is safety, not policy, so every cell must pass unconditionally.
# check-timeline covers the telemetry ring (seqlock capture vs read) and the
# lfrctop render layer under the race detector.
# check-census covers the heap-census graph pass — including censuses taken
# while mutators run, which must be race-clean and strictly read-only.
# check-doctor covers the health watchdog's rule engine, bundle capture, and
# the chaos -> bundle -> lfrcdoctor offline-diagnosis loop on both backends.
# perf-check rides along as a soft gate (warn-only unless PERF_STRICT=1).
check: build vet test check-race check-fault check-reclaim check-rc check-timeline check-census check-doctor race perf-check

# Focused race gate over the concurrency-critical packages.
check-race:
	$(GO) test -race ./internal/obs ./internal/lifecycle ./internal/core ./internal/contend

# Fault-injection gate: the multi-seed chaos sweep and the degraded-mode /
# typed-error tests, under the race detector.
check-fault:
	$(GO) test -race -count=1 -run 'TestFault|TestDegraded|TestHeapExhaust|TestErr' .

# Cross-backend reclamation gate: the backend unit matrix (both backends share
# one suite in internal/reclaim) plus the system-level fault/chaos/auditor
# sweep parameterized over {lfrc, epoch}, 3 seeds each, under the race
# detector.
check-reclaim:
	$(GO) test -race -count=1 ./internal/reclaim
	$(GO) test -race -count=1 -run 'TestReclaim|TestReclamation' .

# Cross-strategy RC gate: the strategy unit matrix in internal/core (figure2
# vs split protocol equivalence, packing boundaries, refill/merge paths), the
# split boundary tests on both engines, and the system-level fault/chaos/
# auditor sweep over every {figure2, split} x {locking, mcas} x {lfrc, epoch}
# cell, 2 seeds each, under the race detector.
check-rc:
	$(GO) test -race -count=1 ./internal/core
	$(GO) test -race -count=1 -run 'TestRCStrategy|TestSplit' .

# Telemetry-timeline gate: the ring's concurrent capture-vs-read seqlock
# tests, the system-level timeline tests, and the lfrctop render/fetch tests.
check-timeline:
	$(GO) test -race -count=1 ./internal/timeline ./cmd/lfrctop
	$(GO) test -race -count=1 -run 'TestTimeline' .

# Heap-census gate: the graph/SCC unit suite with its audit and backup-
# collector passes, the cycle-leak acceptance scenario on both reclamation
# backends, the facade's Audit and Collect (limbo sparing, poisoned counts,
# uncapped violations), and censuses taken while mutator goroutines run —
# all under the race detector, which is what proves the census's read-only
# snapshot loads never race the engines.
check-census:
	$(GO) test -race -count=1 ./internal/census ./internal/pprofenc
	$(GO) test -race -count=1 -run 'TestCensus|TestDebugMux|TestAudit|TestCollect' .

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem -run='^$$' $(if $(BENCHTIME),-benchtime=$(BENCHTIME)) ./...

# One quick pass over the sharded-allocator benchmark (experiment A3), the
# observer-overhead benchmark (O1), the lifecycle-ledger benchmark (O2), the
# contention-observatory benchmark (O3), the timeline capture path (O4;
# the benchmark itself fails if a snapshot exceeds 1µs) and the watchdog's
# quiet path (O6; must stay allocation-free).
bench-smoke:
	$(GO) test -bench='BenchmarkAllocShards|BenchmarkObserverOverhead|BenchmarkLifecycleLedger|BenchmarkContention|BenchmarkTimelineCapture|BenchmarkWatchdogQuietPath' -benchtime=1x -run='^$$' .

# Record a new perf-trajectory point against which perf-check gates. Commit
# the refreshed $(PERF_BASELINE) when the change in performance is intended.
# NOTE: this writes a single record at the current GOMAXPROCS; multi-record
# baselines like BENCH_0007.json are assembled by running it once per proc
# count and wrapping the records in a JSON array.
perf-baseline:
	$(GO) run ./cmd/lfrcbench -bench-json $(PERF_BASELINE) -bench-runs 5 -dur 250ms

# Compare current performance against the committed baseline. Soft by
# default: a regression prints the lfrcperf table and a warning. Set
# PERF_STRICT=1 (CI on quiet hardware) to fail the build instead.
perf-check:
	@tmp=$$(mktemp /tmp/lfrc-bench-XXXXXX.json); \
	$(GO) run ./cmd/lfrcbench -bench-json $$tmp -bench-runs 5 -dur 250ms >/dev/null || exit 1; \
	if $(GO) run ./cmd/lfrcperf -old $(PERF_BASELINE) -new $$tmp -tol $(PERF_TOL); then \
		rm -f $$tmp; \
	else \
		status=$$?; rm -f $$tmp; \
		if [ "$(PERF_STRICT)" = "1" ]; then \
			echo "perf-check: FAILED (PERF_STRICT=1)"; exit $$status; \
		else \
			echo "perf-check: regression vs $(PERF_BASELINE) (warn-only; set PERF_STRICT=1 to enforce)"; \
		fi; \
	fi

# Watchdog / diagnostic-bundle gate. Three layers:
#   1. the rule-engine unit suite and the system-level watchdog/bundle tests
#      (capture-while-mutating runs under the race detector);
#   2. a planted epoch starvation (reclaim.epoch:p=1 pins the epoch, so limbo
#      grows with zero drains): the chaos run must FAIL, auto-capture a
#      bundle, and lfrcdoctor — offline, from the tarball alone — must reach
#      the limbo_stall verdict with exit 1;
#   3. a planted retry storm on the lfrc backend (core.load:p=0.85 forces the
#      paper's §5 retry window): the chaos run itself stays clean, the
#      explicitly requested bundle must carry the storm, and lfrcdoctor must
#      surface the retry_storm finding.
check-doctor:
	$(GO) test -count=1 ./internal/watchdog
	$(GO) test -race -count=1 -run 'TestWatchdog|TestBundle' .
	$(GO) test -count=1 ./cmd/lfrcdoctor
	@dir=$$(mktemp -d /tmp/lfrc-doctor-XXXXXX); \
	echo "check-doctor: epoch limbo starvation -> bundle -> lfrcdoctor"; \
	if $(GO) run ./cmd/lfrcbench -fault-plan 'reclaim.epoch:p=1' -reclaim epoch \
		-dur 500ms -workers 4 -destroy-budget 1 -bundle $$dir/epoch.tar.gz >$$dir/epoch.log 2>&1; then \
		echo "check-doctor: planted epoch starvation did not FAIL chaos"; cat $$dir/epoch.log; rm -rf $$dir; exit 1; \
	fi; \
	grep -q '^bundle=' $$dir/epoch.log || { echo "check-doctor: FAIL did not capture a bundle"; cat $$dir/epoch.log; rm -rf $$dir; exit 1; }; \
	if $(GO) run ./cmd/lfrcdoctor -json $$dir/epoch.tar.gz >$$dir/epoch.json 2>&1; then \
		echo "check-doctor: lfrcdoctor called the starved epoch bundle healthy"; cat $$dir/epoch.json; rm -rf $$dir; exit 1; \
	fi; \
	grep -q '"rule": "limbo_stall"' $$dir/epoch.json || { echo "check-doctor: no limbo_stall verdict"; cat $$dir/epoch.json; rm -rf $$dir; exit 1; }; \
	grep -q '"reclaimer": "epoch"' $$dir/epoch.json || { echo "check-doctor: wrong backend in verdict"; cat $$dir/epoch.json; rm -rf $$dir; exit 1; }; \
	echo "check-doctor: lfrc retry storm -> bundle -> lfrcdoctor"; \
	$(GO) run ./cmd/lfrcbench -fault-plan 'core.load:p=0.85' -reclaim lfrc \
		-dur 500ms -workers 4 -bundle $$dir/lfrc.tar.gz >$$dir/lfrc.log 2>&1 || { echo "check-doctor: retry-storm chaos run failed"; cat $$dir/lfrc.log; rm -rf $$dir; exit 1; }; \
	$(GO) run ./cmd/lfrcdoctor -json $$dir/lfrc.tar.gz >$$dir/lfrc.json 2>&1; \
	grep -q '"rule": "retry_storm"' $$dir/lfrc.json || { echo "check-doctor: no retry_storm finding"; cat $$dir/lfrc.json; rm -rf $$dir; exit 1; }; \
	grep -q '"reclaimer": "lfrc"' $$dir/lfrc.json || { echo "check-doctor: wrong backend in verdict"; cat $$dir/lfrc.json; rm -rf $$dir; exit 1; }; \
	rm -rf $$dir; echo "check-doctor: PASS"

# Short fuzzing burst per fuzzer (seed corpora always run under `make test`).
fuzz:
	$(GO) test -fuzz=FuzzDequeModel -fuzztime=30s ./internal/snark/
	$(GO) test -fuzz=FuzzSetModel -fuzztime=30s ./internal/dlist/
	$(GO) test -fuzz=FuzzEnginesAgree -fuzztime=30s ./internal/dcas/

# Reproduce every experiment table in EXPERIMENTS.md.
experiments:
	$(GO) run ./cmd/lfrcbench -engine both -scale 2 -dur 300ms -workers 1,2,4,8

stress:
	$(GO) run ./cmd/snarkstress -dur 30s

# Deep schedule-space hunt (historical Snark races, LFRC safety).
explore:
	$(GO) run ./cmd/lfrcexplore -preemptions 4 -maxruns 200000

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/workstealing
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/memshrink
	$(GO) run ./examples/membership

clean:
	$(GO) clean -testcache
