# Development entry points for rcuda-go. Everything is stdlib-only Go; no
# external tools are required beyond the toolchain.

GO ?= go

.PHONY: all build test race verify lint vet chaos migrate-chaos soak bench bench-batch bench-scale bench-sched bench-check fuzz pool repro figures experiments clean help

all: build test

help:
	@echo "Targets:"
	@echo "  build        compile and vet everything"
	@echo "  test         run all tests"
	@echo "  race         run all tests under the race detector"
	@echo "  verify       tier-1 gate: build + test + race on data path + chaos suite"
	@echo "  lint         go vet + rcuda-vet invariant analyzers + gofmt diff check"
	@echo "  vet          rcuda-vet only: seededrand/wiremsg/locknet/errcode invariants"
	@echo "  chaos        fault-injection suite (scripted + 50 seeded plans) under -race"
	@echo "  migrate-chaos  live-migration suite: source killed at every protocol phase, under -race"
	@echo "  soak         10k mixed ops at ~1% fault rate, leak-checked, under -race"
	@echo "  bench        run all benchmarks"
	@echo "  bench-batch  rcuda-bench batch suite: refresh BENCH_batching.json"
	@echo "  bench-scale  rcuda-bench scale suite (10^4-10^5 sessions): refresh BENCH_loadscale.json"
	@echo "  bench-sched  rcuda-bench sched suite (WFQ vs FIFO): refresh BENCH_sched.json"
	@echo "  bench-check  CI freshness check of all three BENCH_*.json files (scale capped at 10^4)"
	@echo "  fuzz         fuzz every wire-protocol Fuzz* target for FUZZTIME each (default 30s)"
	@echo "  pool         broker demo: 3 local daemons, one killed mid-batch"
	@echo "  repro        regenerate every table and figure of the paper on stdout"
	@echo "  figures      render the figures as SVGs under figs/"
	@echo "  experiments  refresh EXPERIMENTS.md"
	@echo "  clean        remove figs/ and the test cache"

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

# Lint: go vet, the repo's own invariant analyzers, and a gofmt
# cleanliness check (stdlib tooling only).
lint: vet
	$(GO) vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi

# rcuda-vet: the custom static-analysis suite (DESIGN.md section 13).
# Nonzero exit on any determinism, wire-protocol, or lock-discipline
# violation; there is no suppression mechanism — fix the code.
vet:
	$(GO) run ./cmd/rcuda-vet ./...

# Tier-1 verification: full build + tests, the invariant analyzers, the
# concurrent data-path packages (transport framing, middleware streaming +
# batching, pool broker + its autoscaler, the scale harness, the full-stack
# workloads) under the race detector, and the deterministic fault-injection
# suite.
verify: build test vet chaos
	$(GO) test -race ./internal/transport/... ./internal/rcuda/... ./internal/broker/... ./internal/sched/... ./internal/loadgen/... ./internal/workload/...

# Chaos suite: every fault kind's transport semantics, the retry policy, and
# the MM/FFT case studies under scripted and 50 consecutive seeded fault
# plans — results must be bit-exact after recovery. -count=1 defeats the
# test cache so the seeds actually rerun.
chaos:
	$(GO) test -race -count=1 \
		-run 'Chaos|Faulty|Fault|Retry|Truncat|Reattach|Session|Plan|KeepFor' \
		./internal/transport/... ./internal/rcuda/... ./internal/faults/...

# Migration chaos: checkpoint round-trips, the daemon-to-daemon transfer,
# a source-daemon kill swept across every phase boundary of the migration
# dialogue, standby-checkpoint failover, and scale-down drain-by-migration —
# all under -race, bit-exact results asserted after every recovery.
migrate-chaos:
	$(GO) test -race -count=1 \
		-run 'Migrat|Standby|Checkpoint|RestoreState|ContextState' \
		./internal/rcuda/... ./internal/broker/... ./internal/loadgen/... \
		./internal/protocol/... ./internal/gpu/...

# Soak: 10k mixed operations through a ~1% seeded fault rate, then a
# goroutine-leak check. Skipped by -short runs; takes ~10-30s under -race.
soak:
	$(GO) test -race -count=1 -run 'Soak' -timeout 10m ./internal/rcuda/

bench:
	$(GO) test -bench=. -benchmem ./...

# Deterministic virtual-clock trajectories, one rcuda-bench suite each (see
# cmd/rcuda-bench): the batched-path DNN inference loop, the 10^4-10^5
# session scale harness, and the WFQ-vs-FIFO starvation bench. Every suite
# enforces its gates before writing; commit the refreshed BENCH_*.json so
# drift shows up in review.
bench-batch:
	$(GO) run ./cmd/rcuda-bench -suite batch

bench-scale:
	$(GO) run ./cmd/rcuda-bench -suite scale

bench-sched:
	$(GO) run ./cmd/rcuda-bench -suite sched

# CI freshness check: re-run every suite (scale scenarios over 10^4
# sessions are presence-checked only) and fail if a committed file is
# stale or a gate breaks.
bench-check:
	$(GO) run ./cmd/rcuda-bench -check

# Fuzz every Fuzz* target of the wire-protocol package, one anchored run
# each, for FUZZTIME apiece (make fuzz FUZZTIME=120s for a long pass).
FUZZTIME ?= 30s
fuzz:
	@set -e; for t in $$($(GO) test -list '^Fuzz' ./internal/protocol/ | grep '^Fuzz'); do \
		echo "fuzz $$t for $(FUZZTIME)"; \
		$(GO) test -fuzz "^$$t\$$" -fuzztime=$(FUZZTIME) ./internal/protocol/; \
	done

# Broker demo: spawn three local daemons, run a verified MM/FFT batch through
# the pool, and kill one server mid-job to show failover with clean results.
pool:
	$(GO) run ./cmd/rcuda-broker -spawn 3 -kill -jobs 9

# Regenerate every table and figure of the paper on stdout.
repro:
	$(GO) run ./cmd/rcuda-repro -all

# Render the figures as SVG files under figs/.
figures:
	$(GO) run ./cmd/rcuda-repro -svg figs

# Refresh the paper-vs-reproduction comparison document.
experiments:
	$(GO) run ./cmd/rcuda-repro -experiments > EXPERIMENTS.md

clean:
	rm -rf figs
	$(GO) clean -testcache
