# CI and humans invoke the same targets (.github/workflows/ci.yml runs
# exactly these). Two are too long for CI and are run by hand:
# `make benchmark` (the repository benchmark, ≈100 s) and `make soak`
# (ten minutes of checkpointed traffic asserting the retained log and
# the post-GC heap stay flat — the tier-1 run of the same test lasts
# two seconds).

GO ?= go

# Bench output stays out of the checkout (it used to dirty the tree in
# CI); the regression gate reads from here and CI uploads it as an
# artifact. Override BENCH_DIR to redirect, TOLERANCE to loosen/tighten
# the gate.
BENCH_DIR ?= $(if $(RUNNER_TEMP),$(RUNNER_TEMP),/tmp)/logrec-bench
TOLERANCE ?= 0.30

# The file-device benchmark needs a real directory to put its page file
# and WAL in; tmpfs when the host has one (CI smoke: small log, no disk
# wear, no noisy-neighbour IO), /tmp otherwise.
FILEDEV_DIR ?= $(shell test -d /dev/shm && echo /dev/shm/logrec-filedev || echo /tmp/logrec-filedev)

.PHONY: build test race fuzz-smoke soak examples doclint benchmark benchmark-test bench bench-smoke bench-gate bench-baseline workload-smoke staticcheck fmt fmt-check vet ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz pass over the WAL codec and the restart path: adversarial
# bytes and torn tails must never panic the decoder, and a log directory
# whose last segment file is arbitrary bytes must open trimmed or not at
# all. CI runs this; `go test -fuzz` without -fuzztime runs a target
# open-ended for real fuzzing sessions.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeAt -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzOpenLogDir -fuzztime 10s ./internal/wal

# The bounded-log soak: sustained single-writer traffic with a
# checkpoint every few thousand records for ten minutes; fails if the
# retained log outgrows the redo window plus two segments at any
# checkpoint or the post-GC heap grows over the second half.
soak:
	$(GO) test -run TestLogStaysBoundedUnderSustainedTraffic -soak -timeout 20m -v ./internal/harness

# Build and run every example program, so the documented entry points
# cannot rot silently.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/banking
	$(GO) run ./examples/replica
	$(GO) run ./examples/sidebyside

# Documentation lint: every package needs a godoc comment and every
# Config/Options knob field needs a doc comment (see cmd/doclint).
doclint:
	$(GO) run ./cmd/doclint internal cmd examples

# benchmark/ is a module of its own (BENCHMARK.json's contract), so
# `go build ./... && go test ./...` at the root never compiles it:
# benchmark-test is how an internal/ API change that breaks it fails CI
# (vet, BENCHMARK.json == spec.go, all three workloads at -scale 100);
# benchmark builds and runs the real thing (≈100 s, see
# benchmark/README.md).
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

benchmark:
	bash benchmark/run.sh

$(BENCH_DIR):
	mkdir -p $(BENCH_DIR)

# Full write-path + recovery sweeps (simulated and file device), the
# fsync-amortization curve on a real log device, the cross-shard
# recovery sweep, the recovery-SLO run (budget-mode checkpointing on
# both devices), then the Go bench cases once each.
bench: | $(BENCH_DIR)
	$(GO) run ./cmd/walbench -out $(BENCH_DIR)/BENCH_wal.json
	$(GO) run ./cmd/walbench -device=file -dir $(FILEDEV_DIR)-wal -flushdelay 0 \
		-out $(BENCH_DIR)/BENCH_wal_file.json
	$(GO) run ./cmd/walbench -shards 1,2,4,8 -out $(BENCH_DIR)/BENCH_wal_shards.json
	$(GO) run ./cmd/recoverybench -out $(BENCH_DIR)/BENCH_recovery.json
	$(GO) run ./cmd/recoverybench -device=file -dir $(FILEDEV_DIR) \
		-out $(BENCH_DIR)/BENCH_recovery_file.json
	$(GO) run ./cmd/recoverybench -shards 1,2,4,8 \
		-out $(BENCH_DIR)/BENCH_recovery_shards.json
	$(GO) run ./cmd/recoverybench -budget 75ms,250ms \
		-dir $(FILEDEV_DIR)-slo -out $(BENCH_DIR)/BENCH_recovery_slo.json
	$(GO) run ./cmd/walbench -workload mixed -out $(BENCH_DIR)/BENCH_workload.json
	$(GO) run ./cmd/walbench -workload b -poolpolicy 2q \
		-out $(BENCH_DIR)/BENCH_workload_b.json
	$(GO) run ./cmd/poolbench -out $(BENCH_DIR)/BENCH_pool.json
	$(GO) run ./cmd/replicabench -out $(BENCH_DIR)/BENCH_replica.json
	$(GO) test -run '^$$' -bench WALGroupCommit -benchtime 300x .

# Short smoke sweeps for CI artifact upload and the regression gate.
# The file-device leg runs the same pipeline against real files
# (tmpfs-backed in CI, see FILEDEV_DIR).
bench-smoke: | $(BENCH_DIR)
	$(GO) run ./cmd/walbench -quick -out $(BENCH_DIR)/BENCH_wal.json
	$(GO) run ./cmd/walbench -quick -shards 1,2,4,8 -out $(BENCH_DIR)/BENCH_wal_shards.json
	$(GO) run ./cmd/recoverybench -quick -out $(BENCH_DIR)/BENCH_recovery.json
	$(GO) run ./cmd/recoverybench -device=file -quick -dir $(FILEDEV_DIR) \
		-out $(BENCH_DIR)/BENCH_recovery_file.json
	$(GO) run ./cmd/recoverybench -quick -shards 1,2,4,8 \
		-out $(BENCH_DIR)/BENCH_recovery_shards.json
	$(GO) run ./cmd/recoverybench -quick -budget 75ms \
		-dir $(FILEDEV_DIR)-slo -out $(BENCH_DIR)/BENCH_recovery_slo.json
	$(GO) run ./cmd/walbench -workload mixed -quick -out $(BENCH_DIR)/BENCH_workload.json
	$(GO) run ./cmd/walbench -workload b -quick -poolpolicy 2q \
		-out $(BENCH_DIR)/BENCH_workload_b.json
	$(GO) run ./cmd/poolbench -quick -out $(BENCH_DIR)/BENCH_pool.json
	$(GO) run ./cmd/replicabench -quick -out $(BENCH_DIR)/BENCH_replica.json

# Tiny zipfian mixed run through the typed executor on the simulated
# device, then the workload gate: op-mix coverage, nonzero scan rows,
# the crash-recovery typed digest, and the pushdown decode win (the
# driver itself asserts the first three; benchdiff re-checks them plus
# throughput against the baseline).
workload-smoke: | $(BENCH_DIR)
	$(GO) run ./cmd/walbench -workload mixed -quick -out $(BENCH_DIR)/BENCH_workload.json
	$(GO) run ./cmd/benchdiff -kind workload -tolerance $(TOLERANCE) \
		-baseline ci/baselines/BENCH_workload.json -current $(BENCH_DIR)/BENCH_workload.json

# Regression gate: compare fresh smoke numbers against the checked-in
# baselines. Fails on a >TOLERANCE walbench throughput drop, a parallel
# redo speedup collapse, a redo-window drift past TOLERANCE, or a
# file-device run that silently stopped doing real work (see
# cmd/benchdiff for what each kind checks).
bench-gate: bench-smoke
	$(GO) run ./cmd/benchdiff -kind wal -tolerance $(TOLERANCE) \
		-baseline ci/baselines/BENCH_wal.json -current $(BENCH_DIR)/BENCH_wal.json
	$(GO) run ./cmd/benchdiff -kind wal-shards -tolerance $(TOLERANCE) \
		-baseline ci/baselines/BENCH_wal_shards.json -current $(BENCH_DIR)/BENCH_wal_shards.json
	$(GO) run ./cmd/benchdiff -kind recovery -tolerance $(TOLERANCE) \
		-baseline ci/baselines/BENCH_recovery.json -current $(BENCH_DIR)/BENCH_recovery.json
	$(GO) run ./cmd/benchdiff -kind recovery-file -tolerance $(TOLERANCE) \
		-baseline ci/baselines/BENCH_recovery_file.json -current $(BENCH_DIR)/BENCH_recovery_file.json
	$(GO) run ./cmd/benchdiff -kind recovery-shards -tolerance $(TOLERANCE) \
		-baseline ci/baselines/BENCH_recovery_shards.json -current $(BENCH_DIR)/BENCH_recovery_shards.json
	$(GO) run ./cmd/benchdiff -kind recovery-slo -tolerance $(TOLERANCE) \
		-baseline ci/baselines/BENCH_recovery_slo.json -current $(BENCH_DIR)/BENCH_recovery_slo.json
	$(GO) run ./cmd/benchdiff -kind workload -tolerance $(TOLERANCE) \
		-baseline ci/baselines/BENCH_workload.json -current $(BENCH_DIR)/BENCH_workload.json
	$(GO) run ./cmd/benchdiff -kind workload -tolerance $(TOLERANCE) \
		-baseline ci/baselines/BENCH_workload_b.json -current $(BENCH_DIR)/BENCH_workload_b.json
	$(GO) run ./cmd/benchdiff -kind pool -tolerance $(TOLERANCE) \
		-baseline ci/baselines/BENCH_pool.json -current $(BENCH_DIR)/BENCH_pool.json
	$(GO) run ./cmd/benchdiff -kind replica \
		-baseline ci/baselines/BENCH_replica.json -current $(BENCH_DIR)/BENCH_replica.json

# Refresh the checked-in baselines after an intentional perf change.
bench-baseline: bench-smoke
	cp $(BENCH_DIR)/BENCH_wal.json ci/baselines/BENCH_wal.json
	cp $(BENCH_DIR)/BENCH_wal_shards.json ci/baselines/BENCH_wal_shards.json
	cp $(BENCH_DIR)/BENCH_recovery.json ci/baselines/BENCH_recovery.json
	cp $(BENCH_DIR)/BENCH_recovery_file.json ci/baselines/BENCH_recovery_file.json
	cp $(BENCH_DIR)/BENCH_recovery_shards.json ci/baselines/BENCH_recovery_shards.json
	cp $(BENCH_DIR)/BENCH_recovery_slo.json ci/baselines/BENCH_recovery_slo.json
	cp $(BENCH_DIR)/BENCH_workload.json ci/baselines/BENCH_workload.json
	cp $(BENCH_DIR)/BENCH_workload_b.json ci/baselines/BENCH_workload_b.json
	cp $(BENCH_DIR)/BENCH_pool.json ci/baselines/BENCH_pool.json
	cp $(BENCH_DIR)/BENCH_replica.json ci/baselines/BENCH_replica.json

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI installs it — see .github/workflows/ci.yml)"; \
	fi

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

ci: build vet fmt-check staticcheck doclint test benchmark-test race
