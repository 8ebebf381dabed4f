# CI and humans invoke the same targets (.github/workflows/ci.yml runs
# exactly these). Two are too long for CI and are run by hand:
# `make benchmark` (the repository benchmark, ≈100 s) and `make soak`
# (ten minutes of checkpointed traffic asserting the retained log and
# the post-GC heap stay flat — the tier-1 run of the same test lasts
# two seconds).

GO ?= go

# The diagnostic sweeps' JSON stays out of the checkout; CI uploads
# this directory as an artifact. Nothing reads it back: numbers are
# gated by `make benchmark` (-compare), invariants by `go test`.
BENCH_DIR ?= $(if $(RUNNER_TEMP),$(RUNNER_TEMP),/tmp)/logrec-bench

# The file-device benchmark needs a real directory to put its page file
# and WAL in; tmpfs when the host has one (CI smoke: small log, no disk
# wear, no noisy-neighbour IO), /tmp otherwise.
FILEDEV_DIR ?= $(shell test -d /dev/shm && echo /dev/shm/logrec-filedev || echo /tmp/logrec-filedev)

.PHONY: build test race fuzz-smoke soak examples doclint figures figures-update benchmark benchmark-test bench bench-check bench-smoke staticcheck fmt fmt-check vet ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz pass over the WAL codec, the restart path, the shipping
# path, the page format, the row codec and the boot records: adversarial
# bytes and torn tails must never panic the decoder and what decodes
# must re-encode to the same bytes, a log directory whose last segment
# file is arbitrary bytes must open trimmed or not at all, a standby fed
# arbitrary bytes in two pieces must ingest only frames that decode, page
# operations on an arbitrary valid image must keep it valid without
# writing the shared bytes it started from, a row the schema decodes
# must encode back to its bytes, and so must a master record or boot
# page a restart accepts. CI runs this; `go test -fuzz` without
# -fuzztime runs a target open-ended for real fuzzing sessions.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeAt -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzOpenLogDir -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzAppendStableSplit -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzPageOps -fuzztime 10s ./internal/page
	$(GO) test -run '^$$' -fuzz FuzzSchemaDecode -fuzztime 10s ./internal/exec
	$(GO) test -run '^$$' -fuzz FuzzBootRecords -fuzztime 10s ./internal/engine

# The bounded-log soak: sustained single-writer traffic with a
# checkpoint every few thousand records for ten minutes; fails if the
# retained log outgrows the redo window plus two segments at any
# checkpoint or the post-GC heap grows over the second half.
soak:
	$(GO) test -run TestLogStaysBoundedUnderSustainedTraffic -timeout 20m -v ./internal/harness -args -soak

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

# The paper's figures, pinned. redobench runs in virtual time, so its
# output is byte-identical across runs and GOMAXPROCS: any difference
# is a change to a reproduced figure. `figures` diffs a fresh run
# against the committed copy (≈10 s); `figures-update` rewrites the copy
# after a change that is meant to move a figure.
FIGURES := cmd/redobench/testdata/fig_all.txt

figures: | $(BENCH_DIR)
	$(GO) run ./cmd/redobench -fig all -quiet > $(BENCH_DIR)/fig_all.txt
	diff -u $(FIGURES) $(BENCH_DIR)/fig_all.txt

figures-update: | $(BENCH_DIR)
	$(GO) run ./cmd/redobench -fig all -quiet > $(BENCH_DIR)/fig_all.txt
	cp $(BENCH_DIR)/fig_all.txt $(FIGURES)

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

# The two diagnostic sweep drivers over the dimensions benchmark/ has no
# workload for yet: client count and the file device on the write path
# (walbench); redo/undo width, shard count, the file device and the
# recovery budget on the recovery path (recoverybench). Ungated — they
# print tables and leave JSON in BENCH_DIR. Then the Go bench cases
# once each.
bench: | $(BENCH_DIR)
	$(GO) run ./cmd/walbench -out $(BENCH_DIR)/BENCH_wal.json
	$(GO) run ./cmd/walbench -device=file -dir $(FILEDEV_DIR)-wal -flushdelay 0 \
		-out $(BENCH_DIR)/BENCH_wal_file.json
	$(GO) run ./cmd/recoverybench -out $(BENCH_DIR)/BENCH_recovery.json
	$(GO) run ./cmd/recoverybench -device=file -dir $(FILEDEV_DIR) \
		-out $(BENCH_DIR)/BENCH_recovery_file.json
	$(GO) run ./cmd/recoverybench -shards 1,2,4,8 \
		-out $(BENCH_DIR)/BENCH_recovery_shards.json
	$(GO) run ./cmd/recoverybench -budget 75ms,250ms \
		-dir $(FILEDEV_DIR)-slo -out $(BENCH_DIR)/BENCH_recovery_slo.json
	$(GO) test -run '^$$' -bench WALGroupCommit -benchtime 300x .
	$(GO) test -run '^$$' -bench SessionCommit -benchtime 20000x .
	$(GO) test -run '^$$' -bench EngineLoad -benchtime 1x .
	$(GO) test -run '^$$' -bench ScanLog ./internal/wal
	$(GO) test -run '^$$' -bench Replay ./internal/replica

# Every Go benchmark function once (≈15 s on two cores), timings
# ignored: CI runs this so a benchmark whose fixture the code now
# refuses fails here, not only in a manual `make bench`.
bench-check:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The same sweeps at -quick: CI runs this so the drivers cannot rot.
# Passing means every command exited 0. The file-device legs run
# against real files (tmpfs-backed in CI, see FILEDEV_DIR).
bench-smoke: | $(BENCH_DIR)
	$(GO) run ./cmd/walbench -quick -out $(BENCH_DIR)/BENCH_wal.json
	$(GO) run ./cmd/walbench -quick -device=file -dir $(FILEDEV_DIR)-wal -flushdelay 0 \
		-out $(BENCH_DIR)/BENCH_wal_file.json
	$(GO) run ./cmd/recoverybench -quick -out $(BENCH_DIR)/BENCH_recovery.json
	$(GO) run ./cmd/recoverybench -quick -device=file -dir $(FILEDEV_DIR) \
		-out $(BENCH_DIR)/BENCH_recovery_file.json
	$(GO) run ./cmd/recoverybench -quick -shards 1,2,4,8 \
		-out $(BENCH_DIR)/BENCH_recovery_shards.json
	$(GO) run ./cmd/recoverybench -quick -budget 75ms \
		-dir $(FILEDEV_DIR)-slo -out $(BENCH_DIR)/BENCH_recovery_slo.json

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

# Everything CI gates, in one target. bench-smoke stays out: it is
# ungated (it passes on exit 0 and nothing reads its JSON), and ROADMAP
# item 7(b) deletes it with the sweep drivers it runs.
ci: build vet fmt-check staticcheck doclint test bench-check figures benchmark-test race examples fuzz-smoke
