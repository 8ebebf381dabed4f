# CI and humans invoke the same targets (.github/workflows/ci.yml runs
# exactly these). Two are too long for CI and are run by hand:
# `make benchmark` (the repository benchmark, ≈100 s) and `make soak`
# (ten minutes of checkpointed traffic asserting the retained log and
# the post-GC heap stay flat — the tier-1 run of the same test lasts
# two seconds).

GO ?= go

# Scratch output of `make figures`, outside the checkout.
BENCH_DIR ?= $(if $(RUNNER_TEMP),$(RUNNER_TEMP),/tmp)/logrec-bench

.PHONY: build test test-1proc race fuzz-smoke soak examples doclint figures figures-update benchmark benchmark-test bench bench-check staticcheck fmt fmt-check vet ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The log's decode width follows GOMAXPROCS for every scan of two or
# more segments (one worker per core); this runs the packages that scan
# at one worker, which a multi-core runner never does otherwise. It runs
# the engine too: at one core the bulk load's two stages (the caller's
# rows, the loader goroutine's tree build) interleave instead of
# overlapping. -count=1: the test cache does not key on GOMAXPROCS.
test-1proc:
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/wal ./internal/core ./internal/harness ./internal/engine

# Every miss read and flush write in the buffer pool waits on one
# condition variable, and a lost wakeup shows only as a hang: the pool's
# stress test and its concurrent-miss and concurrent-flush tests run ten
# times over. Routed redo's and undo's worker and barrier interleavings
# vary from run to run: their tests run five times over, and so do the
# engine's bulk-load tests, whose rows pass from the caller to a loader
# goroutine (the DC's loader runs on one goroutine: its tests run under
# -race once, in the first line).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestPoolStressRace|TestConcurrent' ./internal/buffer
	$(GO) test -race -count=5 -run 'TestParallelRedo|TestParallelUndo|TestBarrierShardScope' ./internal/core
	$(GO) test -race -count=5 -run 'Load' ./internal/engine

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
# Config/Options knob field needs a doc comment; and every exported
# function, method, interface method and constant under internal/ needs
# a non-test caller in this module or benchmark/, or a line with its
# reason in cmd/doclint/allowlist.txt (see cmd/doclint).
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

# The diagnostic sweeps, ungated: each prints its table through
# `go test -bench`. Client count × device on the write path
# (WALGroupCommit; file/ runs on real files under the test's temp
# directory); redo width, undo width, shard count, device and the
# recovery budget on the recovery path (internal/core's Recover).
# Numbers are gated by `make benchmark` (-compare), invariants by go test.
bench:
	$(GO) test -run '^$$' -bench WALGroupCommit -benchtime 300x .
	$(GO) test -run '^$$' -bench SessionCommit -benchtime 20000x .
	$(GO) test -run '^$$' -bench EngineLoad -benchtime 1x .
	$(GO) test -run '^$$' -bench Recover -benchtime 20x ./internal/core
	$(GO) test -run '^$$' -bench ScanLog ./internal/wal
	$(GO) test -run '^$$' -bench Replay ./internal/replica

# Every Go benchmark function once (≈15 s on two cores), timings
# ignored: CI runs this so a benchmark whose fixture the code now
# refuses, or whose recovery misses the oracle, fails here, not only in
# a manual `make bench`.
bench-check:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

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

# Everything CI gates, in one target.
ci: build vet fmt-check staticcheck doclint test test-1proc bench-check figures benchmark-test race examples fuzz-smoke
