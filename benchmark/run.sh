#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given. Everything the go tool writes — build cache, temporary
# files, telemetry — is kept under .bench_build in the checkout, and
# nothing is fetched: the module has no dependency outside the repository.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$build/logrec-benchmark" .)
exec "$build/logrec-benchmark" "$@"
