#!/usr/bin/env bash
# Builds the step-loop benchmark from the source tree it sits in and runs
# it with the given arguments. Run from the repository root:
#
#   bash stepbench/run.sh --workload paper-loop --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the toolchain's own configuration and
# telemetry (under XDG_CONFIG_HOME) and the run's data directories all go
# under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd "$root/stepbench" && go build -o "$build/stepbench" .) >&2
exec "$build/stepbench" --work "$build" --src "$root" "$@"
