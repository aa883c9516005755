#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json "command"):
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds gsload from this checkout into .bench_build/ and becomes it.
# Everything the build and the run write stays under the checkout: the Go
# build cache, the toolchain's own files and the throw-away databases all
# live in .bench_build/. There is no second process: the script ends in
# exec, so a signal sent to it reaches gsload, whose every exit path tears
# its server, connections, database and temp directory down.
set -euo pipefail

cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export TMPDIR="$build/tmp" HOME="$build/home"
export XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off

go build -o "$build/gsload" ./benchmark
exec "$build/gsload" "$@"
