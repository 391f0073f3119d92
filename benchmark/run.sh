#!/bin/bash
# Builds the harness and cmd/queryserver from source into .bench_build/ at the
# root of the checkout, then runs the harness from that root with the
# arguments given. Everything the Go toolchain writes (build cache, module
# cache, telemetry) is kept inside .bench_build/ too.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local # no settings from, and no downloads to, the user's home
(cd benchmark && go build -o "$build/benchmark" .)
go build -o "$build/queryserver" ./cmd/queryserver
exec "$build/benchmark" -queryserver "$build/queryserver" "$@"
