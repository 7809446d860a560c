#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload converge-2k --seed 1 --seconds 12 --trace 0
#   bash perfbench/run.sh steady
#
# Everything the build and the runs write stays under .bench_build/ at the
# repository root. See perfbench/README.md.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
