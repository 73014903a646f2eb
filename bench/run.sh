#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (compiler cache
# included, so nothing is written outside the checkout) and runs it with
# the arguments given. Run from the repository root:
#
#   bash bench/run.sh --workload local-read --seed 1 --seconds 15 --trace 0
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
# The nested module replaces the root module with "../": without the
# repository around it there is nothing to build, and this fails.
(cd "$here" && go build -o "$out/datacase-bench" .)
exec "$out/datacase-bench" "$@"
