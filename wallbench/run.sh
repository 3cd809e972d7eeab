#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs it. Run it from the
# root of a checkout:
#
#   bash wallbench/run.sh --workload suite-cold --seed 1 --seconds 30 --trace 0
#
# Everything it writes (Go build cache, binary, stores, span dumps) stays
# under .bench_build/wallbench in the checkout. Without the repository's
# own sources beside it the build fails and the script exits non-zero
# before printing any result.
set -euo pipefail

out="$(pwd)/.bench_build/wallbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go -C "$(dirname "$0")" build -o "$out/wallbench" .
exec "$out/wallbench" --work "$out" "$@"
