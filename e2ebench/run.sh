#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash e2ebench/run.sh --workload outofcore-zipf --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, spill files and span dumps all go
# under $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" \
  XDG_CONFIG_HOME="$out/home/.config" GOENV=off GOFLAGS= GOWORK=off \
  GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --outdir "$out" "$@"
