#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the repository root:
#   bash splitbench/run.sh --workload table-sweep --seed 1 --seconds 15 --trace 0
# Everything the build writes (binary, Go build cache, temporary files,
# Go's config directory) stays under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout. The binary
# is exec'ed, so the measured process is this process: stopping it stops
# the benchmark.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
out="$(cd "$out" && pwd)"
(
	cd splitbench
	GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS= \
		go build -o "$out/splitbench" .
)
exec "$out/splitbench" --workdir "$out" "$@"
