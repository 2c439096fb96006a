#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it: the entry point
# BENCHMARK.json names. Everything the build writes (compiler cache,
# binary) goes under .bench_build in the current directory, so nothing
# is read or written outside the checkout. Without the repository's
# sources around it the build fails, and so does this script. No VCS
# stamping: the checkout may sit inside a directory git refuses to read,
# which would fail the build; the program falls back to .git/HEAD.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local
go build -buildvcs=false -o "$out/ostm-bench" ./bench
exec "$out/ostm-bench" "$@"
