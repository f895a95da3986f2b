#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ in the checkout it is
# run from, then runs it with the arguments given:
#
#   bash benchmark/run.sh --workload cbo-200 --seed 1 --seconds 12 --trace 0
#
# Nothing is written outside the checkout. The build cache is in .bench_build/
# too, so the first build compiles the standard library (about 20 s); later
# ones are no-ops.
#
# The engine workloads write database files under .bench_build/run. On the
# sandbox's disk their timings drift by 15 to 30 % from one quarter of an hour
# to the next, so where the process may, it runs in a mount namespace of its
# own with a tmpfs mounted on that directory: the files keep their path inside
# the checkout, live in memory, and the mount is gone when the process ends.
# Where it may not, the files go to the disk; the output records which.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/run"
export GOCACHE="$build/gocache" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -buildvcs=false -o "$build/benchmark" .
if unshare -m --propagation private true 2>/dev/null; then
  exec unshare -m --propagation private bash -c \
    'mount -t tmpfs -o size=1g tmpfs "$1" 2>/dev/null || true; shift; exec "$@"' \
    _ "$build/run" "$build/benchmark" "$@"
fi
exec "$build/benchmark" "$@"
