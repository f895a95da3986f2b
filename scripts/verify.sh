#!/usr/bin/env sh
# verify.sh — the repository's full verification gate.
#
# Runs, in order:
#   1. gofmt -l (repository must be gofmt-clean)
#   2. go build ./...
#   3. go vet ./...
#   4. go test ./...                 (includes the exhaustive crash-point
#                                     harness, golden-trace and error-path
#                                     regression suites)
#      then go vet + go test -C benchmark: the benchmark is a nested module
#      that `./...` at the root never compiles, so a change that breaks the
#      surface benchmark/adapter.go pins fails here, not in the pipeline
#   5. the vector math core's other configurations: mat, gp, meta and core
#      again under GODEBUG=cpu.fma=off (math.Exp takes its multiply-then-add
#      branch, mat.ExpTo must pick the matching kernel — which the ensemble's
#      point-wise kernel rows ride — and the pinned session digests must
#      still hold), the same four under -tags purego (the vector kernels
#      compiled out: every bit-parity table runs on the scalar loops — among
#      them the blocked factor grown panel by panel, InverseDiagTo against
#      the full inverse's diagonal, the pruned hyperparameter search
#      against the exhaustive one, and mat.CountPairs against the double
#      loop, with meta's ranking loss on the keyed merge alone), and
#      GOARCH=arm64 go vet of mat and gp, so the stubs in simd_other.go
#      cannot drift from the amd64 declarations
#   6. go test -race ./...           (short mode: the crash harness strides
#                                     its boundary enumeration under -short)
#   7. telemetry smoke runs: restune-tune -trace must emit a non-empty,
#      schema-valid JSONL artifact for ResTune and for the iTuned baseline
#      (whose core.iteration spans must carry its "ei" phase: baselines run
#      the same instrumented session loop), a 2-session restune-server fleet must
#      emit schema-valid per-session and fleet streams, and a drift-aware
#      restune-bench -timeline day must emit a trace whose core.iteration
#      spans carry drift/trust-region attrs
#   8. a staleness check of results_quick.txt (amd64 only, where its float
#      bits were recorded): restune-bench -all -iters 100 is regenerated and
#      diffed against the committed file, with the "(... completed in ...)"
#      wall-clock lines and the table3 block (stage timings) masked on both
#      sides
#   9. a fuzz smoke pass: every Fuzz target runs for FUZZTIME (default 30s),
#      FuzzPredictBatch included (the batched posterior vs the point-wise
#      one), FuzzSearchPruning (the pruned search vs the exhaustive one) and
#      FuzzCountPairs (the vector pair counter vs the double loop)
#
# Environment:
#   FUZZTIME=30s   per-target fuzz budget; set FUZZTIME=0 to skip fuzzing
#
# Any failure aborts with a nonzero exit.

set -eu

cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-30s}"

echo "==> gofmt -l"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files are not formatted:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go test ./..."
go test ./...

echo "==> go vet + go test -C benchmark ./... (nested module)"
go vet -C benchmark ./... && go test -C benchmark ./...

echo "==> GODEBUG=cpu.fma=off and -tags purego go test (mat, gp, meta, core) + GOARCH=arm64 go vet (mat, gp)"
GODEBUG=cpu.fma=off go test ./internal/mat ./internal/gp ./internal/meta ./internal/core
go test -tags purego ./internal/mat ./internal/gp ./internal/meta ./internal/core
GOARCH=arm64 go vet ./internal/mat ./internal/gp

echo "==> go test -race -short ./..."
go test -race -short ./...

echo "==> telemetry smoke (restune-tune -trace)"
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/restune-tune -workload twitter -iters 6 -trace "$tracedir/trace.jsonl" >/dev/null
test -s "$tracedir/trace.jsonl" || {
    echo "telemetry smoke: trace is empty" >&2
    exit 1
}
go run ./scripts/tracecheck "$tracedir/trace.jsonl"

echo "==> telemetry smoke (restune-tune -method ituned -trace)"
go run ./cmd/restune-tune -workload twitter -method ituned -iters 12 \
    -trace "$tracedir/ituned.jsonl" >/dev/null
go run ./scripts/tracecheck "$tracedir/ituned.jsonl"
grep -q '"name":"core.iteration".*"phase":"ei"' "$tracedir/ituned.jsonl" || {
    echo "telemetry smoke: iTuned trace has no core.iteration span in its ei phase" >&2
    exit 1
}

echo "==> fleet smoke (restune-server, 2 sessions)"
go run ./cmd/restune-server -sessions 2 -workers 2 -iters 3 \
    -synthetic-corpus 6 -trace-dir "$tracedir/fleet" >/dev/null
for f in "$tracedir"/fleet/*.jsonl; do
    test -s "$f" || {
        echo "fleet smoke: $f is empty" >&2
        exit 1
    }
done
go run ./scripts/tracecheck "$tracedir"/fleet/*.jsonl

echo "==> timeline smoke (restune-bench -timeline, drift-aware day)"
go run ./cmd/restune-bench -timeline spike -iters 16 \
    -trace "$tracedir/timeline.jsonl" >/dev/null
test -s "$tracedir/timeline.jsonl" || {
    echo "timeline smoke: trace is empty" >&2
    exit 1
}
go run ./scripts/tracecheck "$tracedir/timeline.jsonl"
grep -q 'drift_event' "$tracedir/timeline.jsonl" || {
    echo "timeline smoke: trace has no drift/trust-region attrs" >&2
    exit 1
}

if [ "$(go env GOARCH)" = "amd64" ]; then
    echo "==> results_quick.txt staleness (restune-bench -all -iters 100)"
    # Drop wall-clock lines and table3's block, whose stage timings are wall
    # clock too.
    mask() {
        awk '/^== table3:/ { skip = 1; next }
             /^== /         { skip = 0 }
             skip           { next }
             /^\(.* completed in .*\)$/ { next }
             { print }' "$1"
    }
    go run ./cmd/restune-bench -all -iters 100 >"$tracedir/results_quick.txt"
    mask results_quick.txt >"$tracedir/want.txt"
    mask "$tracedir/results_quick.txt" >"$tracedir/got.txt"
    diff -u "$tracedir/want.txt" "$tracedir/got.txt" || {
        echo "results_quick.txt is stale: regenerate it with" >&2
        echo "  go run ./cmd/restune-bench -all -iters 100 > results_quick.txt" >&2
        exit 1
    }
else
    echo "==> results_quick.txt staleness skipped (recorded on amd64)"
fi

if [ "$FUZZTIME" = "0" ]; then
    echo "==> fuzz smoke skipped (FUZZTIME=0)"
    exit 0
fi

# Fuzz targets must run one at a time (go test allows a single -fuzz
# pattern per package invocation).
fuzz() {
    pkg="$1"
    target="$2"
    shift 2
    echo "==> fuzz $target ($pkg, $FUZZTIME)"
    go test "$pkg" -run '^$' -fuzz "^$target\$" -fuzztime "$FUZZTIME" "$@"
}

fuzz ./internal/minidb FuzzExecutorStatements
fuzz ./internal/minidb FuzzBTreeOperations
# Each input is a whole operation sequence; the default minute of
# minimisation per new corpus entry would use up the smoke budget.
fuzz ./internal/minidb FuzzLeafKernels -fuzzminimizetime 20x
fuzz ./internal/minidb FuzzWALReplay
fuzz ./internal/replay FuzzExtractTemplate
fuzz ./internal/mat FuzzFactorBlocked
fuzz ./internal/mat FuzzExpTo
fuzz ./internal/mat FuzzCountPairs
fuzz ./internal/gp FuzzPredictBatch
fuzz ./internal/gp FuzzSparseSelect
fuzz ./internal/gp FuzzSearchPruning
fuzz ./internal/meta FuzzCorpusIndex
fuzz ./internal/meta FuzzRankingLoss
fuzz ./internal/workload FuzzTimeline

echo "==> verify OK"
