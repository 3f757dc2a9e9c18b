#!/usr/bin/env bash
# bench.sh — machine-readable benchmark snapshot. Runs every benchmark
# in -short mode (the full-simulation figure regenerators skip
# themselves; the model-based figures and the micro-benchmarks run) and
# writes BENCH_<UTC yyyy-mm-ddTHHMMSSZ>_<commit>.json mapping each
# benchmark to its ns/op, bytes/op, and allocs/op, so successive
# snapshots can be diffed for performance regressions (cmd/benchdiff).
# The timestamp keeps two runs on one day apart, and the older
# BENCH_<date>.json names still sort before any same-day timestamped
# one, so lexical order stays chronological. The snapshot records the
# host CPU (model name and nproc): benchdiff flags a host change, since
# ns/op across hosts mostly measures the hosts.
#
# The benchtime is a duration, not an iteration count, on purpose: with
# -benchtime=1x every benchmark reports a single cold iteration, and for
# micro-benchmarks (tens of microseconds) that one-shot number is
# dominated by cold caches and scheduler jitter — it once reported the
# step-kernel cache as a 2.6x slowdown when the steady-state number is a
# 2x speedup. A duration budget lets Go's benchmark harness amortize
# micro-benchmarks over thousands of iterations while the multi-second
# full-simulation benchmarks still run just once.
#
# Orchestrated sweep timing is part of the snapshot: the
# BenchmarkProfileSweepSequential / BenchmarkProfileSweepParallel pair
# runs the same four-profile sweep pinned to one worker and at the
# default pool, so the sequential-vs-parallel trajectory is recorded on
# every machine even in -short mode (the full-simulation pair,
# BenchmarkTable1EnergySavings vs BenchmarkTable1Parallel, needs a
# non-short run).
#
# Packages run one at a time (-p 1). By default go test runs as many
# package test binaries at once as there are CPUs, so on a small host two
# packages' benchmarks share the cores and each times the other's
# contention: BenchmarkTable1RowSingleRun once read 5.17 and 3.78 s/op in
# two full passes and 2.60 s/op run alone minutes later.
#
# CI runs this as a non-blocking step: a slow machine or noisy neighbor
# must not fail the build, but the numbers are always archived.
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-100ms}"
stamp=$(date -u +%Y-%m-%dT%H%M%SZ)
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
dirty=$(git status --porcelain 2>/dev/null | grep -q . && echo "-dirty" || true)
out="BENCH_${stamp}_${commit}${dirty}.json"
model=$(awk -F: '/^model name/ { sub(/^[ \t]+/, "", $2); print $2; exit }' /proc/cpuinfo 2>/dev/null | tr -d '"\\' || true)
host_cpu="${model:-unknown}, nproc $(nproc 2>/dev/null || echo unknown)"

go test -p 1 -run=NONE -bench=. -benchtime="$benchtime" -benchmem -short ./... | tee "$raw"

# One JSON object per benchmark line: strip the -<GOMAXPROCS> suffix
# from the name and keep the iteration count and the ns/op, B/op, and
# allocs/op columns (the memory columns come from -benchmem; custom
# ReportMetric columns would shift them, so they are keyed by their unit
# tokens, not their positions).
awk -v date="$stamp" -v host_cpu="$host_cpu" -v goversion="$(go env GOVERSION)" -v benchtime="$benchtime" -v commit="$commit$dirty" '
BEGIN { n = 0 }
$1 ~ /^Benchmark/ && $4 == "ns/op" {
    name = $1
    sub(/-[0-9]+$/, "", name)
    names[n] = name
    iters[n] = $2
    ns[n] = $3
    bytes[n] = ""
    allocs[n] = ""
    for (i = 5; i < NF; i++) {
        if ($(i + 1) == "B/op") bytes[n] = $i
        if ($(i + 1) == "allocs/op") allocs[n] = $i
    }
    n++
}
END {
    printf "{\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"commit\": \"%s\",\n", commit
    printf "  \"host_cpu\": \"%s\",\n", host_cpu
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < n; i++) {
        line = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", names[i], iters[i], ns[i])
        if (bytes[i] != "")  line = line sprintf(", \"bytes_per_op\": %s", bytes[i])
        if (allocs[i] != "") line = line sprintf(", \"allocs_per_op\": %s", allocs[i])
        printf "%s}%s\n", line, (i < n - 1 ? "," : "")
    }
    printf "  ]\n"
    printf "}\n"
}' "$raw" > "$out"

# Fail loudly when the artifact didn't materialize: CI keeps this step
# non-blocking (continue-on-error), but a silent empty snapshot would
# archive as "everything fine" and poison trend diffs.
if [ ! -s "$out" ]; then
    echo "bench.sh: ERROR: failed to write $out" >&2
    exit 1
fi
count=$(grep -c '"name"' "$out" || true)
if [ "$count" -eq 0 ]; then
    rm -f "$out"
    echo "bench.sh: ERROR: no benchmark results parsed; removed empty $out" >&2
    exit 1
fi

echo "bench.sh: wrote $out ($count benchmarks)"
