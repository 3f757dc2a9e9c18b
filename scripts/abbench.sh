#!/usr/bin/env bash
# abbench.sh — paired A/B runs against a base revision: of the repository
# benchmark, or of one `go test -bench` row.
#
# Usage:
#   scripts/abbench.sh [-n pairs] [-s seconds] [-e seed] <base-rev> [workload ...]
#   scripts/abbench.sh -b <regexp> [-p pkg] [-n pairs] <base-rev>
#
#   -n  pairs (per workload; default 10)
#   -s  perfbench --seconds budget of each run (default 30)
#   -e  perfbench --seed (default 1)
#   -b  pair the benchmark row that <regexp> selects (a -test.bench
#       pattern matching exactly one row) instead of perfbench
#   -p  the package of that row (default ., the root package)
#   workloads default to kv-twitter, tatp-spike and idle-burst.
#
# The base revision is cloned, detached, into a temporary directory that
# is removed on exit. The head side is this checkout, uncommitted changes
# included.
#
# Without -b, for each workload the script runs
# `bash perfbench/run.sh --trace 0` on both trees, one run at a time, and
# alternates which side goes first from pair to pair, so both sides see
# the same drift of a shared host. Each run's build happens before its
# measurement starts; the first build of the base tree fills its own
# empty caches and is not timed by perfbench. A run that reports
# "correct": false or a nonzero "failed" count is flagged on standard
# error.
#
# With -b, the package's test binary is built once per tree (`go test
# -c`), and the pairs alternate `-test.run '^$' -test.bench <regexp>
# -test.benchmem` runs of the two binaries from the package directory in
# the same way; the metrics are the row's ns/op, B/op and allocs/op.
#
# For every metric it prints the per-pair ratios head/base, their median,
# the base's median with its quartiles, the head's median, and a
# sign-test count: in how many pairs head read lower, higher or equal,
# with the two-sided sign-test p-value over the unequal pairs, then each
# side's value in every pair.
set -euo pipefail
cd "$(dirname "$0")/.."
head_root=$(pwd)

usage() {
    echo "usage: $0 [-n pairs] [-s seconds] [-e seed] <base-rev> [workload ...]" >&2
    echo "       $0 -b <regexp> [-p pkg] [-n pairs] <base-rev>" >&2
    exit 2
}
pairs=10
seconds=30
seed=1
bench=
pkg=.
while getopts "n:s:e:b:p:" opt; do
    case "$opt" in
    n) pairs=$OPTARG ;;
    s) seconds=$OPTARG ;;
    e) seed=$OPTARG ;;
    b) bench=$OPTARG ;;
    p) pkg=$OPTARG ;;
    *) usage ;;
    esac
done
shift $((OPTIND - 1))
if [ $# -lt 1 ] || { [ -n "$bench" ] && [ $# -gt 1 ]; }; then
    usage
fi
base_name=$1
rev=$(git rev-parse --verify "$base_name^{commit}")
shift
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(kv-twitter tatp-spike idle-burst)
fi

tmp=$(mktemp -d)
base_root="$tmp/base"
trap 'rm -rf "$tmp"' EXIT
git clone --quiet --no-checkout "$head_root" "$base_root"
git -C "$base_root" checkout --quiet --detach "$rev"
echo "abbench: base $(git -C "$base_root" rev-parse --short HEAD) ($base_name), head $(git rev-parse --short HEAD)$(git status --porcelain | grep -q . && echo -dirty || true)"

# summarize prints the per-metric summary of the "pair side metric
# value" lines in $tmp/values.
summarize() {
    awk '
    function sortv(a, n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    # quant returns the median of a[lo..hi] (already sorted).
    function quant(a, lo, hi,    m) {
        m = lo + hi
        if (m % 2 == 0) return a[m / 2]
        return (a[(m - 1) / 2] + a[(m + 1) / 2]) / 2
    }
    # signp is the two-sided sign-test p-value of k lower out of n.
    function signp(k, n,    i, c, s, lo) {
        if (n == 0) return 1
        lo = (k < n - k) ? k : n - k
        c = 1; s = 0
        for (i = 0; i <= lo; i++) { s += c; c = c * (n - i) / (i + 1) }
        s = 2 * s / 2 ^ n
        return s > 1 ? 1 : s
    }
    {
        if (!($3 in seen)) { seen[$3] = 1; order[++nm] = $3 }
        v[$3, $2, $1] = $4
        if ($1 > np) np = $1
    }
    END {
        printf "%-15s %-34s %-12s %-9s %-18s %s\n", "metric", "base median [q1, q3]", "head median", "ratio", "lower/higher/equal", "sign p"
        for (k = 1; k <= nm; k++) {
            m = order[k]; n = 0; lo = 0; hi = 0; eq = 0; line = ""; bl = ""; hl = ""
            for (p = 1; p <= np; p++) {
                if (!((m, "base", p) in v) || !((m, "head", p) in v)) continue
                b = v[m, "base", p] + 0; h = v[m, "head", p] + 0
                n++; bs[n] = b; hs[n] = h
                if (h < b) lo++; else if (h > b) hi++; else eq++
                bl = bl sprintf(" %.6g", b); hl = hl sprintf(" %.6g", h)
                if (b != 0) { rs[n] = h / b; line = line sprintf(" %.4f", h / b) }
                else { rs[n] = (h == 0) ? 1 : 1e300; line = line " n/a" }
            }
            if (n == 0) continue
            sortv(bs, n); sortv(hs, n); sortv(rs, n)
            half = int(n / 2)
            q1 = (n >= 2) ? quant(bs, 1, half) : bs[1]
            q3 = (n >= 2) ? quant(bs, n - half + 1, n) : bs[1]
            printf "%-15s %-34s %-12.6g %-9.4f %-18s %.3g\n", m,
                sprintf("%.6g [%.6g, %.6g]", quant(bs, 1, n), q1, q3),
                quant(hs, 1, n), quant(rs, 1, n), lo "/" hi "/" eq, signp(lo, lo + hi)
            printf "%-15s ratios:%s\n", "", line
            printf "%-15s base:  %s\n", "", bl
            printf "%-15s head:  %s\n", "", hl
        }
    }' "$tmp/values"
}

# run SIDE ROOT WORKLOAD PAIR appends "pair side metric value" lines for
# one perfbench run to $tmp/values.
run() {
    local side=$1 root=$2 workload=$3 pair=$4 line
    line=$(cd "$root" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || true
    case "$line" in
    *'"correct":true'*'"failed":0,'*) ;;
    *) echo "abbench: $workload pair $pair $side: run not correct or had failures: $line" >&2 ;;
    esac
    printf '%s\n' "$line" | grep -o '"[a-z0-9_]*":{"value":[^,}]*' |
        sed 's/^"\([a-z0-9_]*\)":{"value":/\1 /' |
        while read -r metric value; do
            echo "$pair $side $metric $value"
        done >>"$tmp/values" || true
}

# runbench SIDE ROOT PAIR appends "pair side metric value" lines for one
# run of SIDE's test binary to $tmp/values; it fails unless the pattern
# selected exactly one row.
runbench() {
    local side=$1 root=$2 pair=$3 rows
    rows=$(cd "$root/$pkg" && "$tmp/$side.test" -test.run '^$' -test.bench "$bench" -test.benchmem | grep '^Benchmark') || true
    if [ "$(printf '%s\n' "$rows" | grep -c .)" -ne 1 ]; then
        echo "abbench: -b $bench selected $(printf '%s\n' "$rows" | grep -c .) rows on $side, want 1:" >&2
        printf '%s\n' "$rows" >&2
        exit 1
    fi
    # A row is: name iterations v ns/op v B/op v allocs/op [v unit ...].
    printf '%s\n' "$rows" | awk -v p="$pair" -v s="$side" '{
        for (i = 3; i < NF; i += 2)
            if ($(i + 1) == "ns/op" || $(i + 1) == "B/op" || $(i + 1) == "allocs/op") print p, s, $(i + 1), $i
    }' >>"$tmp/values"
}

: >"$tmp/values"
if [ -n "$bench" ]; then
    echo "abbench: $pairs pairs of -test.bench '$bench' in $pkg"
    (cd "$base_root" && go test -c -o "$tmp/base.test" "$pkg")
    (cd "$head_root" && go test -c -o "$tmp/head.test" "$pkg")
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then
            runbench base "$base_root" "$i"
            runbench head "$head_root" "$i"
        else
            runbench head "$head_root" "$i"
            runbench base "$base_root" "$i"
        fi
    done
    echo
    echo "== $bench: ratio = head/base per pair"
    summarize
    exit 0
fi

echo "abbench: $pairs pairs per workload, --seconds $seconds --seed $seed"
for w in "${workloads[@]}"; do
    : >"$tmp/values"
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then
            run base "$base_root" "$w" "$i"
            run head "$head_root" "$w" "$i"
        else
            run head "$head_root" "$w" "$i"
            run base "$base_root" "$w" "$i"
        fi
    done
    echo
    echo "== $w: ratio = head/base per pair"
    summarize
done
