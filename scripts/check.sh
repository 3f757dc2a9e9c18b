#!/usr/bin/env bash
# check.sh — the tier-1 gate. Builder and CI run exactly this script, so
# a green local run means a green CI run:
#
#   gofmt      formatting (testdata fixtures included)
#   build      everything compiles
#   vet        standard static checks
#   ecllint    the project's determinism, layering, hot-path, float-
#              order, and unit contract (internal/lint; DESIGN.md §8 +
#              §13), with stale-suppression detection
#   tests      the short suite (the full figure sweep takes tens of
#              minutes; heavy regenerators honor -short)
#   ablations  the long internal/bench ablation and proportionality
#              tests that -short skips (~10 s)
#   fuzz       a fixed 10 s native-fuzzing budget on each of the
#              replay-trace and energy-profile loaders, the semantic
#              comparator and benchdiff's snapshot parser
#   race       the byte-identical determinism test under the race
#              detector, proving the core is goroutine-free at runtime;
#              the production-vs-reference step-path, query-trace,
#              serving-surface and energy-attribution tests, raced; and
#              the parallel-vs-sequential sweep byte-identity test,
#              proving the bench orchestrator's fan-out changes nothing
#              but wall-clock
#   relock     relock.sh --check: a figure subset on both step paths,
#              diffed by the semantic comparator
#
# Every step reports its elapsed wall seconds, and the script its total.
set -euo pipefail
cd "$(dirname "$0")/.."

step_name=""
step_start=$SECONDS
# end_step: report the running step's elapsed seconds.
end_step() {
    [ -z "$step_name" ] || echo "   ($step_name: $((SECONDS - step_start)) s)"
}
# step <name>: close the running step and open the next one.
step() {
    end_step
    step_name="$1"
    step_start=$SECONDS
    echo "== $1"
}

step "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step "go build"
go build ./...

step "go vet"
go vet ./...

step "ecllint"
# -unused-directives: a suppression that no longer suppresses anything
# is a stale justification and fails the gate too.
go run ./cmd/ecllint -unused-directives ./...

step "ecllint on internal/lint"
# The analyzer package holds itself to its own contract. ./... above
# already covers it; this separate invocation keeps the self-check
# visible even if the tree-wide run ever narrows its patterns.
go run ./cmd/ecllint -unused-directives ./internal/lint ./cmd/ecllint

step "go test -short"
go test -short -count=1 ./...

step "long ablation tests"
# -short skips these end-to-end experiments, and a non-short run of all of
# internal/bench (every paper figure) outlasts go test's 10-minute default
# timeout, so they are named here. TestAblationRTISync is left out: it is
# known to fail. Its 2x deep-sleep bound cannot hold at 10 % load, where
# sockets active for a of the run's T seconds sleep together for T - a when
# aligned and at least T - 2a when staggered, a ratio of at most ~1.24
# (ROADMAP.md item 10).
go test -count=1 -run '^TestAblation(Elasticity|NUMA|RTI|Quantum)$|^TestProportionality$' ./internal/bench

step "fuzz LoadReplayCSV (10 s)"
# A fixed budget of native fuzzing over the replay-trace loader: it must
# return an error or a profile whose rate is finite and non-negative. The
# committed seed corpus (internal/loadprofile/testdata/fuzz) already ran
# in the short suite above; a new crasher lands next to it and fails here.
go test -run=NONE -fuzz=FuzzLoadReplayCSV -fuzztime=10s ./internal/loadprofile

step "fuzz LoadProfile (10 s)"
# The same budget over the saved energy-profile loader: it must return an
# error or a profile whose evaluated entries carry finite, non-negative
# measurements (seed corpus in internal/energy/testdata/fuzz).
go test -run=NONE -fuzz=FuzzLoadProfile -fuzztime=10s ./internal/energy

step "fuzz relock comparator (10 s)"
# The same budget over the semantic comparator behind cmd/semdiff and the
# step-path proof below: no pair of inputs may panic it, and any input
# compared with itself must report OK (seed corpus in
# internal/relock/testdata/fuzz).
go test -run=NONE -fuzz=FuzzCompareBytes -fuzztime=10s ./internal/relock

step "fuzz benchdiff snapshot (10 s)"
# The same budget over benchdiff's snapshot parser: it must return an
# error or a snapshot that compares with itself as unchanged (seed corpus
# in cmd/benchdiff/testdata/fuzz).
go test -run=NONE -fuzz=FuzzLoadSnapshot -fuzztime=10s ./cmd/benchdiff

step "determinism under -race"
go test -race -short -count=1 -run 'TestDeterminism' ./internal/sim

step "step-path byte-identity under -race"
# The production step path (sample-boundary loop, kernel cache, quiescent
# fast-forward, closed-form stretches) against the per-quantum reference
# walk: bit-identical digests on a profile that never quiesces, and on the
# idle-heavy profile every export (series CSV, event log, metrics, explain
# report, Perfetto trace, phase breakdown, energy attribution) within the
# semantic differ's 1e-9, with energy conserved on both paths.
go test -race -count=1 -run 'TestStepPathsByteIdentical' ./internal/sim

step "query trace validity + byte-identity under -race"
# A short traced simulation: the Perfetto export must parse as JSON,
# match byte-for-byte across two same-seed runs, and leave the recorded
# series untouched (tracing is read-only). The determinism digest above
# also folds the export and the phase-breakdown table in.
go test -race -count=1 -run 'TestQueryTrace' ./internal/sim

step "live serving surface under -race"
# cmd/eclserve must build, and the serve package's tests run a short
# simulation with the full HTTP stack attached: the golden Prometheus
# exposition over HTTP, an SSE subscriber asserting at least one typed
# decision event streamed, and the neutrality proof that a served run's
# determinism digest is byte-identical to a headless run (unpaced and
# paced). -race covers the snapshot handoff across the fence.
go build -o /dev/null ./cmd/eclserve
go test -race -count=1 -run 'TestServ' ./internal/serve

step "energy attribution under -race"
# The attribution meter's contract, raced: conservation (the meter's
# mirror is bitwise equal to the machine's RAPL counters and the
# queries/control/residual partition sums back exactly) is asserted on
# both paths of the step-path proof above; here the meter's own
# tests run — behavior neutrality (digest identical with the meter on
# or off), determinism of its exports, a positive energy-saved signal
# with a coherent audit ledger, and the zero-alloc steady-state accrual
# proofs — plus the package unit tests.
go test -race -count=1 -run 'TestEnergyAttr' ./internal/sim
go test -race -count=1 ./internal/obs/energyattr

step "digest re-lock semantic check"
# The closed-form stretch integration (DESIGN.md §16) changes the
# grouping of float sums, so energies are not byte-identical to the
# per-quantum reference walk. The re-lock harness's fast mode regenerates
# a figure subset on both paths and proves that every integer observable
# is byte-identical and every float agrees within epsilon.
relock_out=$(mktemp -d)
./scripts/relock.sh --check "$relock_out"
rm -rf "$relock_out"

step "parallel sweep byte-identity under -race"
# Not -short: the comparison regenerates a sized-down figure three times
# (sequential, 2 workers, 4 workers) and diffs tables, JSONL event
# streams, and metrics expositions byte for byte.
go test -race -count=1 -run 'TestParallelSweepByteIdentical' ./internal/bench

end_step
echo "check.sh: all green in $SECONDS s"
