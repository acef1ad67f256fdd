#!/usr/bin/env bash
# Same-host performance gate: the working tree against HEAD.
#
# Builds the benchmark in perfbench/ twice, from HEAD (unpacked with
# `git archive` into a temporary directory, so no worktree is registered
# and nothing is written in the repository) and from the working tree, and
# runs the two binaries in alternating pairs on this host. No figure
# recorded on another machine enters the comparison. On a clean tree it is
# an A/A check.
#
# A workload fails when the change loses at least LOSSES_TO_FAIL of the
# PAIRS pairs on bp_per_s (ties count for neither side) and its median
# trails the base's by more than the base's interquartile range (Tukey
# hinges): the benchmark's rule for claiming a gain, inverted. Any run
# that exits non-zero or reports `"correct": false` fails the gate. Last, a
# traced run of the change must keep telemetry recording overhead within
# OVERHEAD_BUDGET_PCT; an estimate over budget gets one retry, since host
# noise can push a single estimate past it and the regressions this check
# exists for cost tens of percent.
#
# Usage: scripts/perf_gate.sh   (takes about 6 minutes on a 2-vCPU host)
set -euo pipefail

cd "$(dirname "$0")/.."

readonly PAIRS=10
readonly LOSSES_TO_FAIL=9
readonly OVERHEAD_BUDGET_PCT=10
readonly SEED=2006
readonly WORKLOADS="paper_fig4 large_n5000"

BASE=$(mktemp -d)
trap 'rm -rf "$BASE"' EXIT
git archive HEAD | tar -x -C "$BASE"

# Builds the benchmark of the tree rooted at $1 into that tree's own
# target directory (a CARGO_TARGET_DIR in the environment would otherwise
# put both builds in one place).
build() {
    cargo build --release --offline -q --manifest-path "$1/perfbench/Cargo.toml" \
        --target-dir "$1/perfbench/target"
}

echo "    building the benchmark at HEAD and in the working tree"
build "$BASE"
build "$PWD"
BASE_BIN=$BASE/perfbench/target/release/benchmark
CHANGE_BIN=$PWD/perfbench/target/release/benchmark

# Runs benchmark $1 with the remaining flags and prints its result line;
# fails on a non-zero exit or a result that is not correct.
result() {
    local bin=$1 out
    shift
    if ! out=$("$bin" "$@" 2>"$BASE/stderr"); then
        echo "ERROR: $bin $* exited non-zero:" >&2
        cat "$BASE/stderr" >&2
        return 1
    fi
    out=${out##*$'\n'}
    if [[ $out != *'"correct": true'* ]]; then
        echo "ERROR: $bin $* reported an incorrect result: $out" >&2
        return 1
    fi
    printf '%s\n' "$out"
}

# The value of metric $2 in result line $1.
metric() {
    local value
    value=$(sed -n "s/.*\"$2\": {\"value\": \([^,}]*\).*/\1/p" <<<"$1")
    if [ -z "$value" ]; then
        echo "ERROR: no $2 in the result line: $1" >&2
        return 1
    fi
    printf '%s\n' "$value"
}

bp_per_s() {
    local line
    line=$(result "$@") || return 1
    metric "$line" bp_per_s
}

failed=0
for workload in $WORKLOADS; do
    echo "    $workload: $PAIRS pairs, --seed $SEED --seconds 1, first side alternating"
    pairs=""
    for ((i = 1; i <= PAIRS; i++)); do
        flags=(--workload "$workload" --seed "$SEED" --seconds 1)
        if ((i % 2)); then
            base=$(bp_per_s "$BASE_BIN" "${flags[@]}")
            change=$(bp_per_s "$CHANGE_BIN" "${flags[@]}")
        else
            change=$(bp_per_s "$CHANGE_BIN" "${flags[@]}")
            base=$(bp_per_s "$BASE_BIN" "${flags[@]}")
        fi
        printf '      pair %d: base %.0f change %.0f BP/s\n' "$i" "$base" "$change"
        pairs+="$base $change"$'\n'
    done
    # Medians, and the base's Tukey hinges: the medians of the lower and
    # upper halves of its sorted values (the 3rd and 8th of 10).
    verdict=$(printf '%s' "$pairs" | awk -v need="$LOSSES_TO_FAIL" '
        function isort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++) {
                t = a[i]
                for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
                a[j + 1] = t
            }
        }
        function med(a, lo, hi,    m) {
            m = hi - lo + 1
            return m % 2 ? a[lo + (m - 1) / 2] : (a[lo + m / 2 - 1] + a[lo + m / 2]) / 2
        }
        { b[NR] = $1 + 0; c[NR] = $2 + 0; if (c[NR] < b[NR]) losses++ }
        END {
            n = NR
            isort(b, n)
            isort(c, n)
            h = int((n + 1) / 2)
            iqr = med(b, n - h + 1, n) - med(b, 1, h)
            mb = med(b, 1, n)
            mc = med(c, 1, n)
            fail = (losses + 0 >= need) && (mb - mc > iqr)
            printf "%s lost %d/%d pairs; median base %.0f change %.0f BP/s (%+.1f %%); base IQR %.0f\n",
                fail ? "FAIL" : "ok", losses, n, mb, mc, 100 * (mc - mb) / mb, iqr
        }')
    echo "    $workload: $verdict"
    if [[ $verdict == FAIL* ]]; then
        failed=1
    fi
done
if [ "$failed" -ne 0 ]; then
    echo "ERROR: the working tree is slower than HEAD (lost >= $LOSSES_TO_FAIL of $PAIRS pairs by more than the base IQR)" >&2
    exit 1
fi

echo "    telemetry recording overhead (traced paper_fig4, budget $OVERHEAD_BUDGET_PCT %)"
overhead_pct() {
    local line
    line=$(result "$CHANGE_BIN" --workload paper_fig4 --seed "$SEED" --trace 1 --seconds 2) ||
        return 1
    metric "$line" telemetry.recording_overhead_pct
}
over_budget() {
    echo "      telemetry.recording_overhead_pct $1"
    awk -v pct="$1" -v max="$OVERHEAD_BUDGET_PCT" 'BEGIN { exit !(pct + 0 > max + 0) }'
}
pct=$(overhead_pct)
if over_budget "$pct"; then
    echo "      over budget; retrying once"
    pct=$(overhead_pct)
    if over_budget "$pct"; then
        echo "ERROR: telemetry recording overhead exceeds $OVERHEAD_BUDGET_PCT % twice" >&2
        exit 1
    fi
fi
echo "    performance gate passed"
