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
# hinges): the benchmark's rule for claiming a gain, inverted. It also
# fails when the change's median peak_heap_mb, read from the same result
# lines, exceeds the base's by more than that metric's relative bound in
# BENCHMARK.json (the benchmark's own rule; the figure is exact, identical
# across repetitions). Any run that exits non-zero or reports
# `"correct": false` fails the gate. Last, one traced run of each binary:
# the change's must keep telemetry recording overhead within
# OVERHEAD_BUDGET_PCT, and the invariant checker's own cost (the cost of
# every `run_checked` in paper_repro) must not exceed HEAD's by more than
# CHECKER_BUDGET_PCT. That cost is judged in µs per BP, the traced
# `core.checker_overhead_pct` (a share of a plain paper_fig4 run) times the
# binary's plain µs/BP (the median of its paper_fig4 pairs), so a faster
# plain run does not read as a dearer checker. A budget exceeded gets one
# more traced run of each binary, and fails only if that one exceeds it
# too, since host noise can push a single estimate past it and the
# regressions this check exists for cost tens of percent.
#
# Usage: scripts/perf_gate.sh   (takes about 3 minutes on a 2-vCPU host)
set -euo pipefail

cd "$(dirname "$0")/.."

readonly PAIRS=10
readonly LOSSES_TO_FAIL=9
readonly OVERHEAD_BUDGET_PCT=10
readonly CHECKER_BUDGET_PCT=25
readonly SEED=2006
readonly WORKLOADS="paper_fig4 large_n5000"
HEAP_BOUND=$(sed -n 's/.*"name": "peak_heap_mb".*"bound": \([0-9.]*\).*/\1/p' BENCHMARK.json)
if [ -z "$HEAP_BOUND" ]; then
    echo "ERROR: BENCHMARK.json declares no bound for peak_heap_mb" >&2
    exit 1
fi
readonly HEAP_BOUND

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

# bp_per_s and peak_heap_mb of one run of benchmark $1 with the remaining
# flags, on one line.
bp_and_heap() {
    local line bp heap
    line=$(result "$@") || return 1
    bp=$(metric "$line" bp_per_s) || return 1
    heap=$(metric "$line" peak_heap_mb) || return 1
    printf '%s %s\n' "$bp" "$heap"
}

failed=0
for workload in $WORKLOADS; do
    echo "    $workload: $PAIRS pairs, --seed $SEED --seconds 1, first side alternating"
    pairs=""
    for ((i = 1; i <= PAIRS; i++)); do
        flags=(--workload "$workload" --seed "$SEED" --seconds 1)
        if ((i % 2)); then
            base=$(bp_and_heap "$BASE_BIN" "${flags[@]}")
            change=$(bp_and_heap "$CHANGE_BIN" "${flags[@]}")
        else
            change=$(bp_and_heap "$CHANGE_BIN" "${flags[@]}")
            base=$(bp_and_heap "$BASE_BIN" "${flags[@]}")
        fi
        read -r base_bp base_heap <<<"$base"
        read -r change_bp change_heap <<<"$change"
        printf '      pair %d: base %.0f change %.0f BP/s, peak heap base %s change %s MiB\n' \
            "$i" "$base_bp" "$change_bp" "$base_heap" "$change_heap"
        pairs+="$base $change"$'\n'
    done
    # Medians, and the base's Tukey hinges: the medians of the lower and
    # upper halves of its sorted values (the 3rd and 8th of 10). Each line
    # holds the base's BP/s and heap, then the change's.
    verdict=$(printf '%s' "$pairs" | awk -v need="$LOSSES_TO_FAIL" -v bound="$HEAP_BOUND" '
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
        {
            b[NR] = $1 + 0; bh[NR] = $2 + 0; c[NR] = $3 + 0; ch[NR] = $4 + 0
            if (c[NR] < b[NR]) losses++
        }
        END {
            n = NR
            isort(b, n)
            isort(c, n)
            isort(bh, n)
            isort(ch, n)
            h = int((n + 1) / 2)
            iqr = med(b, n - h + 1, n) - med(b, 1, h)
            mb = med(b, 1, n)
            mc = med(c, 1, n)
            mbh = med(bh, 1, n)
            mch = med(ch, 1, n)
            slower = (losses + 0 >= need) && (mb - mc > iqr)
            heavier = mch > mbh * (1 + bound)
            printf "%s lost %d/%d pairs; median base %.0f change %.0f BP/s (%+.1f %%); base IQR %.0f; " \
                "peak heap base %.6f change %.6f MiB (%+.2f %%, bound %+.0f %%)%s\n",
                slower || heavier ? "FAIL" : "ok", losses, n, mb, mc, 100 * (mc - mb) / mb, iqr,
                mbh, mch, 100 * (mch - mbh) / mbh, 100 * bound, heavier ? " over the heap bound" : ""
            print mb, mc
        }')
    # The last line holds the two medians, for the checker's cost below.
    read -r base_median change_median <<<"${verdict##*$'\n'}"
    verdict=${verdict%$'\n'*}
    if [ "$workload" = paper_fig4 ]; then
        FIG4_MEDIANS="$base_median $change_median"
    fi
    echo "    $workload: $verdict"
    if [[ $verdict == FAIL* ]]; then
        failed=1
    fi
done
if [ "$failed" -ne 0 ]; then
    echo "ERROR: the working tree is slower than HEAD (lost >= $LOSSES_TO_FAIL of $PAIRS pairs by" \
        "more than the base IQR) or its peak heap exceeds HEAD's by more than $HEAP_BOUND" >&2
    exit 1
fi

echo "    overheads (traced paper_fig4): telemetry recording, budget $OVERHEAD_BUDGET_PCT %;" \
    "invariant checker's cost per BP, budget HEAD's + $CHECKER_BUDGET_PCT %"
# The result line of one traced paper_fig4 run of benchmark $1.
traced() {
    result "$1" --workload paper_fig4 --seed "$SEED" --trace 1 --seconds 2
}

# Makes one traced run of each binary, the base first if $1 is "base",
# and prints the name of each budget exceeded, one a line.
over_budget() {
    local base_line change_line telemetry base_pct change_pct
    if [ "$1" = base ]; then
        base_line=$(traced "$BASE_BIN") || return 1
        change_line=$(traced "$CHANGE_BIN") || return 1
    else
        change_line=$(traced "$CHANGE_BIN") || return 1
        base_line=$(traced "$BASE_BIN") || return 1
    fi
    telemetry=$(metric "$change_line" telemetry.recording_overhead_pct) || return 1
    base_pct=$(metric "$base_line" core.checker_overhead_pct) || return 1
    change_pct=$(metric "$change_line" core.checker_overhead_pct) || return 1
    # µs/BP of the checker: its share of a plain run times the binary's
    # plain µs/BP.
    awk -v tel="$telemetry" -v tel_max="$OVERHEAD_BUDGET_PCT" -v max="$CHECKER_BUDGET_PCT" \
        -v base_pct="$base_pct" -v change_pct="$change_pct" -v medians="$FIG4_MEDIANS" 'BEGIN {
            split(medians, bps, " ")
            plain_base = 1e6 / bps[1]
            plain_change = 1e6 / bps[2]
            base = base_pct / 100 * plain_base
            change = change_pct / 100 * plain_change
            printf "      telemetry.recording_overhead_pct %s\n", tel > "/dev/stderr"
            printf "      invariant checker: base %.2f µs/BP (%s %% of %.2f), change %.2f µs/BP" \
                " (%s %% of %.2f)\n", base, base_pct, plain_base, change, change_pct,
                plain_change > "/dev/stderr"
            if (tel + 0 > tel_max + 0) print "telemetry.recording_overhead_pct"
            if (change > base * (1 + max / 100)) print "core.checker_overhead_pct"
        }'
}
over=$(over_budget base)
if [ -n "$over" ]; then
    echo "      over budget: ${over//$'\n'/, }; retrying once"
    again=$(over_budget change)
    for name in $over; do
        if grep -qx "$name" <<<"$again"; then
            echo "ERROR: $name exceeds its budget twice" >&2
            exit 1
        fi
    done
fi
echo "    performance gate passed"
