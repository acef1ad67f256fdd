#!/usr/bin/env bash
# Full pre-merge gate: build, test, lint, format.
#
# Run from anywhere; operates on the repository containing this script.
# NOTE: the root package has no lib target — every cargo invocation must
# pass --workspace or most crates silently don't build.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> default-members covers the workspace (plain 'cargo test' is not a no-op)"
# Vendored offline deps (vendor/*) are auto-members of the workspace but
# deliberately not default members; every first-party crate must be one.
meta=$(cargo metadata --no-deps --format-version 1)
members=$(printf '%s' "$meta" | grep -o '"workspace_members":\[[^]]*\]' |
    grep -o 'path+file[^"]*' | grep -cv '/vendor/')
defaults=$(printf '%s' "$meta" | grep -o '"workspace_default_members":\[[^]]*\]' |
    grep -o 'path+file[^"]*' | grep -cv '/vendor/')
if [ "$members" -eq 0 ] || [ "$members" != "$defaults" ]; then
    echo "ERROR: workspace has $members first-party members but only $defaults default members —" >&2
    echo "a plain 'cargo test' would silently skip crates (fix default-members in Cargo.toml)" >&2
    exit 1
fi

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test -q -p sstsp-faults --features mutation-hooks (planted-bug mutation check)"
cargo test -q -p sstsp-faults --features mutation-hooks

echo "==> fault-matrix smoke (one run per fault class, invariant-checked)"
cargo run --release -q -p sstsp-faults --bin scenario_fuzz -- matrix

echo "==> scenario fuzz (fixed seed, bounded iterations)"
cargo run --release -q -p sstsp-faults --bin scenario_fuzz -- fuzz --iters 10 --seed 2006

echo "==> mesh scenario fuzz at RAYON_NUM_THREADS=1,2,8 (topology dimension, pool-size independent)"
for threads in 1 2 8; do
    echo "    RAYON_NUM_THREADS=$threads"
    RAYON_NUM_THREADS=$threads cargo run --release -q -p sstsp-faults --bin scenario_fuzz -- \
        fuzz --iters 8 --seed 2006 --mesh
done

echo "==> campaign scenario fuzz (coordinated-adversary dimension, bounded)"
cargo run --release -q -p sstsp-faults --bin scenario_fuzz -- \
    fuzz --iters 8 --seed 2006 --campaign

echo "==> differential security suite at RAYON_NUM_THREADS=1,2,8 (SSTSP vs TSF per campaign)"
for threads in 1 2 8; do
    echo "    RAYON_NUM_THREADS=$threads"
    RAYON_NUM_THREADS=$threads cargo test -q --release -p sstsp-repro \
        --test differential_security --test security_drills
done

echo "==> thread-determinism at RAYON_NUM_THREADS=1,2,8 (sweep bytes independent of pool size)"
for threads in 1 2 8; do
    echo "    RAYON_NUM_THREADS=$threads"
    RAYON_NUM_THREADS=$threads cargo test -q --release -p sstsp --test thread_determinism
done

echo "==> record/replay round trips (single-hop, bridged and departures, byte-identical at RAYON_NUM_THREADS=1,2,8)"
SIM=target/release/sstsp-sim
REPLAY_TMP=$(mktemp -d)
trap 'rm -rf "$REPLAY_TMP"' EXIT
cargo build --release -q --bin sstsp-sim
# roundtrip NAME SPEC: record SPEC to $REPLAY_TMP/NAME.jsonl, then replay it
# --strict at each pool size; the regenerated trace and the telemetry
# snapshot must match the recording's byte for byte.
roundtrip() {
    local name=$1 spec=$2
    echo "    $name: $spec"
    $SIM trace "$spec" --out "$REPLAY_TMP/$name.jsonl" 2>"$REPLAY_TMP/$name.err"
    for threads in 1 2 8; do
        RAYON_NUM_THREADS=$threads $SIM replay "$REPLAY_TMP/$name.jsonl" --strict \
            --out "$REPLAY_TMP/$name.rep.jsonl" 2>"$REPLAY_TMP/$name.rep.err" >/dev/null
        cmp "$REPLAY_TMP/$name.jsonl" "$REPLAY_TMP/$name.rep.jsonl" || {
            echo "ERROR: $name replay at $threads threads is not byte-identical to the recording" >&2
            exit 1
        }
        diff <(sed -n '/--- telemetry ---/,$p' "$REPLAY_TMP/$name.err") \
            <(sed -n '/--- telemetry ---/,$p' "$REPLAY_TMP/$name.rep.err") || {
            echo "ERROR: $name replay telemetry at $threads threads diverged from the recording" >&2
            exit 1
        }
    done
}
roundtrip rec "n=13 dur=12 seed=7 m=4 delta=300 plan=0 mesh=bridged:2:3:2"
roundtrip single "n=12 dur=30 seed=7 m=4 delta=300 plan=3 burst@40..90:p=0.85"
# The reference-slot jammer campaign on the bridged mesh.
roundtrip camp "n=13 dur=12 seed=7 m=4 delta=300 plan=0 mesh=bridged:2:3:2 campaign=jamref:1:4:9"
grep -q '"ev":"campaign"' "$REPLAY_TMP/camp.jsonl" || {
    echo "ERROR: campaign trace carries no campaign events" >&2
    exit 1
}
# Departures: a station crashes for good, then so does the reference.
roundtrip depart "n=12 dur=30 seed=7 m=4 delta=300 plan=0 crash@50..50:node=3,rejoin=never killref@100..100:rejoin=never"
grep -q '"ev":"ref_change",.*"to":null' "$REPLAY_TMP/depart.jsonl" || {
    echo "ERROR: departure trace never loses its reference" >&2
    exit 1
}

echo "==> replay divergence detection (mutated trace must fail --strict, locating BP + kind)"
# expect_divergence TRACE LOCATION: replaying the mutated TRACE --strict
# must fail and name LOCATION (`BP <n> [<kind>]`) as the first divergence.
expect_divergence() {
    if $SIM replay "$1" --strict >"$REPLAY_TMP/mut.out" 2>/dev/null; then
        echo "ERROR: mutated trace $1 passed --strict replay" >&2
        exit 1
    fi
    grep -qF "$2" "$REPLAY_TMP/mut.out" || {
        echo "ERROR: divergence not located (expected '$2'):" >&2
        cat "$REPLAY_TMP/mut.out" >&2
        exit 1
    }
}
sed 's/"domain_ref_change","bp":11,"domain":1,"from":null,"to":6/"domain_ref_change","bp":11,"domain":1,"from":null,"to":7/' \
    "$REPLAY_TMP/rec.jsonl" >"$REPLAY_TMP/mut.jsonl"
cmp -s "$REPLAY_TMP/rec.jsonl" "$REPLAY_TMP/mut.jsonl" && {
    echo "ERROR: mutation sed matched nothing — golden election transcript moved?" >&2
    exit 1
}
expect_divergence "$REPLAY_TMP/mut.jsonl" "BP 11 [domain_ref_change]"
# Single-hop: delete the first beacon sent at BP 100 or later.
awk '!done && /^\{"ev":"beacon_tx","bp":[0-9]+,/ {
        split($0, f, /[:,]/)
        if (f[4] >= 100) { done = 1; next }
    }
    { print }' "$REPLAY_TMP/single.jsonl" >"$REPLAY_TMP/mut.jsonl"
expect_divergence "$REPLAY_TMP/mut.jsonl" "BP 100 [beacon_tx]"

echo "==> trace schema-version mismatch is refused (exit 2)"
sed '1s/"schema":1/"schema":99/' "$REPLAY_TMP/rec.jsonl" >"$REPLAY_TMP/schema.jsonl"
set +e
$SIM replay "$REPLAY_TMP/schema.jsonl" >/dev/null 2>&1
rc=$?
set -e
if [ "$rc" -ne 2 ]; then
    echo "ERROR: schema-mismatched trace exited $rc, want 2" >&2
    exit 1
fi

echo "==> CLI argument validation rejects malformed input (exit 2, never a panic)"
# Every case must be a named usage error (exit 2): a panic exits 101, so
# merely non-zero is not enough. The --mesh cases pin value validation:
# degenerate specs (zero islands, empty island grid, zero-area disk, a
# station count past u32, a disk graph with no connected placement) used
# to parse and then panic, hang or abort the topology generators. The last
# cases start a reference departure, jam, attack or campaign after the
# default 60 s run's last BP, or place a window between two BP starts
# (59.9 s and 60 s), where it used to be dropped silently, give the
# attacker a negative error, which used to panic, and name a protocol that
# does not exist. Each case runs under
# `timeout 60` (exit 124), so an input that hangs the simulator fails the
# gate instead of blocking it.
expect_usage_error() {
    set +e
    timeout 60 "$SIM" "$@" >/dev/null 2>&1
    local rc=$?
    set -e
    if [ "$rc" -ne 2 ]; then
        echo "ERROR: 'sstsp-sim $*' exited $rc, want 2 (a named usage error)" >&2
        exit 1
    fi
}
for bad in "--jam 50,20" "--jam 20,20" "--attack 600,400,30" "--churn 0,0.5,10" \
    "--churn 10,1.5,10" "--duration -5" "--bogus-flag" \
    "--mesh bridged:0:3:2" "--mesh bridged:1:3:2" "--mesh bridged:2:0:2" \
    "--mesh bridged:2:3:0" "--mesh bridged:2:3" "--mesh rgg:0:1" \
    "--mesh rgg:100:0" "--mesh rgg:inf:1" "--mesh hex" \
    "--campaign coalition:1:30:2:20:40" "--campaign sybil:0:30:20:40" \
    "--campaign jamref:2:40:20" "--campaign coalition:2:nan:2:20:40" \
    "--campaign coalition:7:30:2:20:40" "--campaign warp:2:20:40" \
    "--guard nan" "--guard 0" "--guard -300" "--m 0" \
    "--duration 1e300" "--duration 1e12" \
    "--mesh bridged:2:65536:65536" "--mesh bridged:4294967295:1:1" \
    "--mesh rgg:1000:1" "--mesh rgg:100:5" \
    "--per nan" "--per -1" "--per 1" "--per 2" "--churn 0.01,0.5,10" \
    "--ref-leaves nan" "--ref-leaves -5" "--ref-leaves 100" \
    "--jam 100,200" "--attack 100,200,30" "--campaign jamref:1:100:200" \
    "--jam 59.95,60" "--attack 59.95,60,30" "--campaign jamref:1:59.95:60" \
    "--attack 1,3,-5" "--protocol bogus"; do
    # shellcheck disable=SC2086
    expect_usage_error $bad --nodes 8
done
# Degenerate network dimensions used to panic the scenario constructor.
# The --nodes cases come last on their command line, where no trailing
# flag can override them.
expect_usage_error --nodes 0
expect_usage_error --nodes 1
expect_usage_error --mesh ring --nodes 2
expect_usage_error trace "n=1 dur=12 seed=7 m=4 delta=300 plan=0"
expect_usage_error trace "n=8 dur=0 seed=7 m=4 delta=300 plan=0"
# A duration whose µTESLA interval count overflows u32 used to hang or
# abort; δ = NaN and m = 0 used to run with the protocol silently disabled.
expect_usage_error trace "n=8 dur=1e300 seed=7 m=4 delta=300 plan=0"
expect_usage_error trace "n=8 dur=20 seed=7 m=4 delta=nan plan=0"
expect_usage_error trace "n=8 dur=20 seed=7 m=0 delta=300 plan=0"
# A bridged mesh whose station count overflows u32 used to panic, hang or
# abort; a ring under 3 stations used to panic.
expect_usage_error trace "n=8 dur=5 seed=7 m=4 delta=300 plan=0 mesh=bridged:4294967295:1:1"
expect_usage_error trace "n=8 dur=5 seed=7 m=4 delta=300 plan=0 mesh=bridged:2:65536:65536"
expect_usage_error trace "n=2 dur=5 seed=7 m=4 delta=300 plan=0 mesh=ring"
# A random geometric graph with no connected placement at the run's seed
# used to panic the engine's topology build.
expect_usage_error trace "n=8 dur=5 seed=7 m=4 delta=300 plan=0 mesh=rgg:1000:1"
# Fault-plan values that panicked the engine (a zero-length chain, a
# station past the count, a probability or clock step out of range), a
# chain too long to build, and windows that never fire or end before they
# start. The run has 50 BPs on 8 stations; the bridged mesh fixes 13. A
# trace file's header and scenario_fuzz replay go through the same parser.
for event in "exhaust@0..0:at=0" "exhaust@10..10:at=1000000000000" \
    "crash@10..10:node=99,rejoin=never" "step@10..10:node=8,us=5" "freeze@10..12:node=50" \
    "burst@10..20:p=nan" "burst@10..20:p=1.5" "corrupt@10..20:field=mac,p=-0.1" \
    "discloss@10..20:p=2" "step@10..10:node=2,us=inf" \
    "burst@0..10:p=0.5" "burst@40..10:p=0.5" "burst@51..60:p=0.5" \
    "mesh=bridged:2:3:2 crash@10..10:node=13,rejoin=never"; do
    expect_usage_error trace "n=8 dur=5 seed=7 m=4 delta=300 plan=0 $event"
    set +e
    timeout 60 target/release/scenario_fuzz replay "n=8 dur=5 seed=7 m=4 delta=300 plan=0 $event" \
        >/dev/null 2>&1
    rc=$?
    set -e
    if [ "$rc" -ne 2 ]; then
        echo "ERROR: 'scenario_fuzz replay' of '$event' exited $rc, want 2" >&2
        exit 1
    fi
done
sed '1s/plan=0/plan=0 crash@10..10:node=99,rejoin=never/' "$REPLAY_TMP/rec.jsonl" \
    >"$REPLAY_TMP/badcase.jsonl"
expect_usage_error replay "$REPLAY_TMP/badcase.jsonl"

echo "==> sweep pool stress smoke (exactly-once claims, inline nesting, panics, concurrent submitters)"
# A filter that matches no test still exits 0, so the step also checks
# that the stress test ran.
stress=$(cargo test -q --release -p rayon pool_stress 2>&1) || {
    printf '%s\n' "$stress" >&2
    exit 1
}
grep -q 'test result: ok. 1 passed' <<<"$stress" || {
    echo "ERROR: no pool_stress test ran:" >&2
    printf '%s\n' "$stress" >&2
    exit 1
}

echo "==> no raw println!/eprintln! in library crates (use sstsp-telemetry log/trace)"
# Library sources must emit through the telemetry layer so output is
# structured, capturable, and silent by default. Binaries (src/bin) and
# tests are exempt; the telemetry sink itself writes via writeln!.
if grep -rn --include='*.rs' -E '\b(println|eprintln)!' crates/*/src --exclude-dir=bin |
    grep -vE ':[0-9]+:\s*//'; then
    echo "ERROR: raw print in a library crate — route it through sstsp_telemetry::log" >&2
    exit 1
fi

echo "==> benchmark package (perfbench/, its own workspace): build + tests"
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "==> performance gate (working tree vs HEAD: paired perfbench runs, telemetry overhead)"
scripts/perf_gate.sh

echo "==> cargo doc --no-deps with rustdoc warnings denied (broken or ambiguous doc links)"
# Default members only: the vendored stand-ins are not first-party docs.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "All checks passed."
