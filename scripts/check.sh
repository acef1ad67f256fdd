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

echo "==> record/replay round trip (golden 2-domain bridged scenario, byte-identical)"
SIM=target/release/sstsp-sim
REPLAY_TMP=$(mktemp -d)
trap 'rm -rf "$REPLAY_TMP"' EXIT
cargo build --release -q --bin sstsp-sim
$SIM trace "n=13 dur=12 seed=7 m=4 delta=300 plan=0 mesh=bridged:2:3:2" \
    --out "$REPLAY_TMP/rec.jsonl" 2>"$REPLAY_TMP/rec.err"
for threads in 1 2 8; do
    echo "    RAYON_NUM_THREADS=$threads"
    RAYON_NUM_THREADS=$threads $SIM replay "$REPLAY_TMP/rec.jsonl" --strict \
        --out "$REPLAY_TMP/rep.jsonl" 2>"$REPLAY_TMP/rep.err" >/dev/null
    cmp "$REPLAY_TMP/rec.jsonl" "$REPLAY_TMP/rep.jsonl" || {
        echo "ERROR: replay is not byte-identical to the recording" >&2
        exit 1
    }
    diff <(sed -n '/--- telemetry ---/,$p' "$REPLAY_TMP/rec.err") \
        <(sed -n '/--- telemetry ---/,$p' "$REPLAY_TMP/rep.err") || {
        echo "ERROR: replay telemetry diverged from the recording" >&2
        exit 1
    }
done

echo "==> campaign record/replay round trip (reference-slot jammer on the bridged mesh)"
$SIM trace "n=13 dur=12 seed=7 m=4 delta=300 plan=0 mesh=bridged:2:3:2 campaign=jamref:1:4:9" \
    --out "$REPLAY_TMP/camp.jsonl" 2>/dev/null
grep -q '"ev":"campaign"' "$REPLAY_TMP/camp.jsonl" || {
    echo "ERROR: campaign trace carries no campaign events" >&2
    exit 1
}
for threads in 1 2 8; do
    echo "    RAYON_NUM_THREADS=$threads"
    RAYON_NUM_THREADS=$threads $SIM replay "$REPLAY_TMP/camp.jsonl" --strict \
        --out "$REPLAY_TMP/camp_rep.jsonl" >/dev/null 2>&1
    cmp "$REPLAY_TMP/camp.jsonl" "$REPLAY_TMP/camp_rep.jsonl" || {
        echo "ERROR: campaign replay is not byte-identical to the recording" >&2
        exit 1
    }
done

echo "==> replay divergence detection (mutated trace must fail --strict, locating BP + kind)"
sed 's/"domain_ref_change","bp":11,"domain":1,"from":null,"to":6/"domain_ref_change","bp":11,"domain":1,"from":null,"to":7/' \
    "$REPLAY_TMP/rec.jsonl" >"$REPLAY_TMP/mut.jsonl"
cmp -s "$REPLAY_TMP/rec.jsonl" "$REPLAY_TMP/mut.jsonl" && {
    echo "ERROR: mutation sed matched nothing — golden election transcript moved?" >&2
    exit 1
}
if $SIM replay "$REPLAY_TMP/mut.jsonl" --strict >"$REPLAY_TMP/mut.out" 2>/dev/null; then
    echo "ERROR: mutated trace passed --strict replay" >&2
    exit 1
fi
grep -q 'BP 11 \[domain_ref_change\]' "$REPLAY_TMP/mut.out" || {
    echo "ERROR: divergence not located (expected 'BP 11 [domain_ref_change]'):" >&2
    cat "$REPLAY_TMP/mut.out" >&2
    exit 1
}

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
# degenerate specs (zero islands, empty island grid, zero-area disk) used
# to parse and then panic the topology generators.
expect_usage_error() {
    set +e
    "$SIM" "$@" >/dev/null 2>&1
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
    "--campaign coalition:7:30:2:20:40" "--campaign warp:2:20:40"; do
    # shellcheck disable=SC2086
    expect_usage_error $bad --nodes 8
done
# Degenerate network dimensions used to panic the scenario constructor.
# The --nodes cases come last on their command line, where no trailing
# flag can override them.
expect_usage_error --nodes 0
expect_usage_error --nodes 1
expect_usage_error trace "n=1 dur=12 seed=7 m=4 delta=300 plan=0"
expect_usage_error trace "n=8 dur=0 seed=7 m=4 delta=300 plan=0"

echo "==> large-n smoke (n=1000 and bridged-mesh runs inside wall-clock budget)"
cargo run --release -q -p sstsp-bench --bin perf_baseline -- --smoke-large

echo "==> work-stealing deque stress smoke (concurrent steal, exactly-once claims)"
cargo test -q --release -p rayon deque_stress

echo "==> telemetry-overhead smoke (disabled-path throughput vs BENCH_engine.json)"
# One retry: on a loaded 1-core host the overhead estimate occasionally
# strays past the budget even with the robust estimators (true overhead
# ~7% vs a 10% budget leaves little noise margin). The regression class
# this gate exists to catch costs tens of percent and fails both attempts.
cargo run --release -q -p sstsp-bench --bin perf_baseline -- --smoke ||
    cargo run --release -q -p sstsp-bench --bin perf_baseline -- --smoke

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

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "All checks passed."
