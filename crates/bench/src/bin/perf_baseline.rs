//! Reproducible performance baseline for the simulation hot paths.
//!
//! Measures four throughput figures and records them in
//! `BENCH_engine.json` at the repository root:
//!
//! * **BPs/sec** — simulated beacon periods per wall-clock second on the
//!   100-node SSTSP scenario (the engine hot loop + µTESLA verification).
//! * **large-n BPs/sec** — the same figure at n=1000 and n=5000 (the
//!   regime the SoA node cache exists for).
//! * **runs/sec** — complete runs per second across a `run_seeds` sweep
//!   (the figure-regeneration workload).
//! * **hashes/sec** — `chain_step` applications per second (the µTESLA
//!   primitive every signer/verifier bottoms out in).
//! * **engine_mesh** — BPs/sec on a 4-domain bridged mesh (n≈1000), plain
//!   and with telemetry recording live, plus the telemetry overhead.
//!
//! Every figure is the **median of [`REPEATS`] repetitions** (each
//! repetition a time-bounded loop), so one scheduler hiccup on a noisy
//! host cannot skew the recorded number; the repeat count is written to
//! the JSON alongside the results.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p sstsp-bench --bin perf_baseline -- --label after
//! ```
//!
//! `--label before|after` selects which block of `BENCH_engine.json` to
//! write; the other block is preserved so the file always carries the
//! before/after pair for the current optimization cycle, plus derived
//! speedups when both are present. `--out <path>` overrides the output
//! location. All workloads are fixed-seed, so any change in the numbers
//! is a change in the code, not in the work.
//!
//! A full run also measures the engine workload with telemetry recording
//! enabled and records the off/on pair (plus overhead percentage) in the
//! `telemetry` block — the disabled path is the one the goldens and every
//! experiment run on, so its cost must stay at one relaxed atomic load per
//! instrumented site.
//!
//! `--smoke` runs one alternating loop of twelve telemetry-off / twelve
//! telemetry-on half-second engine measurements. It fails (exit 1) if the
//! off-leg **max** (load noise is one-sided, so the max estimates
//! unloaded capability) fell below `SSTSP_SMOKE_TOL` (default 0.90) times
//! the recorded `after.bps_per_sec` — the CI guard that the telemetry
//! layer stays free when off — or if the telemetry-on overhead exceeds
//! `SSTSP_SMOKE_TELEMETRY_PCT` percent (default 10) by *both* of two
//! independent estimators (max-vs-max and median of per-pair ratios; see
//! [`run_smoke`]) — the guard that instrumented runs stay on the
//! batched-counter discipline. Nothing is written.
//!
//! `--smoke-large` runs the n=1000 scenario once and fails if it exceeds
//! `SSTSP_LARGE_SMOKE_BUDGET_S` wall seconds (default 5 — a catastrophic-
//! regression bound, ~1000x the expected release-build cost). It then runs
//! a 4-domain bridged mesh (per-domain window resolution + reference
//! election) under the same wall budget and fails unless every collision
//! domain ends the run holding a distinct reference. Nothing is written.

use rayon::ThreadPool;
use sstsp::scenario::TopologySpec;
use sstsp::sweep::run_seeds;
use sstsp::{Network, ProtocolKind, ScenarioConfig};
use sstsp_crypto::chain::chain_step;
use std::time::Instant;

/// Engine workload: the acceptance scenario from the perf issue.
const ENGINE_NODES: u32 = 100;
const ENGINE_DURATION_S: f64 = 20.0;
const ENGINE_SEED: u64 = 2006;
/// Large-n engine workload points: (nodes, duration_s).
const LARGE_POINTS: [(u32, f64); 2] = [(1000, 5.0), (5000, 1.0)];
/// Bridged-mesh engine workload: 4 islands of `cols`x`rows` stations plus
/// the 3 gateway bridges (n = 1003), the per-domain resolution regime.
const MESH_DOMAINS: u32 = 4;
const MESH_COLS: u32 = 25;
const MESH_ROWS: u32 = 10;
const MESH_DURATION_S: f64 = 30.0;
/// Sweep workload.
const SWEEP_NODES: u32 = 25;
const SWEEP_DURATION_S: f64 = 10.0;
const SWEEP_SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
/// Repetitions per workload; the recorded figure is the median.
const REPEATS: usize = 5;
/// Minimum wall time per repetition, seconds.
const MIN_MEASURE_S: f64 = 1.0;

/// Median of an owned sample vector (for odd lengths, the exact middle).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median of `reps` invocations of `f`.
fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    median((0..reps).map(|_| f()).collect())
}

struct Measurement {
    bps_per_sec: f64,
    large_bps: Vec<(u32, f64)>,
    runs_per_sec: f64,
    hashes_per_sec: f64,
}

/// One time-bounded repetition of the BPs/sec figure for `cfg`.
///
/// Each iteration rebuilds the network (runs consume it) but only the
/// `run()` call is timed: `Network::build` is dominated by µTESLA keychain
/// generation, which is setup, not beacon-period processing — folding it
/// into a BPs/sec figure would understate every engine-path comparison by
/// a constant that has nothing to do with the paths being compared.
fn measure_bps_for(cfg: &ScenarioConfig, min_s: f64) -> f64 {
    let bps_per_run = cfg.total_bps();
    // Warm-up run.
    std::hint::black_box(Network::build(cfg).run());
    let t0 = Instant::now();
    let mut busy_s = 0.0f64;
    let mut runs = 0u64;
    while t0.elapsed().as_secs_f64() < min_s {
        let net = Network::build(cfg);
        let t1 = Instant::now();
        std::hint::black_box(net.run());
        busy_s += t1.elapsed().as_secs_f64();
        runs += 1;
    }
    (runs * bps_per_run) as f64 / busy_s
}

fn engine_cfg() -> ScenarioConfig {
    ScenarioConfig::new(
        ProtocolKind::Sstsp,
        ENGINE_NODES,
        ENGINE_DURATION_S,
        ENGINE_SEED,
    )
}

fn measure_engine_for(min_s: f64) -> f64 {
    measure_bps_for(&engine_cfg(), min_s)
}

fn measure_engine() -> f64 {
    median_of(REPEATS, || measure_engine_for(MIN_MEASURE_S))
}

/// BPs/sec at each of the [`LARGE_POINTS`] — the regime the SoA node
/// cache, batched receiver draws, and quiescent-BP skip exist for.
fn measure_engine_large() -> Vec<(u32, f64)> {
    LARGE_POINTS
        .iter()
        .map(|&(n, dur)| {
            let cfg = ScenarioConfig::new(ProtocolKind::Sstsp, n, dur, ENGINE_SEED);
            let r = median_of(REPEATS, || measure_bps_for(&cfg, MIN_MEASURE_S / 2.0));
            eprintln!("  n={n}: {r:.1} BPs/sec");
            (n, r)
        })
        .collect()
}

/// The engine workload with metrics recording off and on (counters,
/// gauges, spread distribution — no trace hook, matching how a sweep
/// would record), measured as **interleaved pairs**: each repetition runs
/// the disabled leg and then the recording leg back-to-back, and the
/// recorded overhead is the median of the per-pair overheads. Medians of
/// legs timed minutes apart pick up whatever the host's background load
/// did in between — on a busy single-core host that drift is larger than
/// the effect being measured; pairing cancels it out of the ratio.
///
/// Returns `(off, on, overhead_pct)` — the per-leg medians plus the
/// median per-pair overhead (which is the honest figure; it need not
/// equal the overhead recomputed from the two leg medians).
fn measure_engine_telemetry() -> (f64, f64, f64) {
    let mut offs = Vec::with_capacity(REPEATS);
    let mut ons = Vec::with_capacity(REPEATS);
    let mut overheads = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let off = measure_engine_for(MIN_MEASURE_S);
        let on = {
            let _guard = sstsp_telemetry::recording();
            measure_engine_for(MIN_MEASURE_S)
        };
        overheads.push((1.0 - on / off) * 100.0);
        offs.push(off);
        ons.push(on);
    }
    (median(offs), median(ons), median(overheads))
}

fn mesh_cfg() -> ScenarioConfig {
    let nodes = MESH_DOMAINS * MESH_COLS * MESH_ROWS + (MESH_DOMAINS - 1);
    let mut cfg = ScenarioConfig::new(ProtocolKind::Sstsp, nodes, MESH_DURATION_S, ENGINE_SEED);
    cfg.topology = Some(TopologySpec::Bridged {
        domains: MESH_DOMAINS,
        cols: MESH_COLS,
        rows: MESH_ROWS,
    });
    cfg
}

/// Bridged-mesh BPs/sec, plain and with telemetry recording live, as
/// interleaved pairs (see [`measure_engine_telemetry`] for why); the
/// recorded overhead is the median of the per-pair overheads.
///
/// Returns `(off, on, overhead_pct)`.
fn measure_engine_mesh() -> (f64, f64, f64) {
    let cfg = mesh_cfg();
    let mut offs = Vec::with_capacity(REPEATS);
    let mut ons = Vec::with_capacity(REPEATS);
    let mut overheads = Vec::with_capacity(REPEATS);
    for rep in 0..REPEATS {
        let off = measure_bps_for(&cfg, MIN_MEASURE_S / 2.0);
        let on = {
            let _guard = sstsp_telemetry::recording();
            measure_bps_for(&cfg, MIN_MEASURE_S / 2.0)
        };
        eprintln!(
            "  rep {}/{REPEATS}: {off:.1}, +telemetry {on:.1} ({:.1}% overhead)",
            rep + 1,
            (1.0 - on / off) * 100.0
        );
        overheads.push((1.0 - on / off) * 100.0);
        offs.push(off);
        ons.push(on);
    }
    let (off, on, overhead) = (median(offs), median(ons), median(overheads));
    eprintln!("  median: {off:.1}, +telemetry {on:.1}, overhead {overhead:.1}%");
    (off, on, overhead)
}

/// Short telemetry-disabled engine check against the recorded baseline.
/// Exits 1 on a regression beyond tolerance, 0 otherwise.
fn run_smoke(out: &str) -> ! {
    let baseline = std::fs::read_to_string(out)
        .ok()
        .and_then(|json| extract_block(&json, "after"))
        .and_then(|block| extract_number(&block, "bps_per_sec"));
    let Some(baseline) = baseline else {
        eprintln!("smoke: no after.bps_per_sec baseline in {out}; nothing to compare");
        std::process::exit(0)
    };
    // Default tolerance 0.90: the regressions this gate exists to catch
    // (a stray per-event shard lock, an accidental slow-path fallback)
    // cost tens of percent, while run-to-run drift on a busy shared host
    // reaches ~5-10% even with the max-of-12 estimator below. A quiet CI
    // host can tighten via SSTSP_SMOKE_TOL.
    let tol: f64 = std::env::var("SSTSP_SMOKE_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.90);
    // Telemetry-overhead budget: with recording live the same workload may
    // cost at most SSTSP_SMOKE_TELEMETRY_PCT percent of the disabled-path
    // throughput (default 10%). This is what keeps instrumented runs on
    // the batched `count!`/`BpCounters` discipline — a stray per-event
    // shard lock in a hot loop shows up here immediately.
    let max_overhead_pct: f64 = std::env::var("SSTSP_SMOKE_TELEMETRY_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10.0);
    // One alternating loop of off/on half-second measurements feeds both
    // gates. Throughput noise on a shared host is one-sided — background
    // load only ever *slows* a run — so the max over a leg's repetitions
    // estimates that leg's unloaded capability. Twelve alternations
    // (~12 s) give each leg twelve shots at a quiet window. Pin the loop
    // to a 1-thread pool: the gate compares single-run engine throughput,
    // which must not drift with the host's core count or the pool's
    // scheduling.
    let (offs, ons) = ThreadPool::new(1).install(|| {
        let mut offs = Vec::with_capacity(12);
        let mut ons = Vec::with_capacity(12);
        for _ in 0..12 {
            offs.push(measure_engine_for(0.5));
            let _guard = sstsp_telemetry::recording();
            ons.push(measure_engine_for(0.5));
        }
        (offs, ons)
    });
    let off_max = offs.iter().copied().fold(f64::MIN, f64::max);
    let on_max = ons.iter().copied().fold(f64::MIN, f64::max);
    let ratio = off_max / baseline;
    eprintln!(
        "smoke: {off_max:.1} BPs/sec vs baseline {baseline:.1} (ratio {ratio:.3}, tolerance {tol})"
    );
    if ratio < tol {
        eprintln!("smoke: FAIL — telemetry-disabled engine path regressed beyond tolerance");
        std::process::exit(1)
    }
    // Two independent overhead estimators, gate on the smaller:
    //  * max-vs-max — wrong only when one leg's best window was quieter
    //    than the other's best (the maxes sample luck independently);
    //  * median of per-pair ratios — wrong only when load shifted between
    //    the two legs of the median pair.
    // Host noise rarely inflates both at once, while the regression this
    // gate exists to catch (a stray per-event shard lock) costs tens of
    // percent and trips either estimator through any realistic noise. A
    // single estimator flaked in practice: true overhead sits at ~7%
    // against the 10% budget, and this host's load swings are ±10%+.
    let est_max = (1.0 - on_max / off_max) * 100.0;
    let est_pairs = median(
        offs.iter()
            .zip(&ons)
            .map(|(off, on)| (1.0 - on / off) * 100.0)
            .collect(),
    );
    let overhead_pct = est_max.min(est_pairs);
    eprintln!(
        "smoke: telemetry overhead {overhead_pct:.1}% (min of max-vs-max {est_max:.1}% and median-of-pairs {est_pairs:.1}%, budget {max_overhead_pct}%)"
    );
    if overhead_pct > max_overhead_pct {
        eprintln!("smoke: FAIL — telemetry-enabled engine overhead exceeds the budget");
        std::process::exit(1)
    }
    eprintln!("smoke: ok");
    std::process::exit(0)
}

/// Time-bounded large-n and mesh smoke (see module docs). Exits 1 on a
/// budget overrun or a mesh that fails to elect a reference per domain.
fn run_smoke_large() -> ! {
    let budget_s: f64 = std::env::var("SSTSP_LARGE_SMOKE_BUDGET_S")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0);
    let (n, dur) = LARGE_POINTS[0];
    let cfg = ScenarioConfig::new(ProtocolKind::Sstsp, n, dur, ENGINE_SEED);
    let t0 = Instant::now();
    std::hint::black_box(Network::build(&cfg).run());
    let dt = t0.elapsed().as_secs_f64();
    eprintln!("smoke-large: n={n} run took {dt:.3}s (budget {budget_s}s)");
    if dt > budget_s {
        eprintln!("smoke-large: FAIL — n={n} run blew the wall-clock budget");
        std::process::exit(1)
    }

    // Mesh workload: a 4-domain bridged mesh exercises the per-domain
    // window resolution and reference election at a scale the goldens
    // don't. Same wall budget; every domain must end the run holding a
    // reference, each one distinct.
    let mut mesh = ScenarioConfig::new(ProtocolKind::Sstsp, 103, 5.0, ENGINE_SEED);
    mesh.topology = Some(TopologySpec::Bridged {
        domains: 4,
        cols: 5,
        rows: 5,
    });
    let t0 = Instant::now();
    let r = Network::build(&mesh).run();
    let dt = t0.elapsed().as_secs_f64();
    eprintln!("smoke-large: bridged mesh n=103 run took {dt:.3}s (budget {budget_s}s)");
    if dt > budget_s {
        eprintln!("smoke-large: FAIL — mesh run blew the wall-clock budget");
        std::process::exit(1)
    }
    let report = r.domain_report.as_deref().unwrap_or_default();
    let refs: Vec<_> = report.iter().filter_map(|d| d.final_reference).collect();
    let mut distinct = refs.clone();
    distinct.sort_unstable();
    distinct.dedup();
    if report.len() != 4 || refs.len() != 4 || distinct.len() != 4 {
        eprintln!(
            "smoke-large: FAIL — mesh did not elect a distinct reference per domain: {report:?}"
        );
        std::process::exit(1)
    }
    eprintln!("smoke-large: ok — mesh elected {refs:?}");
    std::process::exit(0)
}

fn measure_sweep_for(min_s: f64) -> f64 {
    let base = ScenarioConfig::new(ProtocolKind::Sstsp, SWEEP_NODES, SWEEP_DURATION_S, 0);
    std::hint::black_box(run_seeds(&base, &SWEEP_SEEDS));
    let t0 = Instant::now();
    let mut runs = 0u64;
    while t0.elapsed().as_secs_f64() < min_s {
        std::hint::black_box(run_seeds(&base, &SWEEP_SEEDS));
        runs += SWEEP_SEEDS.len() as u64;
    }
    runs as f64 / t0.elapsed().as_secs_f64()
}

fn measure_sweep() -> f64 {
    median_of(REPEATS, || measure_sweep_for(MIN_MEASURE_S))
}

/// Scaling points for the sweep workload, measured on scoped pools.
const SCALING_THREADS: [usize; 4] = [1, 2, 4, 8];

/// The sweep workload at each pool size in [`SCALING_THREADS`]. Whether
/// the extra threads buy anything depends on the host (the recorded
/// `host_threads` field says how many hardware threads the measurement
/// actually had available); the *results* are bit-identical either way.
fn measure_sweep_scaling() -> Vec<(usize, f64)> {
    SCALING_THREADS
        .iter()
        .map(|&t| {
            let r = median_of(REPEATS, || {
                ThreadPool::new(t).install(|| measure_sweep_for(MIN_MEASURE_S / 2.0))
            });
            eprintln!("  {t} thread(s): {r:.2} runs/sec");
            (t, r)
        })
        .collect()
}

fn measure_hashes() -> f64 {
    median_of(REPEATS, || {
        let mut x = [0x5Au8; 16];
        // Warm-up.
        for _ in 0..100_000 {
            x = chain_step(&x);
        }
        let t0 = Instant::now();
        let mut hashes = 0u64;
        while t0.elapsed().as_secs_f64() < MIN_MEASURE_S / 2.0 {
            for _ in 0..500_000 {
                x = chain_step(&x);
            }
            hashes += 500_000;
        }
        std::hint::black_box(x);
        hashes as f64 / t0.elapsed().as_secs_f64()
    })
}

fn format_block(m: &Measurement) -> String {
    let mut s = format!("{{\n    \"bps_per_sec\": {:.1},\n", m.bps_per_sec);
    for &(n, r) in &m.large_bps {
        s.push_str(&format!("    \"large_n{n}_bps_per_sec\": {r:.1},\n"));
    }
    s.push_str(&format!(
        "    \"runs_per_sec\": {:.2},\n    \"hashes_per_sec\": {:.0}\n  }}",
        m.runs_per_sec, m.hashes_per_sec
    ));
    s
}

/// Extract the JSON object following `"<label>":` by brace matching.
fn extract_block(json: &str, label: &str) -> Option<String> {
    let key = format!("\"{label}\":");
    let start = json.find(&key)? + key.len();
    let rest = &json[start..];
    let open = rest.find('{')?;
    let mut depth = 0usize;
    for (i, c) in rest[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(rest[open..open + i + 1].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Pull a numeric field out of a JSON block written by [`format_block`].
fn extract_number(block: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\":");
    let start = block.find(&key)? + key.len();
    let rest = block[start..].trim_start();
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut label = "after".to_string();
    let mut out = format!("{}/../../BENCH_engine.json", env!("CARGO_MANIFEST_DIR"));
    let mut smoke = false;
    let mut smoke_large = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--label" => {
                label = args.get(i + 1).expect("--label needs a value").clone();
                i += 2;
            }
            "--out" => {
                out = args.get(i + 1).expect("--out needs a value").clone();
                i += 2;
            }
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--smoke-large" => {
                smoke_large = true;
                i += 1;
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: perf_baseline [--label before|after] [--out path] [--smoke] [--smoke-large]"
                );
                std::process::exit(2);
            }
        }
    }
    assert!(
        label == "before" || label == "after",
        "--label must be 'before' or 'after'"
    );
    if smoke {
        run_smoke(&out);
    }
    if smoke_large {
        run_smoke_large();
    }

    eprintln!(
        "measuring engine ({} nodes, {} s, seed {}; median of {REPEATS}) ...",
        ENGINE_NODES, ENGINE_DURATION_S, ENGINE_SEED
    );
    let bps_per_sec = measure_engine();
    eprintln!("  {bps_per_sec:.1} BPs/sec");
    eprintln!("measuring large-n engine points ...");
    let large_bps = measure_engine_large();
    eprintln!(
        "measuring sweep ({} nodes, {} s, {} seeds) ...",
        SWEEP_NODES,
        SWEEP_DURATION_S,
        SWEEP_SEEDS.len()
    );
    let runs_per_sec = measure_sweep();
    eprintln!("  {runs_per_sec:.2} runs/sec");
    eprintln!("measuring chain_step throughput ...");
    let hashes_per_sec = measure_hashes();
    eprintln!("  {hashes_per_sec:.0} hashes/sec");
    eprintln!("measuring engine telemetry off/on (interleaved pairs) ...");
    let (bps_paired_off, bps_telemetry_on, overhead_pct) = measure_engine_telemetry();
    eprintln!(
        "  off {bps_paired_off:.1} / on {bps_telemetry_on:.1} BPs/sec ({overhead_pct:.1}% overhead)"
    );
    let mesh_nodes = MESH_DOMAINS * MESH_COLS * MESH_ROWS + (MESH_DOMAINS - 1);
    eprintln!(
        "measuring bridged-mesh engine ({MESH_DOMAINS} domains, n={mesh_nodes}, {MESH_DURATION_S} s; interleaved pairs) ..."
    );
    let (mesh_bps, mesh_telemetry_on, mesh_overhead_pct) = measure_engine_mesh();
    eprintln!("measuring sweep scaling across pool sizes ...");
    let scaling = measure_sweep_scaling();
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let m = Measurement {
        bps_per_sec,
        large_bps,
        runs_per_sec,
        hashes_per_sec,
    };

    let existing = std::fs::read_to_string(&out).unwrap_or_default();
    let other_label = if label == "before" { "after" } else { "before" };
    let this_block = format_block(&m);
    let other_block = extract_block(&existing, other_label);

    let mut body = String::from("{\n");
    body.push_str("  \"schema\": \"sstsp-perf-baseline/v2\",\n");
    body.push_str(&format!("  \"repeats\": {REPEATS},\n"));
    let large_desc = LARGE_POINTS
        .iter()
        .map(|&(n, d)| format!("n={n} duration_s={d}"))
        .collect::<Vec<_>>()
        .join(", ");
    body.push_str(&format!(
        "  \"workloads\": {{\n    \"engine\": \"SSTSP n={ENGINE_NODES} duration_s={ENGINE_DURATION_S} seed={ENGINE_SEED}\",\n    \"engine_large\": \"SSTSP {large_desc} seed={ENGINE_SEED}\",\n    \"sweep\": \"SSTSP n={SWEEP_NODES} duration_s={SWEEP_DURATION_S} seeds=1..={}\",\n    \"hash\": \"chain_step (SHA-256 truncated to 128 bits)\"\n  }},\n",
        SWEEP_SEEDS.len()
    ));
    // Keep blocks in before/after order regardless of write order.
    let (before_block, after_block) = if label == "before" {
        (Some(this_block.clone()), other_block.clone())
    } else {
        (other_block.clone(), Some(this_block.clone()))
    };
    if let Some(b) = &before_block {
        body.push_str(&format!("  \"before\": {b},\n"));
    }
    if let Some(a) = &after_block {
        body.push_str(&format!("  \"after\": {a},\n"));
    }
    body.push_str(&format!(
        "  \"telemetry\": {{\n    \"bps_per_sec_off\": {bps_paired_off:.1},\n    \"bps_per_sec_on\": {bps_telemetry_on:.1},\n    \"overhead_pct\": {overhead_pct:.2}\n  }},\n"
    ));
    body.push_str(&format!(
        "  \"engine_mesh\": {{\n    \"workload\": \"SSTSP bridged:{MESH_DOMAINS}:{MESH_COLS}:{MESH_ROWS} n={mesh_nodes} duration_s={MESH_DURATION_S} seed={ENGINE_SEED}\",\n    \"bps_per_sec\": {mesh_bps:.1},\n    \"telemetry_on_bps_per_sec\": {mesh_telemetry_on:.1},\n    \"telemetry_overhead_pct\": {mesh_overhead_pct:.2}\n  }},\n"
    ));
    body.push_str(&format!(
        "  \"sweep_scaling\": {{\n    \"host_threads\": {host_threads},\n"
    ));
    for (i, (t, r)) in scaling.iter().enumerate() {
        let sep = if i + 1 == scaling.len() { "" } else { "," };
        body.push_str(&format!("    \"runs_per_sec_threads_{t}\": {r:.2}{sep}\n"));
    }
    body.push_str("  },\n");
    if let (Some(b), Some(a)) = (&before_block, &after_block) {
        let speedup = |field: &str| -> Option<f64> {
            Some(extract_number(a, field)? / extract_number(b, field)?)
        };
        // Emit whichever ratios both blocks carry (older blocks lack the
        // large-n fields).
        let mut pairs: Vec<(String, f64)> = Vec::new();
        for (name, field) in [
            ("bps", "bps_per_sec".to_string()),
            ("runs", "runs_per_sec".to_string()),
            ("hashes", "hashes_per_sec".to_string()),
        ] {
            if let Some(s) = speedup(&field) {
                pairs.push((name.to_string(), s));
            }
        }
        for &(n, _) in &LARGE_POINTS {
            if let Some(s) = speedup(&format!("large_n{n}_bps_per_sec")) {
                pairs.push((format!("large_n{n}_bps"), s));
            }
        }
        if !pairs.is_empty() {
            body.push_str("  \"speedup\": {\n");
            for (i, (name, s)) in pairs.iter().enumerate() {
                let sep = if i + 1 == pairs.len() { "" } else { "," };
                body.push_str(&format!("    \"{name}\": {s:.3}{sep}\n"));
            }
            body.push_str("  },\n");
        }
    }
    // Trim the trailing comma and close.
    if body.ends_with(",\n") {
        body.truncate(body.len() - 2);
        body.push('\n');
    }
    body.push_str("}\n");

    std::fs::write(&out, &body).expect("write BENCH_engine.json");
    eprintln!("wrote {out} ({label} block)");
    println!("{body}");
}
