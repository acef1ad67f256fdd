//! Sweep results must not depend on the rayon pool size.
//!
//! `run_seeds` / `run_configs` parallelize over *runs*; each run is a pure
//! function of its config and seed, and results are collected in input
//! order. So the output must be bit-identical whether the pool has one
//! thread or many — and since the vendored rayon runs each batch on
//! several threads claiming items from one counter, "many" means real
//! concurrent interleavings, not a renamed loop.
//!
//! Two pins: an in-process one comparing scoped pools of 1, 2 and 8
//! threads (sweep fingerprints *and* merged telemetry snapshots), and a
//! child-process one exercising the `RAYON_NUM_THREADS` env path against
//! the default pool.

use rayon::ThreadPool;
use sstsp::sweep::{run_configs, run_seeds};
use sstsp::{ProtocolKind, ScenarioConfig};
use sstsp_telemetry as telemetry;

/// Env marker distinguishing the single-threaded child invocation.
const CHILD_VAR: &str = "SSTSP_THREAD_DETERMINISM_CHILD";
const FP_BEGIN: &str = "FP-BEGIN\n";
const FP_END: &str = "FP-END";

/// A bit-exact fingerprint (f64 bit patterns, not rounded prints) of a
/// seed sweep and a config sweep.
fn fingerprint() -> String {
    let base = ScenarioConfig::new(ProtocolKind::Sstsp, 6, 6.0, 0);
    let by_seed = run_seeds(&base, &[11, 12, 13, 14]);
    let configs: Vec<ScenarioConfig> = [ProtocolKind::Tsf, ProtocolKind::Sstsp, ProtocolKind::Asp]
        .iter()
        .map(|&k| ScenarioConfig::new(k, 5, 5.0, 3))
        .collect();
    let by_config = run_configs(&configs);
    // The mesh-golden scenario (2-domain bridged mesh, per-domain election):
    // its spread bytes *and* per-domain report must be pool-size
    // independent too.
    let mut mesh = ScenarioConfig::new(ProtocolKind::Sstsp, 13, 12.0, 7);
    mesh.topology = Some(sstsp::scenario::TopologySpec::Bridged {
        domains: 2,
        cols: 3,
        rows: 2,
    });
    let by_mesh = run_seeds(&mesh, &[7, 8]);
    // Hostile-environment scenarios: the differential security suite's
    // SSTSP-vs-TSF campaign runs must be pool-size independent too (a
    // coalition on the paper's single-hop IBSS, and a Sybil flood against
    // the bridged mesh's per-domain elections).
    let hostile: Vec<ScenarioConfig> = [ProtocolKind::Sstsp, ProtocolKind::Tsf]
        .iter()
        .flat_map(|&k| {
            let mut coalition = ScenarioConfig::new(k, 10, 8.0, 7);
            coalition.campaign = Some(sstsp::scenario::CampaignSpec {
                kind: sstsp::scenario::CampaignKind::Coalition {
                    error_us: 800.0,
                    delay_bps: 2,
                },
                attackers: 3,
                start_s: 4.0,
                end_s: 7.0,
            });
            let mut sybil = mesh.clone();
            sybil.protocol = k;
            sybil.duration_s = 8.0;
            // Window from t = 0 so the flood contests the initial
            // per-domain election and actually transmits.
            sybil.campaign = Some(sstsp::scenario::CampaignSpec {
                kind: sstsp::scenario::CampaignKind::SybilFlood { error_us: 1500.0 },
                attackers: 2,
                start_s: 0.0,
                end_s: 6.0,
            });
            [coalition, sybil]
        })
        .collect();
    let by_campaign = run_configs(&hostile);

    let mut s = String::new();
    for r in by_seed
        .iter()
        .chain(&by_config)
        .chain(&by_mesh)
        .chain(&by_campaign)
    {
        s.push_str(&format!(
            "{}/{}/{} peak={:016x} tx={} coll={} silent={} refchg={}\n",
            r.protocol,
            r.n_nodes,
            r.seed,
            r.peak_spread_us.to_bits(),
            r.tx_successes,
            r.tx_collisions,
            r.silent_windows,
            r.reference_changes,
        ));
        for v in r.spread.values() {
            s.push_str(&format!("{:016x},", v.to_bits()));
        }
        s.push('\n');
        for d in r.domain_report.as_deref().unwrap_or_default() {
            s.push_str(&format!(
                "dom {} n={} ref={:?} spread={:?}\n",
                d.domain,
                d.nodes,
                d.final_reference,
                d.end_spread_us.map(f64::to_bits),
            ));
        }
    }
    s
}

/// In-process pin: scoped pools of 1, 2 and 8 threads must produce the
/// same sweep bytes and — because shard merging is commutative — the same
/// merged telemetry snapshot, whatever the claim interleaving.
#[test]
fn sweeps_and_telemetry_identical_across_scoped_pools() {
    let run_at = |threads: usize| {
        ThreadPool::new(threads).install(|| {
            let _session = telemetry::recording();
            let fp = fingerprint();
            (fp, telemetry::snapshot().render_text())
        })
    };
    let (fp_seq, telem_seq) = run_at(1);
    assert!(!telem_seq.is_empty(), "telemetry recorded something");
    for threads in [2, 8] {
        let (fp, telem) = run_at(threads);
        assert_eq!(fp, fp_seq, "sweep bytes diverge at {threads} threads");
        assert_eq!(
            telem, telem_seq,
            "merged telemetry snapshot diverges at {threads} threads"
        );
    }
}

#[test]
fn sweeps_identical_across_rayon_pool_sizes() {
    if std::env::var_os(CHILD_VAR).is_some() {
        // Child mode (RAYON_NUM_THREADS=1): emit the fingerprint and stop.
        println!("{}{}{}", FP_BEGIN, fingerprint(), FP_END);
        return;
    }

    // Default pool. The sweep runs inside a telemetry session: sessions are
    // exclusive, so its counters cannot leak into the scoped-pool test's
    // session when the test harness runs the two tests concurrently.
    let parent = {
        let _session = telemetry::recording();
        fingerprint()
    };

    let exe = std::env::current_exe().expect("test executable path");
    let out = std::process::Command::new(exe)
        .args([
            "--exact",
            "sweeps_identical_across_rayon_pool_sizes",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(CHILD_VAR, "1")
        .env("RAYON_NUM_THREADS", "1")
        .output()
        .expect("spawn single-threaded child");
    assert!(
        out.status.success(),
        "child run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let begin = stdout.find(FP_BEGIN).expect("begin marker") + FP_BEGIN.len();
    let end = stdout.find(FP_END).expect("end marker");
    assert_eq!(
        &stdout[begin..end],
        parent,
        "sweep results diverge between RAYON_NUM_THREADS=1 and the default pool"
    );
}
