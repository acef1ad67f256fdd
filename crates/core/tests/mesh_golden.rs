//! Mesh golden pins: the 2-domain grid-with-bridge scenario, plus the
//! per-domain election on a 4-domain mesh.
//!
//! This is the canonical multi-collision-domain shape — two 3×2 full-mesh
//! islands joined by one gateway station (n = 13) — and these constants pin
//! everything observable about it: the run summary, a sampled spread
//! trajectory, the per-domain report, the complete per-domain election
//! transcript, and the telemetry counters of the domain-election machinery.
//! A chain of four 5×5 islands (n = 103) checks that the election also
//! settles when domains have two gateways each.
//! `scripts/check.sh` re-runs the thread-determinism suite (which
//! fingerprints this same scenario) at RAYON_NUM_THREADS=1,2,8, so the pins
//! here are pool-size independent by construction.
//!
//! Regenerate after an intentional behavior change with:
//!
//! ```text
//! cargo test --release -p sstsp --test mesh_golden -- --ignored --nocapture
//! ```

use sstsp::scenario::TopologySpec;
use sstsp::{Network, ProtocolKind, ScenarioConfig, TraceRecorder};
use sstsp_telemetry::TraceEvent;

const DURATION_S: f64 = 12.0;
const SEED: u64 = 7;

/// Bridged mesh: 2 islands of 3×2 stations + 1 gateway = 13 stations.
/// Island 0 = ids 0..6, island 1 = ids 6..12, gateway = id 12.
fn mesh_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(ProtocolKind::Sstsp, 13, DURATION_S, SEED);
    cfg.topology = Some(TopologySpec::Bridged {
        domains: 2,
        cols: 3,
        rows: 2,
    });
    cfg
}

/// Run summary pin: (peak_spread_us, sync_latency_s, steady_error_us,
/// tx_successes, tx_collisions, silent_windows, reference_changes,
/// retargets, final_reference).
#[allow(clippy::type_complexity)]
#[rustfmt::skip]
const GOLDEN_SUMMARY: (f64, Option<f64>, Option<f64>, u64, u64, u64, u64, u64, Option<u32>) =
    (312.53608422121033, Some(1.999999), Some(19.332709528971463), 329, 0, 10, 1, 1295, Some(0));

/// Spread trajectory pin: (BP-end sample index, spread µs) — early
/// acquisition, the mid-run regime, and the converged tail.
#[rustfmt::skip]
const GOLDEN_SPREAD_SAMPLES: [(usize, f64); 5] = [
    (9, 312.53608422121033),
    (29, 4.101147504989058),
    (59, 3.557647348381579),
    (89, 3.6308596190065145),
    (119, 2.4383700229227543),
];

/// Per-domain report pin: (domain, nodes, final_reference, end_spread_us).
#[rustfmt::skip]
const GOLDEN_DOMAINS: [(u32, u32, Option<u32>, Option<f64>); 2] = [
    (0, 7, Some(0), Some(1.8546539135277271)),
    (1, 6, Some(6), Some(0.7234471794217825)),
];

/// The complete per-domain election transcript: (bp, domain, from, to).
#[rustfmt::skip]
const GOLDEN_ELECTIONS: [(u64, u32, Option<u32>, Option<u32>); 2] = [
    (11, 0, None, Some(0)),
    (11, 1, None, Some(6)),
];

/// Telemetry pins for the domain-election machinery: (counter, total).
/// `engine.path.fast == 1` counts the one traced run: with the
/// `TraceRecorder` attached, the bridged mesh takes the engine's single
/// beacon-period loop like any other run.
#[rustfmt::skip]
const GOLDEN_COUNTERS: [(&str, u64); 3] = [
    ("engine.path.fast", 1),
    ("sstsp.subordinate", 1),
    ("sstsp.sovereign_revert", 0),
];

#[test]
fn bridged_mesh_matches_recorded_goldens() {
    let cfg = mesh_cfg();
    let _rec = sstsp_telemetry::recording();
    let mut tracer = TraceRecorder::new();
    let r = Network::build(&cfg).run_with_hook(&mut tracer);
    let snap = sstsp_telemetry::snapshot();

    // --- Run summary ---------------------------------------------------
    let (peak, latency, steady, successes, collisions, silent, ref_changes, retargets, final_ref) =
        GOLDEN_SUMMARY;
    assert_eq!(r.peak_spread_us, peak, "peak_spread_us");
    assert_eq!(r.sync_latency_s, latency, "sync_latency_s");
    assert_eq!(r.steady_error_us, steady, "steady_error_us");
    assert_eq!(r.tx_successes, successes, "tx_successes");
    assert_eq!(r.tx_collisions, collisions, "tx_collisions");
    assert_eq!(r.silent_windows, silent, "silent_windows");
    assert_eq!(r.reference_changes, ref_changes, "reference_changes");
    assert_eq!(r.retargets, retargets, "retargets");
    assert_eq!(r.final_reference, final_ref, "final_reference");

    // --- Spread trajectory ---------------------------------------------
    let spread = r.spread.values();
    assert_eq!(spread.len(), cfg.total_bps() as usize, "spread series len");
    for &(i, v) in &GOLDEN_SPREAD_SAMPLES {
        assert_eq!(
            spread[i].to_bits(),
            v.to_bits(),
            "spread sample at index {i}"
        );
    }

    // --- Per-domain report ----------------------------------------------
    let report = r.domain_report.as_ref().expect("mesh run reports domains");
    assert_eq!(report.len(), GOLDEN_DOMAINS.len(), "domain count");
    for (d, &(domain, nodes, final_reference, end_spread_us)) in
        report.iter().zip(GOLDEN_DOMAINS.iter())
    {
        assert_eq!(d.domain, domain);
        assert_eq!(d.nodes, nodes, "domain {domain}: nodes");
        assert_eq!(
            d.final_reference, final_reference,
            "domain {domain}: final_reference"
        );
        assert_eq!(
            d.end_spread_us.map(f64::to_bits),
            end_spread_us.map(f64::to_bits),
            "domain {domain}: end_spread_us"
        );
    }
    // A *distinct* reference per domain, and both converged tight.
    let refs: Vec<_> = report.iter().filter_map(|d| d.final_reference).collect();
    assert_eq!(refs.len(), 2, "every domain holds a reference at run end");
    assert_ne!(refs[0], refs[1], "the domains elect distinct references");
    for d in report {
        assert!(
            d.end_spread_us.expect("domain converged") < 50.0,
            "domain {} spread under the coarse guard",
            d.domain
        );
    }

    // --- Election transcript --------------------------------------------
    let elections: Vec<_> = tracer
        .events()
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::DomainRefChange {
                bp,
                domain,
                from,
                to,
            } => Some((bp, domain, from, to)),
            _ => None,
        })
        .collect();
    assert_eq!(elections, GOLDEN_ELECTIONS, "domain election transcript");

    // --- Telemetry ------------------------------------------------------
    for &(key, total) in &GOLDEN_COUNTERS {
        assert_eq!(snap.counter(key), total, "counter {key}");
    }
}

#[test]
fn four_domain_mesh_elects_a_distinct_reference_per_domain() {
    let mut cfg = ScenarioConfig::new(ProtocolKind::Sstsp, 103, 5.0, 2006);
    cfg.topology = Some(TopologySpec::Bridged {
        domains: 4,
        cols: 5,
        rows: 5,
    });
    // Telemetry is process-wide: hold the session so this run cannot add
    // to the counters the golden test above pins.
    let _rec = sstsp_telemetry::recording();
    let r = Network::build(&cfg).run();
    let report = r.domain_report.expect("mesh run reports domains");
    assert_eq!(report.len(), 4, "domain count: {report:?}");
    let mut refs: Vec<u32> = report.iter().filter_map(|d| d.final_reference).collect();
    assert_eq!(
        refs.len(),
        4,
        "a domain ended without a reference: {report:?}"
    );
    refs.sort_unstable();
    refs.dedup();
    assert_eq!(refs.len(), 4, "two domains share a reference: {report:?}");
}

/// Generator: prints current values in the constants' layout.
#[test]
#[ignore = "generator — run with --ignored --nocapture to refresh the pins"]
fn print_mesh_goldens() {
    let cfg = mesh_cfg();
    let _rec = sstsp_telemetry::recording();
    let mut tracer = TraceRecorder::new();
    let r = Network::build(&cfg).run_with_hook(&mut tracer);
    let snap = sstsp_telemetry::snapshot();
    println!(
        "GOLDEN_SUMMARY: ({:?}, {:?}, {:?}, {}, {}, {}, {}, {}, {:?})",
        r.peak_spread_us,
        r.sync_latency_s,
        r.steady_error_us,
        r.tx_successes,
        r.tx_collisions,
        r.silent_windows,
        r.reference_changes,
        r.retargets,
        r.final_reference,
    );
    println!("GOLDEN_SPREAD_SAMPLES:");
    for i in [9usize, 29, 59, 89, 119] {
        println!("    ({i}, {:?}),", r.spread.values()[i]);
    }
    println!("GOLDEN_DOMAINS:");
    for d in r.domain_report.as_deref().unwrap_or_default() {
        println!(
            "    ({}, {}, {:?}, {:?}),",
            d.domain, d.nodes, d.final_reference, d.end_spread_us
        );
    }
    println!("GOLDEN_ELECTIONS:");
    for ev in tracer.events() {
        if let TraceEvent::DomainRefChange {
            bp,
            domain,
            from,
            to,
        } = ev
        {
            println!("    ({bp}, {domain}, {from:?}, {to:?}),");
        }
    }
    println!("GOLDEN_COUNTERS:");
    for key in [
        "engine.path.fast",
        "sstsp.subordinate",
        "sstsp.sovereign_revert",
    ] {
        println!("    ({key:?}, {}),", snap.counter(key));
    }
}
