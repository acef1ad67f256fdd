//! Golden determinism: fixed-seed runs must reproduce recorded summary
//! values bit-for-bit, for every protocol.
//!
//! These constants pin the observable behavior of the engine hot loop, the
//! RNG streams, and the µTESLA crypto path. Any refactor that claims to be
//! behavior-preserving (allocation hoisting, verifier caching, event-queue
//! internals) must leave them untouched; a legitimate behavior change must
//! update them *and* say why in the commit.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! cargo test --release -p sstsp --test golden_determinism -- --ignored --nocapture
//! ```
//!
//! and paste the printed table over `GOLDENS`.

use sstsp::scenario::{CampaignKind, CampaignSpec, TopologySpec};
use sstsp::{
    AttackerSpec, ChurnConfig, InvariantChecker, Network, NoopHook, ProtocolKind, ScenarioConfig,
    TraceRecorder,
};

const N_NODES: u32 = 8;
const DURATION_S: f64 = 12.0;
const SEED: u64 = 7;

/// Recorded summary per protocol: (kind, peak_spread_us, sync_latency_s,
/// steady_error_us, tx_successes, tx_collisions, silent_windows,
/// reference_changes, guard_rejections, mutesla_rejections, retargets,
/// final_reference).
type Golden = (
    ProtocolKind,
    f64,
    Option<f64>,
    Option<f64>,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    Option<u32>,
);

#[rustfmt::skip]
const GOLDENS: [Golden; 7] = [
    (ProtocolKind::Tsf, 112.6717169759795, Some(4.599999), Some(112.6717169759795), 103, 17, 0, 0, 0, 0, 0, None),
    (ProtocolKind::Atsp, 86.78270896099275, Some(0.399999), Some(34.74031974747777), 118, 2, 0, 0, 0, 0, 0, None),
    (ProtocolKind::Tatsp, 86.78270896099275, Some(0.399999), Some(28.897104548290372), 120, 0, 0, 0, 0, 0, 0, None),
    (ProtocolKind::Satsf, 196.97894508985337, Some(1.099999), Some(33.959499281831086), 113, 0, 7, 0, 0, 0, 0, None),
    (ProtocolKind::Asp, 187.35545515301055, Some(3.299999), Some(13.8130898270756), 105, 13, 2, 0, 0, 0, 0, None),
    (ProtocolKind::Rk, 171.21649383939803, Some(1.899999), Some(171.21649383939803), 61, 1, 58, 0, 0, 0, 0, None),
    (ProtocolKind::Sstsp, 218.49740660958923, Some(1.299999), Some(21.849832239560783), 118, 0, 2, 1, 0, 0, 812, Some(5)),
];

/// The engine-path variants pinned beyond the single-hop defaults:
/// a 12-station line topology (multi-hop relay path) and the reference-
/// change ablation path (reference leaves mid-run, l-window re-election).
#[rustfmt::skip]
const GOLDEN_MULTIHOP: Golden =
    (ProtocolKind::Sstsp, 1469.1320865955204, None, None, 858, 310, 12, 2, 0, 0, 891, Some(1));
#[rustfmt::skip]
const GOLDEN_ABLATION: Golden =
    (ProtocolKind::Sstsp, 229.77093229838647, Some(1.399999), Some(22.890236074104905), 114, 0, 6, 2, 0, 0, 714, Some(2));

/// The lone fast-beacon attacker of Figs. 3–4 on each protocol it is
/// built for, with whether it ever held the reference role.
#[rustfmt::skip]
const GOLDEN_ATTACKER: [(Golden, bool); 2] = [
    ((ProtocolKind::Sstsp, 218.49740660958923, Some(1.299999), Some(21.849832239560783), 116, 2, 2, 2, 0, 0, 748, Some(7)), true),
    ((ProtocolKind::Tsf, 202.51946105249226, None, None, 104, 16, 0, 0, 0, 0, 0, None), false),
];

/// Every protocol under churn and reference departures ([`churn_cfg`]):
/// stations leave and return, and a returning SSTSP station runs the
/// coarse phase again.
#[rustfmt::skip]
const GOLDEN_CHURN: [Golden; 7] = [
    (ProtocolKind::Tsf, 503.1922718854621, Some(5.899999), Some(503.1922718854621), 228, 72, 0, 0, 0, 0, 0, None),
    (ProtocolKind::Atsp, 452.71416719816625, Some(0.599999), Some(452.71416719816625), 281, 19, 0, 0, 0, 0, 0, None),
    (ProtocolKind::Tatsp, 677.842384243384, Some(0.599999), Some(677.842384243384), 298, 2, 0, 0, 0, 0, 0, None),
    (ProtocolKind::Satsf, 415.3910437114537, Some(1.299999), Some(415.3910437114537), 281, 12, 7, 0, 0, 0, 0, None),
    (ProtocolKind::Asp, 609.3976872768253, Some(0.999999), Some(609.3976872768253), 232, 67, 1, 0, 0, 0, 0, None),
    (ProtocolKind::Rk, 271.3604201711714, Some(1.999999), Some(271.3604201711714), 156, 4, 140, 0, 0, 0, 0, None),
    (ProtocolKind::Sstsp, 264.0611473740428, Some(1.399999), Some(20.02833997574635), 293, 0, 7, 3, 0, 0, 4659, Some(6)),
];

fn run(kind: ProtocolKind) -> sstsp::RunResult {
    let cfg = ScenarioConfig::new(kind, N_NODES, DURATION_S, SEED);
    Network::build(&cfg).run()
}

/// 12-station line, the multihop experiment's hardest per-hop case at
/// quick-fidelity scale.
fn multihop_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(ProtocolKind::Sstsp, 12, DURATION_S, SEED)
        .with_l(3)
        .with_m(6);
    cfg.topology = Some(TopologySpec::Line);
    cfg
}

/// Reference-change ablation shape: the elected reference leaves mid-run.
fn ablation_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(ProtocolKind::Sstsp, N_NODES, DURATION_S, SEED)
        .with_m(4)
        .with_l(2);
    cfg.ref_leaves_s = vec![6.0];
    cfg
}

/// The paper's departure shapes at 20 stations for 30 s: a fifth of the
/// stations leave every 5 s for 2 s, and the reference, for protocols that
/// elect one, leaves at 10 s and 20 s (for longer than the run is left).
fn churn_cfg(kind: ProtocolKind) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(kind, 20, 30.0, 3);
    cfg.churn = Some(ChurnConfig {
        period_s: 5.0,
        fraction: 0.2,
        absence_s: 2.0,
    });
    cfg.ref_leaves_s = vec![10.0, 20.0];
    cfg
}

/// The golden single-hop shape with the lone attacker (station n − 1)
/// active 4–8 s, its timestamps 30 µs slow.
fn attacker_cfg(kind: ProtocolKind) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(kind, N_NODES, DURATION_S, SEED);
    cfg.attacker = Some(AttackerSpec {
        start_s: 4.0,
        end_s: 8.0,
        error_us: 30.0,
    });
    cfg
}

fn assert_golden(r: &sstsp::RunResult, g: &Golden, name: &str) {
    let &(
        _,
        peak,
        latency,
        steady,
        successes,
        collisions,
        silent,
        ref_changes,
        guard,
        mutesla,
        retargets,
        final_ref,
    ) = g;
    assert_eq!(r.peak_spread_us, peak, "{name}: peak_spread_us");
    assert_eq!(r.sync_latency_s, latency, "{name}: sync_latency_s");
    assert_eq!(r.steady_error_us, steady, "{name}: steady_error_us");
    assert_eq!(r.tx_successes, successes, "{name}: tx_successes");
    assert_eq!(r.tx_collisions, collisions, "{name}: tx_collisions");
    assert_eq!(r.silent_windows, silent, "{name}: silent_windows");
    assert_eq!(
        r.reference_changes, ref_changes,
        "{name}: reference_changes"
    );
    assert_eq!(r.guard_rejections, guard, "{name}: guard_rejections");
    assert_eq!(r.mutesla_rejections, mutesla, "{name}: mutesla_rejections");
    assert_eq!(r.retargets, retargets, "{name}: retargets");
    assert_eq!(r.final_reference, final_ref, "{name}: final_reference");
}

#[test]
fn fixed_seed_runs_match_recorded_goldens() {
    for golden in &GOLDENS {
        let r = run(golden.0);
        assert_golden(&r, golden, golden.0.name());
    }
}

#[test]
fn fixed_seed_multihop_and_ablation_match_recorded_goldens() {
    let r = Network::build(&multihop_cfg()).run();
    assert_golden(&r, &GOLDEN_MULTIHOP, "multihop-line");
    let r = Network::build(&ablation_cfg()).run();
    assert_golden(&r, &GOLDEN_ABLATION, "ablation-refchange");
}

#[test]
fn fixed_seed_attacker_runs_match_recorded_goldens() {
    for (golden, captured) in &GOLDEN_ATTACKER {
        let r = Network::build(&attacker_cfg(golden.0)).run();
        let name = format!("{} attacker", golden.0.name());
        assert_golden(&r, golden, &name);
        assert_eq!(
            r.attacker_became_reference, *captured,
            "{name}: attacker_became_reference"
        );
    }
}

#[test]
fn fixed_seed_churn_runs_match_recorded_goldens() {
    for golden in &GOLDEN_CHURN {
        let r = Network::build(&churn_cfg(golden.0)).run();
        assert_golden(&r, golden, &format!("{} churn", golden.0.name()));
    }
}

/// Hook transparency: attaching a hook — the inert [`NoopHook`], the
/// passively recording [`TraceRecorder`], or the passively observing
/// [`InvariantChecker`] — must leave the run bit-identical to a plain one.
/// Every run takes the same beacon-period loop, so this covers every loop
/// shape: the golden single-hop, multi-hop line, ablation and churn
/// shapes, the bridged mesh (per-domain election), a coordinated-adversary
/// campaign (members without static intents) and the n = 1000 single-hop
/// regime.
/// This is what lets every experiment run invariant-checked and every run
/// be traced while the goldens above stay valid.
#[test]
fn hooked_runs_are_bit_identical_to_plain_runs() {
    let mut mesh = ScenarioConfig::new(ProtocolKind::Sstsp, 13, DURATION_S, SEED);
    mesh.topology = Some(TopologySpec::Bridged {
        domains: 2,
        cols: 3,
        rows: 2,
    });
    let mut campaign = ScenarioConfig::new(ProtocolKind::Sstsp, 12, DURATION_S, SEED);
    campaign.campaign = Some(CampaignSpec {
        kind: CampaignKind::Coalition {
            error_us: 800.0,
            delay_bps: 2,
        },
        attackers: 3,
        start_s: 5.0,
        end_s: 10.0,
    });
    let large = ScenarioConfig::new(ProtocolKind::Sstsp, 1000, 5.0, 2006);
    // (name, scenario, whether the invariant checker must find it clean).
    for (name, cfg, clean) in [
        (
            "single-hop",
            ScenarioConfig::new(ProtocolKind::Sstsp, N_NODES, DURATION_S, SEED),
            true,
        ),
        ("multihop-line", multihop_cfg(), true),
        ("ablation-refchange", ablation_cfg(), true),
        ("churn", churn_cfg(ProtocolKind::Sstsp), true),
        ("bridged-mesh", mesh, false),
        ("campaign", campaign, false),
        ("single-hop n=1000", large, false),
    ] {
        // `RunResult`'s Debug rendering covers every field, the full
        // spread series included, with floats printed round-trip exact.
        let plain = format!("{:?}", Network::build(&cfg).run());
        let noop = format!("{:?}", Network::build(&cfg).run_with_hook(&mut NoopHook));
        assert_eq!(plain, noop, "{name}: NoopHook run");
        let mut tracer = TraceRecorder::new();
        let traced = format!("{:?}", Network::build(&cfg).run_with_hook(&mut tracer));
        assert_eq!(plain, traced, "{name}: TraceRecorder run");
        assert!(
            tracer.events().len() as u64 > cfg.total_bps(),
            "{name}: the recorder saw the run"
        );
        let mut checker = InvariantChecker::for_scenario(&cfg);
        let audited = format!("{:?}", Network::build(&cfg).run_with_hook(&mut checker));
        assert_eq!(plain, audited, "{name}: InvariantChecker run");
        assert!(
            !clean || checker.violations().is_empty(),
            "{name}: default scenario must be violation-free: {:?}",
            checker.violations()
        );
    }
}

/// Telemetry transparency: enabling metrics recording (and attaching the
/// trace recorder) must leave runs bit-identical to the recorded goldens.
/// Telemetry observes through counters and the hook seam only — it never
/// touches the RNG streams or the event queue — so a recorded run IS the
/// plain run.
#[test]
fn telemetry_enabled_runs_match_recorded_goldens() {
    let _rec = sstsp_telemetry::recording();
    for golden in &GOLDENS {
        let r = run(golden.0);
        assert_golden(&r, golden, &format!("{} (telemetry on)", golden.0.name()));
    }
    let mut tracer = sstsp::TraceRecorder::new();
    let r = Network::build(&multihop_cfg()).run_with_hook(&mut tracer);
    assert_golden(&r, &GOLDEN_MULTIHOP, "multihop-line (traced)");
    let snap = sstsp_telemetry::snapshot();
    assert!(
        snap.counter("engine.beacon.tx") > 0,
        "recording session captured engine counters"
    );
}

/// Re-running the exact same scenario twice in-process must agree on the
/// full spread series, not only the summary (catches state leaking across
/// runs through reused buffers).
#[test]
fn back_to_back_runs_are_bit_identical() {
    for kind in [ProtocolKind::Tsf, ProtocolKind::Sstsp] {
        let a = run(kind);
        let b = run(kind);
        assert_eq!(
            a.spread.values(),
            b.spread.values(),
            "{}: spread series",
            kind.name()
        );
    }
}

/// Generator: prints the current values in `GOLDENS` layout.
#[test]
#[ignore = "generator — run with --ignored --nocapture to refresh GOLDENS"]
fn print_goldens() {
    for kind in ProtocolKind::ALL {
        print_golden(&run(kind), &format!("{kind:?}"));
    }
    println!("multihop-line / ablation-refchange:");
    print_golden(&Network::build(&multihop_cfg()).run(), "Sstsp");
    print_golden(&Network::build(&ablation_cfg()).run(), "Sstsp");
    println!("churn:");
    for kind in ProtocolKind::ALL {
        print_golden(
            &Network::build(&churn_cfg(kind)).run(),
            &format!("{kind:?}"),
        );
    }
    println!("attacker (golden row, attacker_became_reference):");
    for kind in [ProtocolKind::Sstsp, ProtocolKind::Tsf] {
        let r = Network::build(&attacker_cfg(kind)).run();
        print_golden(&r, &format!("{kind:?}"));
        println!("        -> {}", r.attacker_became_reference);
    }
}

#[allow(dead_code)]
fn print_golden(r: &sstsp::RunResult, kind: &str) {
    println!(
        "    (ProtocolKind::{kind}, {:?}, {:?}, {:?}, {}, {}, {}, {}, {}, {}, {}, {:?}),",
        r.peak_spread_us,
        r.sync_latency_s,
        r.steady_error_us,
        r.tx_successes,
        r.tx_collisions,
        r.silent_windows,
        r.reference_changes,
        r.guard_rejections,
        r.mutesla_rejections,
        r.retargets,
        r.final_reference,
    );
}
