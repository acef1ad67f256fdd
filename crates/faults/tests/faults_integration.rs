//! Integration tests: every fault class runs under the invariant checker
//! without violations (the implementation rejects or absorbs the fault),
//! fault runs replay deterministically from their one-line specs, and the
//! network recovers where the paper says it should.

use sstsp_faults::harness::{run_case, run_case_traced};
use sstsp_faults::plan::{CorruptField, FaultEvent, FaultKind, FaultPlan, FuzzCase};
use sstsp_telemetry::TraceEvent;

fn case(seed: u64, events: Vec<FaultEvent>) -> FuzzCase {
    let mut case = FuzzCase::base(8, 20.0, 7);
    case.plan = FaultPlan { seed, events };
    case
}

fn ev(start_bp: u64, end_bp: u64, kind: FaultKind) -> FaultEvent {
    FaultEvent {
        start_bp,
        end_bp,
        kind,
    }
}

/// Run a case and assert the invariants held, with the violations in the
/// failure message.
fn assert_clean(case: &FuzzCase) {
    let outcome = run_case(case);
    assert!(
        outcome.violations.is_empty(),
        "case `{case}` violated invariants:\n{}",
        outcome
            .violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn burst_loss_blackout_recovers_clean() {
    // 90 % loss for 5 s: beacons mostly vanish, the synced set thins, and
    // the network must re-converge after the burst without any invariant
    // breach along the way.
    let c = case(1, vec![ev(60, 110, FaultKind::BurstLoss { p: 0.9 })]);
    let outcome = run_case(&c);
    assert!(outcome.violations.is_empty());
    assert!(
        outcome.result.sync_latency_s.is_some(),
        "network synchronized at some point"
    );
}

#[test]
fn corruption_of_every_field_is_rejected_not_accepted() {
    for field in [
        CorruptField::Timestamp,
        CorruptField::Mac,
        CorruptField::Disclosed,
        CorruptField::Truncate,
    ] {
        let c = case(2, vec![ev(60, 120, FaultKind::Corrupt { field, p: 0.6 })]);
        assert_clean(&c);
    }
}

#[test]
fn crash_rejoin_and_reference_kill_stay_clean() {
    let c = case(
        3,
        vec![
            ev(
                70,
                70,
                FaultKind::Crash {
                    node: 3,
                    rejoin_after_bps: Some(40),
                },
            ),
            ev(
                110,
                110,
                FaultKind::KillReference {
                    rejoin_after_bps: Some(50),
                },
            ),
        ],
    );
    let outcome = run_case(&c);
    assert!(outcome.violations.is_empty());
    // Killing the reference forces a re-election.
    assert!(outcome.result.reference_changes >= 2);
}

#[test]
fn second_crash_of_an_absent_station_moves_its_return() {
    // Station 3 crashes at BP 50 to return 20 BPs later (BP 70), then is
    // crashed again at BP 55 while still down. A permanent second crash
    // cancels the return; a timed one keeps the later return, BP 95.
    let first_rx_after_50 = |rejoin: &str| {
        let c: FuzzCase = format!(
            "n=8 dur=12 seed=7 m=4 delta=300 plan=0 crash@50..50:node=3,rejoin=20 \
             crash@55..55:node=3,rejoin={rejoin}"
        )
        .parse()
        .expect("spec parses");
        run_case_traced(&c).events.iter().find_map(|e| match e {
            TraceEvent::BeaconRx { bp, dst: 3, .. } if *bp > 50 => Some(*bp),
            _ => None,
        })
    };
    assert_eq!(first_rx_after_50("never"), None, "station 3 came back");
    assert_eq!(first_rx_after_50("40"), Some(95));
}

#[test]
fn clock_glitches_are_exempted_not_flagged() {
    let c = case(
        4,
        vec![
            ev(
                80,
                80,
                FaultKind::ClockStep {
                    node: 2,
                    delta_us: -1500.0,
                },
            ),
            ev(120, 160, FaultKind::ClockFreeze { node: 5 }),
        ],
    );
    assert_clean(&c);
}

#[test]
fn disclosure_loss_is_absorbed_by_chain_recovery() {
    // 80 % of secured beacons dropped at receivers: disclosures go missing
    // and the verifier's chain-walk recovery must authenticate the backlog
    // without ever accepting a stale key.
    let c = case(5, vec![ev(60, 120, FaultKind::DisclosureLoss { p: 0.8 })]);
    assert_clean(&c);
}

#[test]
fn jam_and_chain_exhaustion_stay_clean() {
    let c = case(6, vec![ev(80, 120, FaultKind::Jam)]);
    assert_clean(&c);

    // The fault-layer jam persists from its `SetJammed(true)` BP to its
    // release: the engine must keep the channel jammed on every BP of the
    // span, including the ones the scenario itself leaves quiet. Every
    // span BP is disturbed and carries no transmission, and the jammed
    // window count is pinned (32 of the 41 span BPs had a would-be sender;
    // a quiet-BP skip that released the jam after its first BP counts 1).
    let traced = run_case_traced(&c);
    assert_eq!(traced.result.jammed_windows, 32, "jammed windows");
    for bp in 80..=120 {
        assert!(
            traced
                .events
                .iter()
                .any(|e| matches!(e, TraceEvent::BpEnd { bp: b, disturbed: true, .. } if *b == bp)),
            "BP {bp} inside the jam span is not marked disturbed"
        );
        assert!(
            !traced
                .events
                .iter()
                .any(|e| matches!(e, TraceEvent::BeaconTx { bp: b, .. } if *b == bp)),
            "a beacon went out at BP {bp} inside the jam span"
        );
    }

    // Chains sized for half the run: past exhaustion nothing is
    // authenticatable and nothing may be accepted (the checker's
    // key-freshness invariant watches exactly that).
    let c = case(
        7,
        vec![ev(100, 199, FaultKind::ChainExhaust { intervals: 100 })],
    );
    let outcome = run_case(&c);
    assert!(outcome.violations.is_empty());
    assert!(
        outcome.result.sync_latency_s.is_some(),
        "synchronized before exhaustion"
    );
}

#[test]
fn fault_runs_replay_deterministically_from_spec() {
    let c = case(
        8,
        vec![
            ev(50, 100, FaultKind::BurstLoss { p: 0.5 }),
            ev(
                80,
                80,
                FaultKind::ClockStep {
                    node: 1,
                    delta_us: 300.0,
                },
            ),
            ev(
                110,
                150,
                FaultKind::Corrupt {
                    field: CorruptField::Mac,
                    p: 0.4,
                },
            ),
        ],
    );
    let spec = c.to_string();
    let reparsed: FuzzCase = spec.parse().expect("spec parses");
    assert_eq!(reparsed, c);
    let a = run_case(&c);
    let b = run_case(&reparsed);
    assert_eq!(
        a.result.spread.values(),
        b.result.spread.values(),
        "same spec, same trajectory"
    );
    assert_eq!(a.result.tx_successes, b.result.tx_successes);
    assert_eq!(a.violations.len(), b.violations.len());
}

#[test]
fn fault_free_harness_run_matches_plain_run() {
    // A harness with an empty plan must not perturb the run at all.
    let c = FuzzCase::base(8, 15.0, 42);
    let scenario = c.scenario();
    let plain = sstsp::engine::Network::build(&scenario).run();
    let outcome = run_case(&c);
    assert_eq!(plain.spread.values(), outcome.result.spread.values());
    assert_eq!(plain.tx_successes, outcome.result.tx_successes);
    assert!(outcome.violations.is_empty());
}
