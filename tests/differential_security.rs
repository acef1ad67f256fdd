//! Differential security regression suite — the headline pin of the
//! coordinated-adversary campaign library.
//!
//! For every campaign kind, the *same* hostile scenario (same seed, same
//! topology, same campaign window) runs twice: once under SSTSP and once
//! under plain, unauthenticated TSF. The goldens pinned here are the
//! paper's security claim in executable form:
//!
//! * Colluding adversaries can capture the reference *role* under SSTSP
//!   but can never steer accepted time past the guard bound (δ = 300 µs);
//!   at worst they mount a detected beacon-rejection DoS under which
//!   honest clocks free-run. After every campaign the network re-converges
//!   to the paper's ≤ 25 µs synchronization criterion.
//! * TSF, facing the identical adversaries on the identical seed, absorbs
//!   the forged timestamps — driven several multiples past the guard
//!   bound — and never returns to the synchronization criterion.
//!
//! Campaign runs take the engine's one beacon-period loop like every other
//! run (members have no static intent, so the loop makes their real
//! `intent()` calls), so each drill also pins `engine.path.fast == 1` plus
//! the `campaign.tx` counter proving the adversaries actually transmitted.
//! Determinism of the hostile runs is pinned byte-exactly;
//! `scripts/check.sh` re-runs this suite at `RAYON_NUM_THREADS` = 1, 2
//! and 8.

use simcore::SimTime;
use sstsp::scenario::{CampaignKind, CampaignSpec, TopologySpec};
use sstsp::{Network, ProtocolKind, RunResult, ScenarioConfig};
use sstsp_telemetry as telemetry;

/// δ_fine from `ProtocolConfig::paper()`: the guard-time bound on how far
/// any accepted timestamp may sit from the receiver's own clock.
const GUARD_BOUND_US: f64 = 300.0;

/// The paper's "network synchronized" criterion (≤ 25 µs spread).
const SYNC_CRITERION_US: f64 = 25.0;

/// The hostile scenario for one campaign: single-hop IBSS (n = 12) or the
/// 2-domain bridged mesh (2·3·2 islands + 1 gateway = 13 stations, where
/// SSTSP runs per-domain reference election).
fn hostile(kind: ProtocolKind, campaign: CampaignSpec, bridged: bool) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(kind, if bridged { 13 } else { 12 }, 25.0, 7);
    if bridged {
        cfg.topology = Some(TopologySpec::Bridged {
            domains: 2,
            cols: 3,
            rows: 2,
        });
    }
    cfg.campaign = Some(campaign);
    cfg
}

/// Run one hostile scenario under a fresh telemetry session and verify the
/// engine-path and campaign counters every campaign run must produce.
fn run_hostile(cfg: &ScenarioConfig, label: &str) -> RunResult {
    let _session = telemetry::recording();
    let r = Network::build(cfg).run();
    let snap = telemetry::snapshot();
    assert_eq!(
        snap.counter("engine.path.fast"),
        1,
        "{label}: campaign runs take the engine's one beacon-period loop"
    );
    assert!(
        snap.counter("campaign.tx") > 0,
        "{label}: campaign members never transmitted"
    );
    r
}

/// Maximum network spread over `[from, to]` seconds.
fn spread_max(r: &RunResult, from: u64, to: u64) -> f64 {
    r.spread
        .max_in(SimTime::from_secs(from), SimTime::from_secs(to))
        .expect("window holds samples")
}

/// The recovery differential shared by every campaign kind: after the
/// campaign window SSTSP re-converges to the paper's criterion while TSF,
/// hit by the identical adversaries, never does.
fn assert_recovery_differential(name: &str, sstsp: &RunResult, tsf: &RunResult, tail_from: u64) {
    let sstsp_tail = spread_max(sstsp, tail_from, 25);
    assert!(
        sstsp_tail < SYNC_CRITERION_US,
        "{name}: SSTSP failed to re-converge after the campaign \
         ({sstsp_tail:.1} µs > {SYNC_CRITERION_US} µs)"
    );
    let tsf_tail = spread_max(tsf, tail_from, 25);
    assert!(
        tsf_tail > SYNC_CRITERION_US && tsf_tail > 4.0 * sstsp_tail,
        "{name}: TSF recovered too well after the campaign \
         (TSF {tsf_tail:.1} µs vs SSTSP {sstsp_tail:.1} µs)"
    );
}

/// A three-station fast-beacon + replay coalition on the single-hop IBSS:
/// the leader floods poisoned timestamps (800 µs past δ), amplifiers
/// replay them two BPs later. SSTSP lets the coalition win the reference
/// *role* while the guard rejects its influence; TSF absorbs the lies.
#[test]
fn coalition_differential_sstsp_holds_tsf_diverges() {
    let campaign = CampaignSpec {
        kind: CampaignKind::Coalition {
            error_us: 800.0,
            delay_bps: 2,
        },
        attackers: 3,
        start_s: 10.0,
        end_s: 20.0,
    };
    let sstsp = run_hostile(
        &hostile(ProtocolKind::Sstsp, campaign, false),
        "coalition/sstsp",
    );
    let tsf = run_hostile(
        &hostile(ProtocolKind::Tsf, campaign, false),
        "coalition/tsf",
    );

    // Inside the campaign window SSTSP's spread never escapes the guard
    // bound, while TSF is driven several multiples past it.
    let sstsp_window = spread_max(&sstsp, 10, 20);
    assert!(
        sstsp_window < GUARD_BOUND_US,
        "coalition: SSTSP spread {sstsp_window:.1} µs during the campaign \
         escaped the guard bound ({GUARD_BOUND_US} µs)"
    );
    let tsf_window = spread_max(&tsf, 10, 20);
    assert!(
        tsf_window > 3.0 * GUARD_BOUND_US,
        "coalition: TSF was expected to diverge ≥ 3× past the guard bound, \
         got {tsf_window:.1} µs — differential collapsed"
    );
    assert_recovery_differential("coalition", &sstsp, &tsf, 21);

    // The coalition's fast beacons win the reference role — exactly the
    // paper's threat model: role capture is allowed, time capture is not.
    assert!(
        sstsp.attacker_became_reference,
        "coalition leader should capture the reference role under SSTSP"
    );
    assert!(
        sstsp.guard_rejections > 100,
        "SSTSP's guard should reject the coalition's poisoned timestamps \
         (got {} rejections)",
        sstsp.guard_rejections
    );
}

/// A Sybil candidacy flood against the bridged mesh's per-domain
/// elections: two flooders in the far island contest every election from
/// t = 0 with deterministically earlier candidacy slots and grossly wrong
/// clocks (1.5 ms). The flood *wins its domain's election* — role capture
/// — but the guard converts its reign into a detected DoS: honest
/// stations reject every poisoned beacon and free-run until the campaign
/// ends, then re-converge. TSF on the same mesh absorbs the forgeries and
/// never synchronizes.
#[test]
fn sybil_flood_differential_on_bridged_mesh() {
    let campaign = CampaignSpec {
        kind: CampaignKind::SybilFlood { error_us: 1500.0 },
        attackers: 2,
        start_s: 0.0,
        end_s: 15.0,
    };
    let cfg = hostile(ProtocolKind::Sstsp, campaign, true);
    let members = cfg.campaign_member_ids();
    let sstsp = run_hostile(&cfg, "sybil/sstsp");
    let tsf = run_hostile(&hostile(ProtocolKind::Tsf, campaign, true), "sybil/tsf");

    // Role capture: a flooder holds the far domain's reference seat.
    let domains = sstsp
        .domain_report
        .as_deref()
        .expect("bridged run reports domains");
    let captured = domains
        .iter()
        .filter_map(|d| d.final_reference)
        .filter(|r| members.contains(r))
        .count();
    assert!(
        captured > 0,
        "sybil: flood should win its domain's election (members {members:?}, \
         report {domains:?})"
    );

    // ... but not time capture: the guard rejects the flooder's 1.5 ms
    // timestamps, and the honest majority at worst free-runs — it never
    // absorbs the forged offset on top of its own drift.
    assert!(
        sstsp.guard_rejections > 0,
        "sybil: guard should reject the flooder's poisoned beacons"
    );
    let sstsp_window = spread_max(&sstsp, 2, 14);
    let tsf_window = spread_max(&tsf, 2, 14);
    assert!(
        sstsp_window < tsf_window,
        "sybil: SSTSP under detected DoS ({sstsp_window:.1} µs) should stay \
         below TSF absorbing the forgeries ({tsf_window:.1} µs)"
    );
    assert_recovery_differential("sybil", &sstsp, &tsf, 20);
}

/// A reactive jammer that fires only in the current reference's beacon
/// slot, tracking re-elections across the bridged mesh. SSTSP degrades
/// (the reference's beacons collide) but stays inside the guard bound and
/// recovers; TSF's islands free-run apart.
#[test]
fn reference_slot_jammer_differential_on_bridged_mesh() {
    let campaign = CampaignSpec {
        kind: CampaignKind::RefSlotJam,
        attackers: 1,
        start_s: 10.0,
        end_s: 20.0,
    };
    let sstsp = run_hostile(
        &hostile(ProtocolKind::Sstsp, campaign, true),
        "jamref/sstsp",
    );
    let tsf = run_hostile(&hostile(ProtocolKind::Tsf, campaign, true), "jamref/tsf");

    let sstsp_window = spread_max(&sstsp, 10, 20);
    assert!(
        sstsp_window < GUARD_BOUND_US,
        "jamref: SSTSP spread {sstsp_window:.1} µs during the jam escaped \
         the guard bound ({GUARD_BOUND_US} µs)"
    );
    let tsf_window = spread_max(&tsf, 10, 20);
    assert!(
        tsf_window > 3.0 * GUARD_BOUND_US,
        "jamref: TSF was expected to diverge ≥ 3× past the guard bound, \
         got {tsf_window:.1} µs"
    );
    assert_recovery_differential("jamref", &sstsp, &tsf, 21);

    // The jammer manufactures collisions in the reference slot — visible
    // as a collision count far above the calm bridged baseline.
    let mut calm = hostile(ProtocolKind::Sstsp, campaign, true);
    calm.campaign = None;
    // Inside a session of its own, like every run in this binary: the
    // telemetry registry is process-global, and an unsessioned run would
    // leak counters into a concurrently running test's session.
    let baseline = {
        let _session = telemetry::recording();
        Network::build(&calm).run()
    };
    assert!(
        sstsp.tx_collisions > baseline.tx_collisions + 50,
        "jammer should force reference-slot collisions \
         (jammed {} vs calm {})",
        sstsp.tx_collisions,
        baseline.tx_collisions
    );
}

/// Hostile runs are exactly as reproducible as calm ones: byte-identical
/// spread series and identical counters on a re-run. (Thread-count
/// independence of the same configs is pinned in
/// `crates/core/tests/thread_determinism.rs`; check.sh re-runs this suite
/// at RAYON_NUM_THREADS = 1, 2 and 8.)
#[test]
fn hostile_differential_runs_are_deterministic() {
    let campaign = CampaignSpec {
        kind: CampaignKind::Coalition {
            error_us: 800.0,
            delay_bps: 2,
        },
        attackers: 3,
        start_s: 10.0,
        end_s: 20.0,
    };
    // Session held only to keep these runs out of concurrent tests'
    // counter pins (see the jamref baseline above).
    let _session = telemetry::recording();
    for kind in [ProtocolKind::Sstsp, ProtocolKind::Tsf] {
        let cfg = hostile(kind, campaign, false);
        let a = Network::build(&cfg).run();
        let b = Network::build(&cfg).run();
        let bits =
            |r: &RunResult| -> Vec<u64> { r.spread.values().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&a), bits(&b), "{kind:?}: spread series diverged");
        assert_eq!(a.guard_rejections, b.guard_rejections);
        assert_eq!(a.tx_collisions, b.tx_collisions);
        assert_eq!(a.reference_changes, b.reference_changes);
        assert_eq!(a.attacker_became_reference, b.attacker_became_reference);
    }
}
