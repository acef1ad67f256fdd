//! The fault matrix: one representative plan per fault class, each run
//! under the invariant checker at the repo's quick-fidelity defaults.
//!
//! This is the table EXPERIMENTS.md's "Fault matrix" section reports and
//! the smoke run `scripts/check.sh` executes: every fault class must leave
//! all four invariants intact (a correct implementation rejects or absorbs
//! the fault; it never accepts what it must not).

use rayon::prelude::*;

use sstsp::scenario::{CampaignKind, CampaignSpec, TopologySpec};

use crate::harness::run_case;
use crate::plan::{CorruptField, FaultEvent, FaultKind, FaultPlan, FuzzCase};

/// One row of the fault matrix.
#[derive(Debug)]
pub struct MatrixRow {
    /// Fault class label.
    pub label: &'static str,
    /// The case that was run (printable as a replay spec).
    pub case: FuzzCase,
    /// Invariant violations (must be empty).
    pub violations: usize,
    /// Whether the network was synchronized under the 25 µs criterion at
    /// some point (shows the fault hit a live network).
    pub synced: bool,
    /// Peak spread observed, µs (shows the fault actually disturbed).
    pub peak_spread_us: f64,
}

fn case_with(label_seed: u64, events: Vec<FaultEvent>) -> FuzzCase {
    let mut case = FuzzCase::base(12, 30.0, 7);
    case.plan = FaultPlan {
        seed: label_seed,
        events,
    };
    case
}

/// A fault-free case carrying a coordinated-adversary campaign (and
/// optionally the bridged mesh its kind targets).
fn campaign_case(label_seed: u64, mesh: Option<TopologySpec>, campaign: CampaignSpec) -> FuzzCase {
    let mut case = case_with(label_seed, Vec::new());
    case.mesh = mesh;
    case.campaign = Some(campaign);
    case
}

/// The representative plan for every fault class. Windows sit after the
/// ~5 s election/convergence transient of a 12-station network.
pub fn matrix_cases() -> Vec<(&'static str, FuzzCase)> {
    let ev = |start_bp, end_bp, kind| FaultEvent {
        start_bp,
        end_bp,
        kind,
    };
    vec![
        (
            "burst loss 90 % for 5 s",
            case_with(1, vec![ev(80, 130, FaultKind::BurstLoss { p: 0.9 })]),
        ),
        (
            "timestamp bit-flips 50 %",
            case_with(
                2,
                vec![ev(
                    80,
                    130,
                    FaultKind::Corrupt {
                        field: CorruptField::Timestamp,
                        p: 0.5,
                    },
                )],
            ),
        ),
        (
            "MAC bit-flips 50 %",
            case_with(
                3,
                vec![ev(
                    80,
                    130,
                    FaultKind::Corrupt {
                        field: CorruptField::Mac,
                        p: 0.5,
                    },
                )],
            ),
        ),
        (
            "disclosed-key bit-flips 50 %",
            case_with(
                4,
                vec![ev(
                    80,
                    130,
                    FaultKind::Corrupt {
                        field: CorruptField::Disclosed,
                        p: 0.5,
                    },
                )],
            ),
        ),
        (
            "beacon truncation 50 %",
            case_with(
                5,
                vec![ev(
                    80,
                    130,
                    FaultKind::Corrupt {
                        field: CorruptField::Truncate,
                        p: 0.5,
                    },
                )],
            ),
        ),
        (
            "node crash + rejoin",
            case_with(
                6,
                vec![ev(
                    100,
                    100,
                    FaultKind::Crash {
                        node: 3,
                        rejoin_after_bps: Some(50),
                    },
                )],
            ),
        ),
        (
            "reference kill + rejoin",
            case_with(
                7,
                vec![ev(
                    100,
                    100,
                    FaultKind::KillReference {
                        rejoin_after_bps: Some(80),
                    },
                )],
            ),
        ),
        (
            "clock step −1 ms",
            case_with(
                8,
                vec![ev(
                    100,
                    100,
                    FaultKind::ClockStep {
                        node: 2,
                        delta_us: -1000.0,
                    },
                )],
            ),
        ),
        (
            "clock freeze for 8 s",
            case_with(9, vec![ev(100, 180, FaultKind::ClockFreeze { node: 2 })]),
        ),
        (
            "µTESLA disclosure loss 80 %",
            case_with(10, vec![ev(80, 130, FaultKind::DisclosureLoss { p: 0.8 })]),
        ),
        (
            "jamming for 4 s",
            case_with(11, vec![ev(100, 140, FaultKind::Jam)]),
        ),
        (
            "chain exhaustion at 20 s",
            case_with(
                12,
                vec![ev(200, 300, FaultKind::ChainExhaust { intervals: 200 })],
            ),
        ),
        (
            "coalition: fast-beacon + replay ×3",
            campaign_case(
                13,
                None,
                CampaignSpec {
                    kind: CampaignKind::Coalition {
                        error_us: 800.0,
                        delay_bps: 2,
                    },
                    attackers: 3,
                    start_s: 10.0,
                    end_s: 20.0,
                },
            ),
        ),
        (
            "Sybil candidacy flood (bridged)",
            campaign_case(
                14,
                Some(TopologySpec::Bridged {
                    domains: 2,
                    cols: 3,
                    rows: 2,
                }),
                // The window covers t = 0 so the flood contests the
                // initial per-domain election (candidacy beacons only
                // fire while an election is open).
                CampaignSpec {
                    kind: CampaignKind::SybilFlood { error_us: 1500.0 },
                    attackers: 2,
                    start_s: 0.0,
                    end_s: 15.0,
                },
            ),
        ),
        (
            "reference-slot jammer (bridged)",
            campaign_case(
                15,
                Some(TopologySpec::Bridged {
                    domains: 2,
                    cols: 3,
                    rows: 2,
                }),
                CampaignSpec {
                    kind: CampaignKind::RefSlotJam,
                    attackers: 1,
                    start_s: 10.0,
                    end_s: 20.0,
                },
            ),
        ),
    ]
}

/// Run the full matrix, returning one row per fault class.
///
/// Rows are computed in parallel on the current rayon pool — each case is
/// a pure function of its plan, and `collect` preserves input order — so
/// the table is byte-identical to a sequential run at any pool size.
pub fn run_matrix() -> Vec<MatrixRow> {
    let cases = matrix_cases();
    cases
        .par_iter()
        .map(|&(label, ref case)| {
            let outcome = run_case(case);
            MatrixRow {
                label,
                violations: outcome.violations.len(),
                synced: outcome.result.sync_latency_s.is_some(),
                peak_spread_us: outcome.result.peak_spread_us,
                case: case.clone(),
            }
        })
        .collect()
}
