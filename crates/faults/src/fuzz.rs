//! The scenario fuzzer: seeded random fault plans swept across N / m / δ.
//!
//! Each iteration derives a [`FuzzCase`] from the master seed alone
//! (ChaCha-backed, no ambient randomness), runs it under the fault harness,
//! and — on any invariant violation — greedily shrinks the case to a
//! minimal reproducer whose one-line spec is returned for replay. A clean
//! implementation fuzzes forever without a failure; the mutation sanity
//! test proves the loop actually detects planted bugs.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use rayon::prelude::*;
use sstsp::invariants::Violation;
use sstsp::scenario::TopologySpec;

use crate::harness::run_case;
use crate::plan::{CorruptField, FaultEvent, FaultKind, FaultPlan, FuzzCase};
use crate::shrink::shrink;

/// Fuzzer knobs. Defaults keep a full sweep under a couple of minutes.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of random cases to run.
    pub iterations: u32,
    /// Master seed; the whole sweep is a pure function of it.
    pub master_seed: u64,
    /// Maximum events per plan.
    pub max_events: usize,
    /// Fuzz mesh topologies: each case also draws a topology dimension
    /// (line / ring / bridged multi-domain) and may add a domain-targeted
    /// fault. `false` keeps the original single-hop stream byte-stable.
    pub mesh: bool,
    /// Fuzz coordinated-adversary campaigns: each case also draws a
    /// [`CampaignSpec`] (single-hop coalitions; bridged-mesh Sybil floods
    /// and reference-slot jammers). `false` keeps the other streams
    /// byte-stable. Takes precedence over `mesh` (campaign cases draw
    /// their own topology dimension).
    pub campaign: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iterations: 25,
            master_seed: 2006,
            max_events: 4,
            mesh: false,
            campaign: false,
        }
    }
}

/// A failing case found by the fuzzer, shrunk and ready to replay.
#[derive(Debug)]
pub struct FuzzFailure {
    /// The case as generated.
    pub original: FuzzCase,
    /// The case after shrinking (still failing).
    pub shrunk: FuzzCase,
    /// Violations the shrunk case produces.
    pub violations: Vec<Violation>,
}

/// Outcome of a fuzz sweep.
#[derive(Debug)]
pub struct FuzzReport {
    /// Cases actually executed.
    pub cases_run: u32,
    /// The first failure, if any (the sweep stops there).
    pub failure: Option<FuzzFailure>,
}

/// The N / m / δ grid the fuzzer samples from. Small networks and short
/// runs: fault bugs are reachability bugs, not scale bugs, and a small
/// failing case shrinks fast.
const NS: [u32; 4] = [6, 8, 12, 16];
const MS: [u32; 3] = [2, 4, 6];
const DELTAS: [f64; 3] = [200.0, 300.0, 500.0];

/// Derive the `i`-th random case from `rng`.
pub fn random_case(rng: &mut ChaCha12Rng, max_events: usize) -> FuzzCase {
    let n = NS[rng.random_range(0..NS.len())];
    let duration_s = rng.random_range(15u32..=35) as f64;
    let mut case = FuzzCase {
        n,
        duration_s,
        seed: rng.random_range(0..u64::MAX),
        m: MS[rng.random_range(0..MS.len())],
        guard_fine_us: DELTAS[rng.random_range(0..DELTAS.len())],
        mesh: None,
        campaign: None,
        plan: FaultPlan {
            seed: rng.random_range(0..u64::MAX),
            events: Vec::new(),
        },
    };
    let total_bps = case.total_bps();
    let n_events = rng.random_range(1..=max_events);
    for _ in 0..n_events {
        case.plan.events.push(random_event(rng, n, total_bps));
    }
    case
}

/// Derive a random *mesh* case: a plain [`random_case`] (consuming the
/// identical RNG prefix, so the single-hop stream stays byte-stable) plus a
/// topology dimension and, for bridged meshes, possibly one domain-targeted
/// fault. Node-targeted faults are retargeted modulo the topology's actual
/// station count (bridged meshes derive their own `n`).
pub fn random_mesh_case(rng: &mut ChaCha12Rng, max_events: usize) -> FuzzCase {
    let mut case = random_case(rng, max_events);
    let mesh = match rng.random_range(0..6u32) {
        0 => TopologySpec::Line,
        1 => TopologySpec::Ring,
        _ => TopologySpec::Bridged {
            domains: rng.random_range(2..=3),
            cols: rng.random_range(1..=3),
            rows: rng.random_range(1..=2),
        },
    };
    case.mesh = Some(mesh);
    let n = case.scenario().n_nodes;
    for ev in &mut case.plan.events {
        retarget_nodes(&mut ev.kind, n);
    }
    if let TopologySpec::Bridged { domains, .. } = mesh {
        if rng.random_bool(0.6) {
            let total_bps = case.total_bps();
            // Past BP 60 every domain has had time to elect a reference
            // worth crashing.
            let start_bp = rng.random_range(60..total_bps.saturating_sub(40).max(61));
            let rejoin = if rng.random_bool(0.7) {
                Some(rng.random_range(10..60))
            } else {
                None
            };
            let kind = if rng.random_bool(0.5) {
                FaultKind::CrashDomain {
                    domain: rng.random_range(0..domains),
                    rejoin_after_bps: rejoin,
                }
            } else {
                FaultKind::KillBridge {
                    bridge: rng.random_range(0..domains - 1),
                    rejoin_after_bps: rejoin,
                }
            };
            case.plan.events.push(FaultEvent {
                start_bp,
                end_bp: start_bp,
                kind,
            });
        }
    }
    case
}

/// Offsets the campaign fuzzer injects as the coalition's timestamp error,
/// straddling the δ grid ([`DELTAS`]) from well-under-guard to far past it.
const CAMPAIGN_ERRORS_US: [f64; 5] = [10.0, 30.0, 100.0, 800.0, 2000.0];

/// Derive a random *campaign* case: a plain [`random_case`] (consuming the
/// identical RNG prefix, so the other streams stay byte-stable) plus a
/// coordinated-adversary dimension — single-hop fast-beacon + replay
/// coalitions, or Sybil floods / reference-slot jammers against a bridged
/// mesh's per-domain elections.
pub fn random_campaign_case(rng: &mut ChaCha12Rng, max_events: usize) -> FuzzCase {
    use sstsp::scenario::CampaignKind;
    let mut case = random_case(rng, max_events);
    let error_us = CAMPAIGN_ERRORS_US[rng.random_range(0..CAMPAIGN_ERRORS_US.len())];
    let (kind, attackers) = match rng.random_range(0..3u32) {
        0 => (
            CampaignKind::Coalition {
                error_us,
                delay_bps: rng.random_range(1..=3),
            },
            rng.random_range(2..=3),
        ),
        1 => (
            CampaignKind::SybilFlood { error_us },
            rng.random_range(1..=3),
        ),
        _ => (CampaignKind::RefSlotJam, 1),
    };
    // Sybil floods and selective jamming target per-domain reference
    // election; coalitions attack the paper's single-hop IBSS directly.
    if !matches!(kind, CampaignKind::Coalition { .. }) {
        case.mesh = Some(TopologySpec::Bridged {
            domains: rng.random_range(2..=3),
            cols: rng.random_range(2..=3),
            rows: rng.random_range(1..=2),
        });
        let n = case.scenario().n_nodes;
        for ev in &mut case.plan.events {
            retarget_nodes(&mut ev.kind, n);
        }
    }
    // Post-convergence window kept clear of the run's tail so the
    // invariants' quiet-period checks still get undisturbed BPs.
    let start_s = rng.random_range(8..=12) as f64;
    let end_s = (start_s + rng.random_range(4..=8) as f64).min(case.duration_s - 2.0);
    case.campaign = Some(sstsp::scenario::CampaignSpec {
        kind,
        attackers,
        start_s,
        end_s,
    });
    case
}

/// Clamp a fault's station target into `0..n` (the engine indexes stations
/// directly, so an out-of-range target would be a harness bug, not a
/// protocol bug).
pub(crate) fn retarget_nodes(kind: &mut FaultKind, n: u32) {
    match kind {
        FaultKind::Crash { node, .. }
        | FaultKind::ClockStep { node, .. }
        | FaultKind::ClockFreeze { node } => *node %= n,
        _ => {}
    }
}

fn random_event(rng: &mut ChaCha12Rng, n: u32, total_bps: u64) -> FaultEvent {
    // Leave the first ~30 BPs alone so the network has a chance to elect a
    // reference worth disturbing, and leave tail room for windows.
    let start_bp = rng.random_range(30..total_bps.saturating_sub(40).max(31));
    let max_len = (total_bps - start_bp).min(80);
    let end_bp = start_bp + rng.random_range(0..=max_len);
    let node = rng.random_range(0..n);
    let rejoin = if rng.random_bool(0.7) {
        Some(rng.random_range(10..60))
    } else {
        None
    };
    let kind = match rng.random_range(0..9u32) {
        0 => FaultKind::BurstLoss {
            p: rng.random_range(0.3..1.0),
        },
        1 => FaultKind::Corrupt {
            field: match rng.random_range(0..4u32) {
                0 => CorruptField::Timestamp,
                1 => CorruptField::Mac,
                2 => CorruptField::Disclosed,
                _ => CorruptField::Truncate,
            },
            p: rng.random_range(0.2..1.0),
        },
        2 => FaultKind::Crash {
            node,
            rejoin_after_bps: rejoin,
        },
        3 => FaultKind::KillReference {
            rejoin_after_bps: rejoin,
        },
        4 => FaultKind::ClockStep {
            node,
            delta_us: rng.random_range(-2000.0..2000.0),
        },
        5 => FaultKind::ClockFreeze { node },
        6 => FaultKind::DisclosureLoss {
            p: rng.random_range(0.3..1.0),
        },
        7 => FaultKind::Jam,
        _ => FaultKind::ChainExhaust {
            intervals: start_bp,
        },
    };
    FaultEvent {
        start_bp,
        end_bp,
        kind,
    }
}

/// Run a fuzz sweep. Stops at (and shrinks) the first failing case.
///
/// Case *generation* is sequential — each case consumes the master-seeded
/// RNG stream, so the i-th case is the same bytes whatever the pool size.
/// Case *execution* fans out over the current rayon pool (`run_case` is a
/// pure function of its case), and the results are then replayed in case
/// order: the log stream, the failure chosen for shrinking, and the
/// reported `cases_run` are byte-identical to the sequential sweep. A
/// sweep that fails early does some throwaway work past the failure; the
/// common all-clean sweep is the one worth the speedup.
pub fn fuzz<L: FnMut(&str)>(cfg: &FuzzConfig, mut log: L) -> FuzzReport {
    let mut rng = ChaCha12Rng::seed_from_u64(cfg.master_seed);
    let cases: Vec<FuzzCase> = (0..cfg.iterations)
        .map(|_| {
            if cfg.campaign {
                random_campaign_case(&mut rng, cfg.max_events)
            } else if cfg.mesh {
                random_mesh_case(&mut rng, cfg.max_events)
            } else {
                random_case(&mut rng, cfg.max_events)
            }
        })
        .collect();
    let violation_counts: Vec<usize> = cases
        .par_iter()
        .map(|case| run_case(case).violations.len())
        .collect();
    for (i, case) in cases.iter().enumerate() {
        if violation_counts[i] == 0 {
            let mesh_note = case.mesh.map(|m| format!(", mesh={m}")).unwrap_or_default();
            let campaign_note = case
                .campaign
                .map(|c| format!(", campaign={c}"))
                .unwrap_or_default();
            log(&format!(
                "case {}/{}: ok ({} events, N={}, {} s{mesh_note}{campaign_note})",
                i + 1,
                cfg.iterations,
                case.plan.events.len(),
                case.scenario().n_nodes,
                case.duration_s
            ));
            continue;
        }
        log(&format!(
            "case {}/{}: {} violation(s) — shrinking",
            i + 1,
            cfg.iterations,
            violation_counts[i]
        ));
        // Shrinking stays sequential: each probe depends on the last.
        let shrunk = shrink(case.clone(), |c| !run_case(c).violations.is_empty());
        let violations = run_case(&shrunk).violations;
        return FuzzReport {
            cases_run: i as u32 + 1,
            failure: Some(FuzzFailure {
                original: case.clone(),
                shrunk,
                violations,
            }),
        };
    }
    FuzzReport {
        cases_run: cfg.iterations,
        failure: None,
    }
}
