//! Greedy deterministic case shrinking.
//!
//! Given a failing [`FuzzCase`] and a predicate that re-checks failure, the
//! shrinker repeats four reduction passes to a fixpoint: drop whole events,
//! halve event windows, halve fault magnitudes (clock-step sizes; loss and
//! corruption probabilities are *raised* toward 1 — a deterministic fault
//! is simpler to reason about than a probabilistic one), and shrink the
//! scenario itself (fewer stations, shorter run). Every candidate is
//! validated by re-running the predicate, so the final case is a local
//! minimum that still fails — and, being a plain [`FuzzCase`], replays from
//! its one-line spec.

use sstsp::scenario::TopologySpec;

use crate::fuzz::retarget_nodes;
use crate::plan::{FaultKind, FuzzCase};

/// Smallest network the shrinker will try.
const MIN_NODES: u32 = 4;
/// Shortest run the shrinker will try, seconds.
const MIN_DURATION_S: f64 = 5.0;

/// Shrink `case` while `still_fails` holds. `still_fails(&case)` must be
/// `true` on entry; the result is a minimal failing case under the passes
/// above. Fully deterministic — same input and predicate, same output.
pub fn shrink<F: FnMut(&FuzzCase) -> bool>(mut case: FuzzCase, mut still_fails: F) -> FuzzCase {
    loop {
        let mut progress = false;

        // Pass 1: drop events one at a time, restarting after each success
        // (dropping one event can make another droppable).
        let mut i = 0;
        while i < case.plan.events.len() {
            let mut cand = case.clone();
            cand.plan.events.remove(i);
            if still_fails(&cand) {
                case = cand;
                progress = true;
            } else {
                i += 1;
            }
        }

        // Pass 2: halve each surviving event's window toward a point.
        for i in 0..case.plan.events.len() {
            loop {
                let ev = case.plan.events[i];
                let len = ev.end_bp.saturating_sub(ev.start_bp);
                if len == 0 {
                    break;
                }
                let mut cand = case.clone();
                cand.plan.events[i].end_bp = ev.start_bp + len / 2;
                if still_fails(&cand) {
                    case = cand;
                    progress = true;
                } else {
                    break;
                }
            }
        }

        // Pass 3: simplify magnitudes — steps toward zero, probabilities
        // toward certainty.
        for i in 0..case.plan.events.len() {
            let simpler = match case.plan.events[i].kind {
                FaultKind::ClockStep { node, delta_us } if delta_us.abs() > 1.0 => {
                    Some(FaultKind::ClockStep {
                        node,
                        delta_us: (delta_us / 2.0 * 100.0).round() / 100.0,
                    })
                }
                FaultKind::BurstLoss { p } if p < 1.0 => Some(FaultKind::BurstLoss { p: 1.0 }),
                FaultKind::DisclosureLoss { p } if p < 1.0 => {
                    Some(FaultKind::DisclosureLoss { p: 1.0 })
                }
                FaultKind::Corrupt { field, p } if p < 1.0 => {
                    Some(FaultKind::Corrupt { field, p: 1.0 })
                }
                _ => None,
            };
            if let Some(kind) = simpler {
                let mut cand = case.clone();
                cand.plan.events[i].kind = kind;
                if still_fails(&cand) {
                    case = cand;
                    progress = true;
                }
            }
        }

        // Pass 4: shrink the scenario dimensions.
        if case.n > MIN_NODES {
            let mut cand = case.clone();
            cand.n = (case.n / 2).max(MIN_NODES);
            retarget(&mut cand);
            if still_fails(&cand) {
                case = cand;
                progress = true;
            }
        }
        if case.duration_s > MIN_DURATION_S {
            let mut cand = case.clone();
            cand.duration_s = (case.duration_s / 2.0).max(MIN_DURATION_S);
            // Drop events scheduled past the shortened horizon; a
            // campaign that would start past it keeps the longer run.
            let bps = cand.total_bps();
            cand.plan.events.retain(|ev| ev.start_bp < bps);
            if !cand.plan.events.is_empty() && cand.scenario().check().is_ok() && still_fails(&cand)
            {
                case = cand;
                progress = true;
            }
        }

        // Pass 5: shrink the topology dimension — first try dropping the
        // mesh entirely (a single-hop reproducer is the simplest of all),
        // then walk bridged dimensions toward the smallest failing graph
        // (fewest domains, then thinnest islands).
        if case.mesh.is_some() {
            let mut cand = case.clone();
            cand.mesh = None;
            retarget(&mut cand);
            if still_fails(&cand) {
                case = cand;
                progress = true;
            }
        }
        if let Some(TopologySpec::Bridged {
            domains,
            cols,
            rows,
        }) = case.mesh
        {
            let smaller = [
                (domains - 1, cols, rows),
                (domains, cols - 1, rows),
                (domains, cols, rows - 1),
            ];
            for (d, c, r) in smaller {
                let mut cand = case.clone();
                cand.mesh = Some(TopologySpec::Bridged {
                    domains: d,
                    cols: c,
                    rows: r,
                });
                retarget(&mut cand);
                if cand.scenario().check().is_ok() && still_fails(&cand) {
                    case = cand;
                    progress = true;
                    break;
                }
            }
        }

        // Pass 6: shrink the adversary — first try dropping the campaign
        // entirely (an honest-network reproducer is simpler), then walk
        // the coalition down toward the minimal colluding subset.
        if case.campaign.is_some() {
            let mut cand = case.clone();
            cand.campaign = None;
            if still_fails(&cand) {
                case = cand;
                progress = true;
            }
        }
        if let Some(c) = case.campaign {
            if c.attackers > c.min_attackers() {
                let mut cand = case.clone();
                cand.campaign = Some(sstsp::scenario::CampaignSpec {
                    attackers: c.attackers - 1,
                    ..c
                });
                if still_fails(&cand) {
                    case = cand;
                    progress = true;
                }
            }
        }

        if !progress {
            return case;
        }
    }
}

/// Re-aim node-targeted faults into the candidate's actual station range
/// after a dimension change (the engine indexes stations directly), and
/// clamp the campaign's coalition into the candidate's station budget
/// (dropping it when the budget can no longer field a valid coalition).
fn retarget(cand: &mut FuzzCase) {
    let scenario = cand.scenario();
    for ev in &mut cand.plan.events {
        retarget_nodes(&mut ev.kind, scenario.n_nodes);
    }
    if let Some(mut c) = cand.campaign {
        let cap = scenario.max_attackers();
        cand.campaign = if cap < c.min_attackers() {
            None
        } else {
            c.attackers = c.attackers.min(cap);
            Some(c)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultEvent, FaultPlan};

    /// Synthetic predicate: fails iff the plan still contains a crash of
    /// station 3 — no simulation needed to exercise the passes.
    fn fails(case: &FuzzCase) -> bool {
        case.plan
            .events
            .iter()
            .any(|ev| matches!(ev.kind, FaultKind::Crash { node: 3, .. }))
    }

    #[test]
    fn shrinks_to_the_single_triggering_event() {
        let mut case = FuzzCase::base(16, 40.0, 1);
        case.plan = FaultPlan {
            seed: 0,
            events: vec![
                FaultEvent {
                    start_bp: 10,
                    end_bp: 90,
                    kind: FaultKind::BurstLoss { p: 0.4 },
                },
                FaultEvent {
                    start_bp: 20,
                    end_bp: 80,
                    kind: FaultKind::Crash {
                        node: 3,
                        rejoin_after_bps: Some(10),
                    },
                },
                FaultEvent {
                    start_bp: 30,
                    end_bp: 70,
                    kind: FaultKind::Jam,
                },
                FaultEvent {
                    start_bp: 40,
                    end_bp: 60,
                    kind: FaultKind::ClockStep {
                        node: 1,
                        delta_us: -500.0,
                    },
                },
            ],
        };
        let small = shrink(case, fails);
        assert_eq!(small.plan.events.len(), 1, "only the trigger survives");
        assert!(matches!(
            small.plan.events[0].kind,
            FaultKind::Crash { node: 3, .. }
        ));
        // Window collapsed to a point, scenario shrunk to the floors.
        assert_eq!(small.plan.events[0].start_bp, small.plan.events[0].end_bp);
        assert_eq!(small.n, MIN_NODES);
        assert_eq!(small.duration_s, MIN_DURATION_S);
    }

    #[test]
    fn mesh_dimension_shrinks_toward_smallest_failing_graph() {
        // A failure that needs *some* bridged mesh: the mesh can't be
        // dropped, so the shrinker must walk the dimensions down instead.
        let mut case = FuzzCase::base(16, 40.0, 1);
        case.mesh = Some(TopologySpec::Bridged {
            domains: 3,
            cols: 3,
            rows: 2,
        });
        case.plan.events = vec![crate::plan::FaultEvent {
            start_bp: 60,
            end_bp: 60,
            kind: FaultKind::CrashDomain {
                domain: 1,
                rejoin_after_bps: None,
            },
        }];
        let small = shrink(case, |c| {
            matches!(c.mesh, Some(TopologySpec::Bridged { .. }))
                && c.plan
                    .events
                    .iter()
                    .any(|ev| matches!(ev.kind, FaultKind::CrashDomain { .. }))
        });
        assert_eq!(
            small.mesh,
            Some(TopologySpec::Bridged {
                domains: 2,
                cols: 1,
                rows: 1,
            }),
            "bridged dims walk to the smallest graph"
        );
        // A failure that doesn't need the mesh sheds it entirely.
        let mut case = FuzzCase::base(8, 20.0, 1);
        case.mesh = Some(TopologySpec::Ring);
        case.plan.events = vec![crate::plan::FaultEvent {
            start_bp: 10,
            end_bp: 10,
            kind: FaultKind::Jam,
        }];
        let small = shrink(case, |c| {
            c.plan
                .events
                .iter()
                .any(|ev| matches!(ev.kind, FaultKind::Jam))
        });
        assert_eq!(small.mesh, None, "irrelevant mesh dimension is dropped");
    }

    #[test]
    fn campaigns_shrink_to_the_minimal_colluding_subset() {
        use sstsp::scenario::{CampaignKind, CampaignSpec};
        let mut case = FuzzCase::base(16, 40.0, 1);
        case.campaign = Some(CampaignSpec {
            kind: CampaignKind::Coalition {
                error_us: 800.0,
                delay_bps: 2,
            },
            attackers: 3,
            start_s: 10.0,
            end_s: 20.0,
        });
        case.plan.events = vec![FaultEvent {
            start_bp: 10,
            end_bp: 10,
            kind: FaultKind::Jam,
        }];
        // Predicate needs *a* coalition, but not its full size: the
        // shrinker walks attackers down to the two-member floor.
        let small = shrink(case, |c| {
            matches!(
                c.campaign,
                Some(CampaignSpec {
                    kind: CampaignKind::Coalition { .. },
                    ..
                })
            )
        });
        assert_eq!(
            small.campaign.unwrap().attackers,
            2,
            "coalition shrinks to leader + one amplifier"
        );
        // An irrelevant campaign is dropped entirely.
        let mut case = FuzzCase::base(8, 20.0, 1);
        case.campaign = Some(CampaignSpec {
            kind: CampaignKind::RefSlotJam,
            attackers: 1,
            start_s: 5.0,
            end_s: 10.0,
        });
        case.plan.events = vec![FaultEvent {
            start_bp: 10,
            end_bp: 10,
            kind: FaultKind::Jam,
        }];
        let small = shrink(case, |c| {
            c.plan
                .events
                .iter()
                .any(|ev| matches!(ev.kind, FaultKind::Jam))
        });
        assert_eq!(small.campaign, None, "irrelevant campaign is dropped");
    }

    #[test]
    fn probabilities_shrink_toward_certainty() {
        let mut case = FuzzCase::base(8, 20.0, 1);
        case.plan.events = vec![
            FaultEvent {
                start_bp: 5,
                end_bp: 5,
                kind: FaultKind::Crash {
                    node: 3,
                    rejoin_after_bps: None,
                },
            },
            FaultEvent {
                start_bp: 10,
                end_bp: 20,
                kind: FaultKind::BurstLoss { p: 0.3 },
            },
        ];
        // Predicate keeps both events alive so pass 3 gets to act.
        let small = shrink(case, |c| c.plan.events.len() == 2);
        assert!(small
            .plan
            .events
            .iter()
            .any(|ev| matches!(ev.kind, FaultKind::BurstLoss { p } if p == 1.0)));
    }
}
