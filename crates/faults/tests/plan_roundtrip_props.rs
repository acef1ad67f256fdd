//! Property pin: the one-line case spec is a true inverse pair —
//! `parse(format(case)) == case` for *every* valid case, across all
//! fault-kind variants and the `mesh=` dimension. Floats print in
//! shortest-round-trip form, so exact equality is the right check.

use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use sstsp::scenario::{CampaignKind, CampaignSpec, TopologySpec};
use sstsp_faults::plan::{CorruptField, FaultEvent, FaultKind, FaultPlan, FuzzCase};

fn corrupt_field() -> BoxedStrategy<CorruptField> {
    prop_oneof![
        Just(CorruptField::Timestamp),
        Just(CorruptField::Mac),
        Just(CorruptField::Disclosed),
        Just(CorruptField::Truncate),
    ]
    .boxed()
}

fn rejoin() -> BoxedStrategy<Option<u64>> {
    prop_oneof![Just(None), (1u64..500).prop_map(Some)].boxed()
}

/// Every [`FaultKind`] variant, parameters drawn across their domains
/// (station ids and exhaustion BPs are wrapped into the case's run in
/// [`fuzz_case`]).
fn fault_kind() -> BoxedStrategy<FaultKind> {
    prop_oneof![
        (0.0..=1.0).prop_map(|p| FaultKind::BurstLoss { p }),
        (corrupt_field(), 0.0..=1.0).prop_map(|(field, p)| FaultKind::Corrupt { field, p }),
        (0u32..32, rejoin()).prop_map(|(node, rejoin_after_bps)| FaultKind::Crash {
            node,
            rejoin_after_bps,
        }),
        rejoin().prop_map(|rejoin_after_bps| FaultKind::KillReference { rejoin_after_bps }),
        (0u32..32, -5000.0..5000.0)
            .prop_map(|(node, delta_us)| FaultKind::ClockStep { node, delta_us }),
        (0u32..32).prop_map(|node| FaultKind::ClockFreeze { node }),
        (0.0..=1.0).prop_map(|p| FaultKind::DisclosureLoss { p }),
        Just(FaultKind::Jam),
        (0u32..8, rejoin()).prop_map(|(domain, rejoin_after_bps)| FaultKind::CrashDomain {
            domain,
            rejoin_after_bps,
        }),
        (0u32..4, rejoin()).prop_map(|(bridge, rejoin_after_bps)| FaultKind::KillBridge {
            bridge,
            rejoin_after_bps,
        }),
        (1u64..600).prop_map(|intervals| FaultKind::ChainExhaust { intervals }),
    ]
    .boxed()
}

/// A fault event; its window start is wrapped into the case's run in
/// [`fuzz_case`].
fn fault_event() -> BoxedStrategy<FaultEvent> {
    (0u64..400, 0u64..200, fault_kind())
        .prop_map(|(start_bp, len, kind)| FaultEvent {
            start_bp,
            end_bp: start_bp + len,
            kind,
        })
        .boxed()
}

/// Every topology dimension, including `None` (single-hop IBSS).
fn mesh() -> BoxedStrategy<Option<TopologySpec>> {
    prop_oneof![
        Just(None),
        Just(Some(TopologySpec::Line)),
        Just(Some(TopologySpec::Ring)),
        // At least two columns, so the grid holds a network.
        (2u32..6, 1u32..6).prop_map(|(cols, rows)| Some(TopologySpec::Grid { cols, rows })),
        // A range past the area's diagonal (√2·side) connects every
        // placement; the parser rejects an rgg mesh that has no connected
        // placement at the case's seed.
        (1.0..200.0, 1.5..3.0).prop_map(|(side, reach)| {
            Some(TopologySpec::RandomDisk {
                side,
                range: side * reach,
            })
        }),
        (2u32..5, 1u32..5, 1u32..5).prop_map(|(domains, cols, rows)| {
            Some(TopologySpec::Bridged {
                domains,
                cols,
                rows,
            })
        }),
    ]
    .boxed()
}

/// Every campaign kind with parameters across their domains, plus `None`
/// (honest network). The attacker count is drawn raw here and clamped into
/// the case's station budget in [`fuzz_case`] — the spec parser rejects
/// coalitions the scenario cannot field.
fn campaign() -> BoxedStrategy<Option<(CampaignKind, u32, f64, f64)>> {
    let kind = prop_oneof![
        (0.0..5000.0, 1u32..10).prop_map(|(error_us, delay_bps)| CampaignKind::Coalition {
            error_us,
            delay_bps,
        }),
        (0.0..5000.0).prop_map(|error_us| CampaignKind::SybilFlood { error_us }),
        Just(CampaignKind::RefSlotJam),
    ];
    prop_oneof![
        Just(None),
        (kind, 1u32..8, 0.0..500.0, 0.5..100.0).prop_map(|(kind, raw, start_s, len_s)| Some((
            kind,
            raw,
            start_s,
            start_s + len_s
        ))),
    ]
    .boxed()
}

fn fuzz_case() -> BoxedStrategy<FuzzCase> {
    (
        (2u32..300, 0.5..2000.0, any::<u64>(), 1u32..16),
        (1.0..100000.0, any::<u64>()),
        (mesh(), campaign()),
        proptest::collection::vec(fault_event(), 0..6),
    )
        .prop_map(
            |((n, duration_s, seed, m), (guard_fine_us, plan_seed), (mesh, campaign), events)| {
                let mut case = FuzzCase {
                    n,
                    duration_s,
                    seed,
                    m,
                    guard_fine_us,
                    mesh,
                    campaign: None,
                    plan: FaultPlan {
                        seed: plan_seed,
                        events,
                    },
                };
                // A ring closes only from 3 stations on; the parser
                // rejects smaller ones.
                if case.mesh == Some(TopologySpec::Ring) {
                    case.n = case.n.max(3);
                }
                // Wrap each fault into the run, as the parser requires: its
                // window starts at one of the run's BPs (from 1), and its
                // station and exhaustion BP are the run's.
                let scenario = case.scenario();
                let (n, bps) = (scenario.n_nodes, scenario.total_bps());
                for ev in &mut case.plan.events {
                    let len = ev.end_bp - ev.start_bp;
                    ev.start_bp = 1 + ev.start_bp % bps;
                    ev.end_bp = ev.start_bp + len;
                    match &mut ev.kind {
                        FaultKind::Crash { node, .. }
                        | FaultKind::ClockStep { node, .. }
                        | FaultKind::ClockFreeze { node } => *node %= n,
                        FaultKind::ChainExhaust { intervals } => {
                            *intervals = 1 + (*intervals - 1) % bps
                        }
                        _ => {}
                    }
                }
                if let Some((kind, raw_attackers, start_s, end_s)) = campaign {
                    // Clamp the coalition into the case's station budget;
                    // cases too small for a valid coalition stay honest.
                    // Wrap the window's start into the run, as the parser
                    // requires: it starts by the run's last BP.
                    let cap = case.scenario().max_attackers();
                    let last_s = bps as f64 * scenario.protocol_config.bp_us / 1e6;
                    let start = start_s % last_s;
                    let mut spec = CampaignSpec {
                        kind,
                        attackers: raw_attackers,
                        start_s: start,
                        end_s: start + (end_s - start_s),
                    };
                    if cap >= spec.min_attackers() {
                        spec.attackers = raw_attackers.clamp(spec.min_attackers(), cap);
                        case.campaign = Some(spec);
                    }
                }
                case
            },
        )
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `FromStr` inverts `Display` exactly, for every plan variant.
    #[test]
    fn parse_inverts_format(case in fuzz_case()) {
        let spec = case.to_string();
        prop_assert!(!spec.contains('\n'), "spec must be one line: {spec}");
        let parsed: FuzzCase = spec
            .parse()
            .unwrap_or_else(|e| panic!("own spec `{spec}` failed to parse: {e}"));
        prop_assert!(parsed == case, "round-trip mismatch for `{spec}`");
        // And formatting is a fixed point: format(parse(format(x))) == format(x).
        prop_assert_eq!(parsed.to_string(), spec);
    }
}
