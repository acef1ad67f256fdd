//! Property pin for the reactive selective jammer: across arbitrary
//! reference histories — including forced re-elections, reference loss and
//! cross-domain handovers — the jammer never emits energy outside the
//! *sitting* reference's beacon slot, and emits nothing at all while no
//! reference sits or outside its activity window.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use attacks::campaign::{CampaignKind, CampaignMember, CampaignSpec};
use mac80211::frame::BeaconBody;
use proptest::collection;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use protocols::api::{
    AnchorRegistry, BeaconIntent, BeaconPayload, MeshRole, NodeCtx, NodeId, ProtocolConfig,
    ReceivedBeacon, RxVerdict, SyncProtocol,
};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// A minimal honest receiver whose view of the sitting reference the test
/// drives directly (standing in for SSTSP's election tracking).
struct StubTracker(Rc<Cell<Option<NodeId>>>);

impl SyncProtocol for StubTracker {
    fn intent(&mut self, _ctx: &mut NodeCtx<'_>) -> BeaconIntent {
        BeaconIntent::Silent
    }
    fn make_beacon(&mut self, ctx: &mut NodeCtx<'_>) -> BeaconPayload {
        BeaconPayload::Plain(BeaconBody {
            src: ctx.id,
            seq: 0,
            timestamp_us: ctx.local_us as u64,
            root: ctx.id,
            hop: 0,
        })
    }
    fn on_beacon(&mut self, _ctx: &mut NodeCtx<'_>, _rx: ReceivedBeacon) -> RxVerdict {
        RxVerdict::Ignored
    }
    fn clock_us(&self, local_us: f64) -> f64 {
        local_us
    }
    fn current_reference(&self) -> Option<NodeId> {
        self.0.get()
    }
}

fn jam_spec() -> CampaignSpec {
    CampaignSpec {
        kind: CampaignKind::RefSlotJam,
        attackers: 1,
        start_s: 20.0,
        end_s: 40.0,
    }
}

/// One step of a reference history: who sits (None = election gap) and the
/// synchronized time, seconds, at which the jammer forms its intent.
#[derive(Debug, Clone)]
struct Step {
    sitting: Option<NodeId>,
    t_s: f64,
}

/// All 16 station ids are drawable as the sitting reference (`None` models
/// an election gap after the sitting reference was lost).
fn sitting() -> BoxedStrategy<Option<NodeId>> {
    prop_oneof![Just(None), (0u32..16).prop_map(Some)].boxed()
}

fn steps() -> BoxedStrategy<Vec<Step>> {
    collection::vec(
        (sitting(), 0.0f64..60.0).prop_map(|(sitting, t_s)| Step { sitting, t_s }),
        1..40,
    )
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn jammer_only_ever_fires_in_the_sitting_references_slot(
        num_domains in 1u32..4,
        n in 4u32..16,
        seed in 0u64..1024,
        history in steps(),
    ) {
        let config = ProtocolConfig::paper();
        let gap = config.beacon_airtime_slots + 1;
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut anchors = AnchorRegistry::new();
        // Random station→domain map (stations past `n` never referenced).
        let domain_of: Vec<u32> = (0..16).map(|i| i % num_domains).collect();

        let sitting = Rc::new(Cell::new(None));
        let mut jammer =
            CampaignMember::new(jam_spec(), 0, StubTracker(sitting.clone()), true);
        jammer.set_mesh_role(MeshRole {
            domain: domain_of[(n - 1) as usize],
            num_domains,
            bridge_index: None,
            domain_of: Arc::new(domain_of.clone()),
            bridges: Arc::new(vec![]),
        });

        for step in &history {
            sitting.set(step.sitting);
            let mut ctx = NodeCtx {
                id: 99,
                local_us: step.t_s * 1e6,
                rng: &mut rng,
                anchors: &mut anchors,
                config: &config,
            };
            let intent = jammer.intent(&mut ctx);
            let in_window = (20.0..40.0).contains(&step.t_s);
            match (in_window, step.sitting) {
                (true, Some(r)) => prop_assert_eq!(
                    intent,
                    BeaconIntent::FixedSlot(domain_of[r as usize] * gap)
                ),
                // Election in progress: a selective jammer stays quiet.
                (true, None) => prop_assert_eq!(intent, BeaconIntent::Silent),
                // Outside the window the wrapped honest stub is in charge.
                (false, _) => prop_assert_eq!(intent, BeaconIntent::Silent),
            }
        }
    }
}

/// The deterministic re-election scenario spelled out: reference A jammed,
/// A lost, election gap (jammer silent), B elected in another domain —
/// the jammer retargets B's slot and never touches any other slot.
#[test]
fn jammer_tracks_a_forced_re_election_across_domains() {
    let config = ProtocolConfig::paper();
    let mut rng = ChaCha12Rng::seed_from_u64(7);
    let mut anchors = AnchorRegistry::new();
    let domain_of = vec![0, 0, 0, 1, 1, 1];

    let sitting = Rc::new(Cell::new(Some(0)));
    let mut jammer = CampaignMember::new(jam_spec(), 0, StubTracker(sitting.clone()), true);
    jammer.set_mesh_role(MeshRole {
        domain: 1,
        num_domains: 2,
        bridge_index: None,
        domain_of: Arc::new(domain_of),
        bridges: Arc::new(vec![]),
    });

    let mut intent_at = |jammer: &mut CampaignMember<StubTracker>, t_s: f64| {
        let mut ctx = NodeCtx {
            id: 99,
            local_us: t_s * 1e6,
            rng: &mut rng,
            anchors: &mut anchors,
            config: &config,
        };
        jammer.intent(&mut ctx)
    };

    // Reference 0 (domain 0) sits: jam its slot 0·8 = 0.
    assert_eq!(intent_at(&mut jammer, 25.0), BeaconIntent::FixedSlot(0));
    // Reference lost, election running: no energy anywhere.
    sitting.set(None);
    assert_eq!(intent_at(&mut jammer, 26.0), BeaconIntent::Silent);
    // Station 4 (domain 1) wins: retarget slot 1·8 = 8.
    sitting.set(Some(4));
    assert_eq!(intent_at(&mut jammer, 27.0), BeaconIntent::FixedSlot(8));
    // Window over: back to honest behavior.
    assert_eq!(intent_at(&mut jammer, 45.0), BeaconIntent::Silent);
}
