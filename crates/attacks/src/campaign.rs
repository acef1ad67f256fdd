//! Coordinated multi-attacker campaigns.
//!
//! The paper's security analysis (Sec. 4) considers lone adversaries; the
//! secure-clock-sync requirements literature (Narula & Humphreys 2018,
//! Annessi et al. 2017) makes clear that *colluding insiders* and
//! *reactive jamming keyed to the protocol's own schedule* are the attacks
//! that actually break multicast time synchronization. This module
//! coordinates several compromised stations through one shared
//! [`CampaignSpec`]:
//!
//! * **Coalition** — a fast-beacon leader and replay amplifiers take
//!   turns (beacon-period parity) so exactly one colluder owns slot 0
//!   each BP: the leader wins contention with guard-passing erroneous
//!   timestamps while the amplifiers magnify the offset by replaying
//!   recorded beacons with a configurable delay. Against TSF the rotation
//!   suppresses every legitimate beacon; against SSTSP the replays die on
//!   µTESLA's interval check and the leader's influence stays under δ.
//! * **Sybil candidacy flood** ([`CampaignKind::SybilFlood`]) — colluders
//!   flood the earliest election-candidacy slots of per-domain reference
//!   election, deterministically out-competing every honest candidate the
//!   moment a domain falls silent, and hold the captured role by
//!   re-flooding each BP. µTESLA forces them to sign with their own
//!   published chains and the guard bounds the time error they can inject.
//! * **Reactive reference-slot jammer** ([`CampaignKind::RefSlotJam`]) —
//!   tracks the sitting reference through its wrapped honest receiver and
//!   transmits *only* in that reference's beacon slot, following
//!   re-elections to the new winner's slot. Everything outside the tracked
//!   slot is left untouched (see the `jammer_slot_props` proptest).
//!
//! Members coordinate without any shared runtime state: the plan assigns
//! roles and transmission parity purely from each member's index, so the
//! campaign is deterministic and replayable.
//!
//! The engine runs the paper's lone fast-beacon attacker (Figs. 3–4) as a
//! coalition of one, whose leader's turn comes every BP. The grammar still
//! refuses `coalition:1`: that station is spelled `--attack`
//! (`AttackerSpec`), and [`CampaignSpec::min_attackers`] is the shrinker's
//! floor, so a shrunk coalition keeps its replaying amplifier.

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

use mac80211::frame::BeaconBody;
use protocols::api::{
    BeaconIntent, BeaconPayload, MeshRole, NodeCtx, NodeId, ReceivedBeacon, RxVerdict, SyncProtocol,
};
use rand::Rng;
use serde::{Deserialize, Serialize};
use sstsp_crypto::{ChainElement, IntervalSchedule, MuTeslaSigner};
use sstsp_telemetry as telemetry;

/// How many tape entries a coalition amplifier keeps (oldest evicted).
const AMPLIFIER_TAPE: usize = 8;

/// Per-member transmission counters (fixed keys: telemetry requires
/// `'static` names). Members past the table share the overflow key.
const MEMBER_TX_KEYS: [&str; 8] = [
    "campaign.member.0.tx",
    "campaign.member.1.tx",
    "campaign.member.2.tx",
    "campaign.member.3.tx",
    "campaign.member.4.tx",
    "campaign.member.5.tx",
    "campaign.member.6.tx",
    "campaign.member.7.tx",
];

/// The coordinated behavior a campaign's members execute.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CampaignKind {
    /// Colluding fast-beacon leader + replay amplifiers rotating ownership
    /// of slot 0 by BP parity.
    Coalition {
        /// Leader timestamp error, µs slower than its clock (crafted to
        /// pass the guard check when under δ).
        error_us: f64,
        /// Amplifier replay delay in beacon periods (≥ 1).
        delay_bps: u32,
    },
    /// Sybil-style candidacy flooding against (per-domain) reference
    /// election.
    SybilFlood {
        /// Timestamp error of the flooded candidacies, µs.
        error_us: f64,
    },
    /// Reactive selective jammer firing only in the sitting reference's
    /// beacon slot, tracking re-elections.
    RefSlotJam,
}

impl CampaignKind {
    /// Spec-grammar token naming this kind.
    pub fn token(&self) -> &'static str {
        match self {
            CampaignKind::Coalition { .. } => "coalition",
            CampaignKind::SybilFlood { .. } => "sybil",
            CampaignKind::RefSlotJam => "jamref",
        }
    }
}

/// The role a member index plays under a campaign kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignRole {
    /// Coalition member 0: fast-beacon contention winner.
    Leader,
    /// Coalition members 1..: delayed-replay offset magnifiers.
    Amplifier,
    /// Candidacy flooder.
    Sybil,
    /// Reference-slot jammer.
    Jammer,
}

impl CampaignRole {
    /// Stable lowercase token used in `campaign` trace events.
    pub fn token(&self) -> &'static str {
        match self {
            CampaignRole::Leader => "leader",
            CampaignRole::Amplifier => "amplifier",
            CampaignRole::Sybil => "sybil",
            CampaignRole::Jammer => "jammer",
        }
    }
}

/// A shared campaign plan: kind, coalition size and activity window.
///
/// The engine compromises the `attackers` highest-id island stations (the
/// tail of the last island for bridged meshes, the tail of the id space
/// otherwise) and hands every member the same spec plus its index; all
/// coordination derives deterministically from `(spec, index)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Coordinated behavior.
    pub kind: CampaignKind,
    /// Number of colluding stations (≥ 2 for coalitions, ≥ 1 otherwise).
    pub attackers: u32,
    /// Campaign start, seconds of synchronized time.
    pub start_s: f64,
    /// Campaign end, seconds of synchronized time.
    pub end_s: f64,
}

impl CampaignSpec {
    /// The role member `idx` (0-based) plays.
    pub fn role_of(&self, idx: u32) -> CampaignRole {
        match self.kind {
            CampaignKind::Coalition { .. } => {
                if idx == 0 {
                    CampaignRole::Leader
                } else {
                    CampaignRole::Amplifier
                }
            }
            CampaignKind::SybilFlood { .. } => CampaignRole::Sybil,
            CampaignKind::RefSlotJam => CampaignRole::Jammer,
        }
    }

    /// Smallest colluding subset that still is this campaign (shrink
    /// floor): a coalition needs a leader and one amplifier.
    pub fn min_attackers(&self) -> u32 {
        match self.kind {
            CampaignKind::Coalition { .. } => 2,
            _ => 1,
        }
    }

    /// Validate field ranges, naming the offending token.
    pub fn validate(&self) -> Result<(), String> {
        if self.attackers < self.min_attackers() {
            return Err(format!(
                "campaign `{}` needs at least {} attacker(s), got {} (token `attackers`)",
                self.kind.token(),
                self.min_attackers(),
                self.attackers
            ));
        }
        match self.kind {
            CampaignKind::Coalition {
                error_us,
                delay_bps,
            } => {
                if !error_us.is_finite() || error_us < 0.0 {
                    return Err(format!(
                        "campaign error must be finite and non-negative, got {error_us} (token `error_us`)"
                    ));
                }
                if delay_bps == 0 {
                    return Err(
                        "campaign replay delay must be at least 1 BP (token `delay_bps`)".into(),
                    );
                }
            }
            CampaignKind::SybilFlood { error_us } => {
                if !error_us.is_finite() || error_us < 0.0 {
                    return Err(format!(
                        "campaign error must be finite and non-negative, got {error_us} (token `error_us`)"
                    ));
                }
            }
            CampaignKind::RefSlotJam => {}
        }
        if !self.start_s.is_finite() || self.start_s < 0.0 {
            return Err(format!(
                "campaign start must be finite and non-negative, got {} (token `start_s`)",
                self.start_s
            ));
        }
        if !self.end_s.is_finite() || self.end_s <= self.start_s {
            return Err(format!(
                "campaign window is empty: start {} end {} (token `end_s`)",
                self.start_s, self.end_s
            ));
        }
        Ok(())
    }

    /// Whether synchronized second `t_s` is inside the activity window.
    pub fn active_at(&self, t_s: f64) -> bool {
        t_s >= self.start_s && t_s < self.end_s
    }
}

/// `coalition:K:ERR:DELAY:START:END`, `sybil:K:ERR:START:END`,
/// `jamref:K:START:END` — the inverse of [`CampaignSpec::from_str`].
impl fmt::Display for CampaignSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            CampaignKind::Coalition {
                error_us,
                delay_bps,
            } => write!(
                f,
                "coalition:{}:{}:{}:{}:{}",
                self.attackers, error_us, delay_bps, self.start_s, self.end_s
            ),
            CampaignKind::SybilFlood { error_us } => write!(
                f,
                "sybil:{}:{}:{}:{}",
                self.attackers, error_us, self.start_s, self.end_s
            ),
            CampaignKind::RefSlotJam => write!(
                f,
                "jamref:{}:{}:{}",
                self.attackers, self.start_s, self.end_s
            ),
        }
    }
}

fn field<T: FromStr>(parts: &[&str], i: usize, name: &str) -> Result<T, String> {
    let raw = parts
        .get(i)
        .ok_or_else(|| format!("campaign spec missing token `{name}`"))?;
    raw.parse()
        .map_err(|_| format!("invalid campaign value `{raw}` (token `{name}`)"))
}

impl FromStr for CampaignSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let (kind, want) = match parts[0] {
            "coalition" => (
                CampaignKind::Coalition {
                    error_us: field(&parts, 2, "error_us")?,
                    delay_bps: field(&parts, 3, "delay_bps")?,
                },
                6,
            ),
            "sybil" => (
                CampaignKind::SybilFlood {
                    error_us: field(&parts, 2, "error_us")?,
                },
                5,
            ),
            "jamref" => (CampaignKind::RefSlotJam, 4),
            other => {
                return Err(format!(
                    "unknown campaign kind `{other}` (expected coalition/sybil/jamref)"
                ))
            }
        };
        if parts.len() != want {
            return Err(format!(
                "campaign `{}` takes {} `:`-separated values, got {}",
                parts[0],
                want - 1,
                parts.len() - 1
            ));
        }
        let spec = CampaignSpec {
            kind,
            attackers: field(&parts, 1, "attackers")?,
            start_s: field(&parts, want - 2, "start_s")?,
            end_s: field(&parts, want - 1, "end_s")?,
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// One compromised station executing its share of a campaign.
///
/// Wraps an honest protocol instance: outside the window the member
/// behaves like any station (which keeps it synchronized enough to know
/// the µTESLA interval, craft guard-passing timestamps, and track the
/// sitting reference); inside the window it executes its role.
pub struct CampaignMember<P: SyncProtocol> {
    spec: CampaignSpec,
    idx: u32,
    inner: P,
    /// Whether crafted beacons carry µTESLA fields (campaign against
    /// SSTSP) or are plain TSF beacons.
    secured: bool,
    mesh_role: Option<MeshRole>,
    signer: Option<MuTeslaSigner>,
    seq: u32,
    /// Own BP counter, driving the coalition's transmission parity.
    bp: u64,
    /// Amplifier tape: (age in BPs, recorded beacon), oldest first.
    tape: VecDeque<(u32, BeaconPayload)>,
    armed: Option<BeaconPayload>,
    /// Beacons this member actually got on the air while attacking.
    pub beacons_sent: u64,
}

impl<P: SyncProtocol> CampaignMember<P> {
    /// Wrap `inner` as campaign member `idx` of `spec.attackers`; `spec` is
    /// taken as checked (the engine's lone attacker is a coalition of one).
    pub fn new(spec: CampaignSpec, idx: u32, inner: P, secured: bool) -> Self {
        assert!(idx < spec.attackers, "member index out of range");
        CampaignMember {
            spec,
            idx,
            inner,
            secured,
            mesh_role: None,
            signer: None,
            seq: 0,
            bp: 0,
            tape: VecDeque::new(),
            armed: None,
            beacons_sent: 0,
        }
    }

    /// The wrapped honest protocol (for inspection).
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// This member's role under the shared plan.
    pub fn role(&self) -> CampaignRole {
        self.spec.role_of(self.idx)
    }

    fn active(&self, local_us: f64) -> bool {
        self.spec.active_at(self.inner.clock_us(local_us) / 1e6)
    }

    /// BP-parity rotation: exactly one coalition member owns slot 0 each
    /// BP, so colluders never collide with each other.
    fn my_turn(&self) -> bool {
        self.bp % self.spec.attackers as u64 == self.idx as u64
    }

    fn gap(&self, ctx: &NodeCtx<'_>) -> u32 {
        ctx.config.beacon_airtime_slots + 1
    }

    /// The slot the sitting reference `r` beacons in: the per-domain
    /// staggered slot when mesh roles were distributed, slot 0 otherwise
    /// (mirrors the SSTSP slot plan).
    fn reference_slot_of(&self, r: NodeId, ctx: &NodeCtx<'_>) -> u32 {
        match &self.mesh_role {
            Some(role) => role.domain_of(r) * self.gap(ctx),
            None => 0,
        }
    }

    /// The candidacy slot a sybil member floods. With mesh roles:
    /// `(num_domains + idx) · gap` — earlier than every honest candidacy
    /// (honest station `i` contends at `(num_domains + i) · gap` and
    /// member indices start at 0), so the flood deterministically wins any
    /// election in the member's collision domain. Without roles the
    /// secured variant floods the first post-reference slots; the plain
    /// variant (against TSF, which has no election) degrades to staggered
    /// contention-winning suppression from slot 0.
    fn sybil_slot(&self, ctx: &NodeCtx<'_>) -> u32 {
        let gap = self.gap(ctx);
        match (&self.mesh_role, self.secured) {
            (Some(role), _) => (role.num_domains + self.idx) * gap,
            (None, true) => (1 + self.idx) * gap,
            (None, false) => self.idx * gap,
        }
    }

    /// An internal adversary signs with its compromised station's published
    /// chain, or publishes one of its own when the wrapped protocol has none.
    fn ensure_signer(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.signer.is_none() {
            let sched = IntervalSchedule::new(0.0, ctx.config.bp_us, ctx.config.total_intervals);
            if let Some(seed) = self.inner.chain_seed() {
                self.signer = Some(MuTeslaSigner::new(seed, sched));
                return;
            }
            let mut seed: ChainElement = [0u8; 16];
            ctx.rng.fill(&mut seed);
            let signer = MuTeslaSigner::new(seed, sched);
            ctx.anchors.publish(ctx.id, signer.anchor());
            self.signer = Some(signer);
        }
    }

    /// A fast-beacon body `error_us` slower than the member's clock,
    /// signed with its own chain when secured.
    fn craft(&mut self, ctx: &mut NodeCtx<'_>, error_us: f64) -> BeaconPayload {
        self.seq = self.seq.wrapping_add(1);
        let clock = self.inner.clock_us(ctx.local_us);
        let body = BeaconBody {
            src: ctx.id,
            seq: self.seq,
            timestamp_us: (clock - error_us).max(0.0) as u64,
            root: ctx.id,
            hop: 0,
        };
        if self.secured {
            self.ensure_signer(ctx);
            let j = ((clock / ctx.config.bp_us).round().max(1.0) as usize)
                .min(ctx.config.total_intervals);
            let signer = self.signer.as_mut().expect("signer ensured");
            let auth = signer.sign(&body.auth_bytes(), j);
            BeaconPayload::Secured(body, auth)
        } else {
            BeaconPayload::Plain(body)
        }
    }

    fn count_tx(&self) {
        telemetry::counter_add("campaign.tx", 1);
        let key = MEMBER_TX_KEYS[(self.idx as usize).min(MEMBER_TX_KEYS.len() - 1)];
        telemetry::counter_add(key, 1);
    }
}

impl<P: SyncProtocol> SyncProtocol for CampaignMember<P> {
    fn intent(&mut self, ctx: &mut NodeCtx<'_>) -> BeaconIntent {
        if !self.active(ctx.local_us) {
            return self.inner.intent(ctx);
        }
        match self.role() {
            CampaignRole::Leader => {
                if self.my_turn() {
                    BeaconIntent::FixedSlot(0)
                } else {
                    BeaconIntent::Silent
                }
            }
            CampaignRole::Amplifier => {
                if !self.my_turn() {
                    return BeaconIntent::Silent;
                }
                if self.armed.is_none() {
                    let delay = match self.spec.kind {
                        CampaignKind::Coalition { delay_bps, .. } => delay_bps,
                        _ => unreachable!("amplifiers only exist in coalitions"),
                    };
                    if let Some(&(age, payload)) = self.tape.front() {
                        if age >= delay {
                            self.tape.pop_front();
                            self.armed = Some(payload);
                        }
                    }
                }
                if self.armed.is_some() {
                    BeaconIntent::FixedSlot(0)
                } else {
                    BeaconIntent::Silent
                }
            }
            CampaignRole::Sybil => BeaconIntent::FixedSlot(self.sybil_slot(ctx)),
            CampaignRole::Jammer => {
                if !self.secured {
                    // No reference concept to track in the TSF family: jam
                    // the contention window's first slot.
                    return BeaconIntent::FixedSlot(0);
                }
                match self.inner.current_reference() {
                    Some(r) => BeaconIntent::FixedSlot(self.reference_slot_of(r, ctx)),
                    // No sitting reference (election in progress): a
                    // *selective* jammer stays silent rather than spraying.
                    None => BeaconIntent::Silent,
                }
            }
        }
    }

    fn make_beacon(&mut self, ctx: &mut NodeCtx<'_>) -> BeaconPayload {
        if !self.active(ctx.local_us) {
            return self.inner.make_beacon(ctx);
        }
        self.beacons_sent += 1;
        self.count_tx();
        match self.role() {
            CampaignRole::Leader => {
                let error_us = match self.spec.kind {
                    CampaignKind::Coalition { error_us, .. } => error_us,
                    _ => unreachable!(),
                };
                self.craft(ctx, error_us)
            }
            CampaignRole::Amplifier => {
                self.armed.take().unwrap_or_else(|| {
                    // Defensive: an amplifier only bids for the channel
                    // with a replay armed; an empty chamber degrades to a
                    // plain stale beacon.
                    self.seq = self.seq.wrapping_add(1);
                    BeaconPayload::Plain(BeaconBody {
                        src: ctx.id,
                        seq: self.seq,
                        timestamp_us: 0,
                        root: ctx.id,
                        hop: 0,
                    })
                })
            }
            CampaignRole::Sybil => {
                let error_us = match self.spec.kind {
                    CampaignKind::SybilFlood { error_us } => error_us,
                    _ => unreachable!(),
                };
                self.craft(ctx, error_us)
            }
            CampaignRole::Jammer => {
                // Energy in the victim's slot; the content is an obviously
                // stale plain beacon no receiver disciplines to.
                self.seq = self.seq.wrapping_add(1);
                BeaconPayload::Plain(BeaconBody {
                    src: ctx.id,
                    seq: self.seq,
                    timestamp_us: 0,
                    root: ctx.id,
                    hop: 0,
                })
            }
        }
    }

    fn on_tx_outcome(&mut self, ctx: &mut NodeCtx<'_>, collided: bool) {
        if !self.active(ctx.local_us) {
            self.inner.on_tx_outcome(ctx, collided);
            return;
        }
        // Collisions are the jammer's product and do not deter anyone.
        if collided {
            telemetry::counter_add("campaign.collisions", 1);
        }
    }

    fn on_beacon(&mut self, ctx: &mut NodeCtx<'_>, rx: ReceivedBeacon) -> RxVerdict {
        // The inner protocol stays synchronized (that is what makes forged
        // timestamps guard-passing and reference tracking current).
        let verdict = self.inner.on_beacon(ctx, rx);
        if matches!(self.role(), CampaignRole::Amplifier) {
            if self.tape.len() == AMPLIFIER_TAPE {
                self.tape.pop_back();
            }
            self.tape.push_back((0, rx.payload));
        }
        verdict
    }

    fn on_bp_end(&mut self, ctx: &mut NodeCtx<'_>) {
        self.inner.on_bp_end(ctx);
        self.bp += 1;
        for (age, _) in self.tape.iter_mut() {
            *age += 1;
        }
    }

    fn clock_us(&self, local_us: f64) -> f64 {
        self.inner.clock_us(local_us)
    }

    fn on_join(&mut self, ctx: &mut NodeCtx<'_>) {
        self.inner.on_join(ctx);
    }

    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        self.inner.init(ctx);
    }

    fn chain_seed(&self) -> Option<ChainElement> {
        self.inner.chain_seed()
    }

    fn set_mesh_role(&mut self, role: MeshRole) {
        self.mesh_role = Some(role.clone());
        self.inner.set_mesh_role(role);
    }

    fn is_reference(&self) -> bool {
        self.inner.is_reference()
    }

    fn is_synchronized(&self) -> bool {
        self.inner.is_synchronized()
    }

    fn sstsp_stats(&self) -> Option<protocols::sstsp::SstspStats> {
        self.inner.sstsp_stats()
    }

    fn current_reference(&self) -> Option<NodeId> {
        self.inner.current_reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocols::api::{AnchorRegistry, ProtocolConfig};
    use protocols::TsfNode;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha12Rng;
    use std::sync::Arc;

    fn coalition(attackers: u32) -> CampaignSpec {
        CampaignSpec {
            kind: CampaignKind::Coalition {
                error_us: 30.0,
                delay_bps: 2,
            },
            attackers,
            start_s: 20.0,
            end_s: 40.0,
        }
    }

    /// The engine's lone attacker: a coalition of one, active 400–600 s.
    fn lone(error_us: f64) -> CampaignSpec {
        CampaignSpec {
            kind: CampaignKind::Coalition {
                error_us,
                delay_bps: 1,
            },
            attackers: 1,
            start_s: 400.0,
            end_s: 600.0,
        }
    }

    struct Env {
        config: ProtocolConfig,
        anchors: AnchorRegistry,
        rng: ChaCha12Rng,
    }

    impl Env {
        fn new() -> Self {
            Env {
                config: ProtocolConfig::paper(),
                anchors: AnchorRegistry::new(),
                rng: ChaCha12Rng::seed_from_u64(5),
            }
        }
        fn ctx(&mut self, local_us: f64) -> NodeCtx<'_> {
            NodeCtx {
                id: 99,
                local_us,
                rng: &mut self.rng,
                anchors: &mut self.anchors,
                config: &self.config,
            }
        }
    }

    #[test]
    fn spec_round_trips_through_display() {
        for spec in [
            coalition(3),
            CampaignSpec {
                kind: CampaignKind::SybilFlood { error_us: 120.5 },
                attackers: 2,
                start_s: 6.0,
                end_s: 12.25,
            },
            CampaignSpec {
                kind: CampaignKind::RefSlotJam,
                attackers: 1,
                start_s: 0.0,
                end_s: 1.5,
            },
        ] {
            let s = spec.to_string();
            assert_eq!(s.parse::<CampaignSpec>().unwrap(), spec, "spec `{s}`");
        }
    }

    #[test]
    fn malformed_specs_name_the_bad_token() {
        for (bad, token) in [
            ("warp:2:20:40", "unknown campaign kind"),
            ("coalition:1:30:2:20:40", "`attackers`"),
            ("coalition:2:nan:2:20:40", "`error_us`"),
            ("coalition:2:30:0:20:40", "`delay_bps`"),
            ("sybil:0:30:20:40", "`attackers`"),
            ("sybil:2:30:40:40", "`end_s`"),
            ("jamref:1:40:20", "`end_s`"),
            ("jamref:1:-3:20", "`start_s`"),
            ("jamref:1:20", "takes 3"),
            ("jamref:1:20:30:7", "takes 3"),
        ] {
            let err = bad.parse::<CampaignSpec>().unwrap_err();
            assert!(err.contains(token), "`{bad}` → `{err}` lacks `{token}`");
        }
    }

    #[test]
    fn coalition_members_rotate_slot_zero_without_self_collision() {
        let spec = coalition(3);
        let mut members: Vec<_> = (0..3)
            .map(|i| CampaignMember::new(spec, i, TsfNode::new(), false))
            .collect();
        let mut env = Env::new();
        // An amplifier bids only once its oldest taped beacon has aged past
        // the replay delay (2 BPs here): member 1's first turn comes too
        // early and it sits out, so the channel is never double-booked.
        let expected: [&[u32]; 9] = [&[0], &[], &[2], &[0], &[1], &[2], &[0], &[1], &[2]];
        for (bp, want) in expected.iter().enumerate() {
            let heard = BeaconPayload::Plain(BeaconBody {
                src: 3,
                seq: bp as u32,
                timestamp_us: 30_000_000,
                root: 3,
                hop: 0,
            });
            let mut fixed = Vec::new();
            for m in members.iter_mut() {
                m.on_beacon(
                    &mut env.ctx(30e6),
                    ReceivedBeacon {
                        payload: heard,
                        local_rx_us: 30e6,
                    },
                );
                if m.intent(&mut env.ctx(30e6)) == BeaconIntent::FixedSlot(0) {
                    fixed.push(m.idx);
                }
            }
            assert_eq!(&fixed, want, "BP {bp}: one colluder at most owns slot 0");
            for m in members.iter_mut() {
                m.on_bp_end(&mut env.ctx(30e6));
            }
        }
    }

    #[test]
    fn members_behave_honestly_outside_window() {
        let mut m = CampaignMember::new(coalition(2), 0, TsfNode::new(), false);
        let mut env = Env::new();
        assert_eq!(m.intent(&mut env.ctx(10e6)), BeaconIntent::Contend);
        let b = m.make_beacon(&mut env.ctx(10e6));
        assert_eq!(b.body().timestamp_us, 10_000_000);
        assert_eq!(m.beacons_sent, 0);
    }

    #[test]
    fn lone_attacker_behaves_honestly_outside_window() {
        // At 10 s, well before the 400 s window: normal TSF contention.
        let mut a = CampaignMember::new(lone(100.0), 0, TsfNode::new(), false);
        let mut env = Env::new();
        assert_eq!(a.intent(&mut env.ctx(10e6)), BeaconIntent::Contend);
        let b = a.make_beacon(&mut env.ctx(10e6));
        assert_eq!(b.body().timestamp_us, 10_000_000);
        assert_eq!(a.beacons_sent, 0);
    }

    #[test]
    fn active_at_includes_the_start_and_excludes_the_end() {
        let spec = lone(30.0);
        assert!(!spec.active_at(399.0));
        assert!(spec.active_at(400.0));
        assert!(spec.active_at(599.0));
        assert!(!spec.active_at(600.0));
    }

    #[test]
    fn lone_attacker_takes_slot_zero_with_a_slow_timestamp() {
        let mut a = CampaignMember::new(lone(100.0), 0, TsfNode::new(), false);
        let mut env = Env::new();
        assert_eq!(a.intent(&mut env.ctx(450e6)), BeaconIntent::FixedSlot(0));
        let b = a.make_beacon(&mut env.ctx(450e6));
        assert_eq!(b.body().timestamp_us, 450_000_000 - 100);
        assert_eq!(a.beacons_sent, 1);
        assert!(!b.is_secured());
    }

    #[test]
    fn lone_attacker_signs_with_its_published_chain() {
        let mut a = CampaignMember::new(lone(30.0), 0, TsfNode::new(), true);
        let mut env = Env::new();
        let b = a.make_beacon(&mut env.ctx(450e6));
        let anchor = env
            .anchors
            .get(99)
            .expect("internal attacker's anchor is published");
        // The crafted beacon authenticates against the attacker's own
        // chain: the disclosed key hashes to the published anchor at
        // distance j − 1, and re-signing the same interval reproduces the
        // fields exactly.
        let BeaconPayload::Secured(body, auth) = b else {
            panic!("a secured member crafts secured beacons")
        };
        let j = auth.interval as usize;
        assert_eq!(j, 4_500, "interval from the member's clock");
        assert!(sstsp_crypto::verify_distance(
            &auth.disclosed,
            &anchor,
            j - 1
        ));
        let expected = a.signer.as_mut().unwrap().sign(&body.auth_bytes(), j);
        assert_eq!(auth, expected);
    }

    #[test]
    fn lone_attacker_error_stays_within_its_bound() {
        let mut a = CampaignMember::new(lone(30.0), 0, TsfNode::new(), true);
        let mut env = Env::new();
        for k in 0..50u64 {
            let local = 420e6 + k as f64 * 100_000.0;
            let b = a.make_beacon(&mut env.ctx(local));
            let err = a.clock_us(local) - b.body().timestamp_us as f64;
            assert!((30.0..31.0).contains(&err), "error drifted to {err}");
        }
    }

    #[test]
    fn collisions_do_not_deter_the_lone_attacker() {
        let mut a = CampaignMember::new(lone(10.0), 0, TsfNode::new(), false);
        let mut env = Env::new();
        for _ in 0..5 {
            assert_eq!(a.intent(&mut env.ctx(500e6)), BeaconIntent::FixedSlot(0));
            a.on_tx_outcome(&mut env.ctx(500e6), true);
            a.on_bp_end(&mut env.ctx(500e6));
        }
        assert_eq!(a.intent(&mut env.ctx(500e6)), BeaconIntent::FixedSlot(0));
    }

    #[test]
    fn leader_crafts_guard_passing_secured_beacons() {
        let mut m = CampaignMember::new(coalition(2), 0, TsfNode::new(), true);
        let mut env = Env::new();
        let b = m.make_beacon(&mut env.ctx(30e6));
        assert!(b.is_secured());
        assert_eq!(b.body().timestamp_us, 30_000_000 - 30);
        assert!(env.anchors.get(99).is_some(), "own anchor published");
        assert_eq!(m.beacons_sent, 1);
    }

    #[test]
    fn amplifier_replays_a_taped_beacon_after_the_delay() {
        let mut m = CampaignMember::new(coalition(2), 1, TsfNode::new(), false);
        let mut env = Env::new();
        let taped = BeaconPayload::Plain(BeaconBody {
            src: 3,
            seq: 41,
            timestamp_us: 29_000_000,
            root: 3,
            hop: 0,
        });
        m.on_beacon(
            &mut env.ctx(29e6),
            ReceivedBeacon {
                payload: taped,
                local_rx_us: 29e6,
            },
        );
        // Tape too fresh: the amplifier sits out its first turns.
        m.on_bp_end(&mut env.ctx(30e6)); // bp=1: amplifier's turn, age 1 < 2
        assert_eq!(m.intent(&mut env.ctx(30e6)), BeaconIntent::Silent);
        m.on_bp_end(&mut env.ctx(30e6));
        m.on_bp_end(&mut env.ctx(30e6)); // bp=3: its turn again, age 3 ≥ 2
        assert_eq!(m.intent(&mut env.ctx(30e6)), BeaconIntent::FixedSlot(0));
        assert_eq!(m.make_beacon(&mut env.ctx(30e6)), taped);
    }

    fn mesh_role(domain: u32, num_domains: u32, domain_of: Vec<u32>) -> MeshRole {
        MeshRole {
            domain,
            num_domains,
            bridge_index: None,
            domain_of: Arc::new(domain_of),
            bridges: Arc::new(vec![]),
        }
    }

    #[test]
    fn sybil_floods_the_earliest_candidacy_slot_of_its_domain() {
        let spec = CampaignSpec {
            kind: CampaignKind::SybilFlood { error_us: 30.0 },
            attackers: 2,
            start_s: 20.0,
            end_s: 40.0,
        };
        let mut m = CampaignMember::new(spec, 0, TsfNode::new(), true);
        m.set_mesh_role(mesh_role(1, 2, vec![0, 0, 0, 1, 1, 1]));
        let mut env = Env::new();
        // gap = airtime+1 = 8; earliest candidacy slot = num_domains·gap.
        assert_eq!(m.intent(&mut env.ctx(30e6)), BeaconIntent::FixedSlot(16));
        // Honest station 3's candidacy slot is (2+3)·8 = 40: the flood wins.
    }

    #[test]
    fn jammer_tracks_the_sitting_reference_slot() {
        let spec = CampaignSpec {
            kind: CampaignKind::RefSlotJam,
            attackers: 1,
            start_s: 20.0,
            end_s: 40.0,
        };
        // TSF inner has no reference concept: the secured jammer stays
        // silent rather than guessing.
        let mut m = CampaignMember::new(spec, 0, TsfNode::new(), true);
        m.set_mesh_role(mesh_role(1, 2, vec![0, 0, 0, 1, 1, 1]));
        let mut env = Env::new();
        assert_eq!(m.intent(&mut env.ctx(30e6)), BeaconIntent::Silent);
        // The plain variant jams TSF's contention floor.
        let mut p = CampaignMember::new(spec, 0, TsfNode::new(), false);
        assert_eq!(p.intent(&mut env.ctx(30e6)), BeaconIntent::FixedSlot(0));
        let b = p.make_beacon(&mut env.ctx(30e6));
        assert_eq!(b.body().timestamp_us, 0, "content no receiver adopts");
    }
}
