//! The protocol ⇄ engine interface.
//!
//! The engine calls protocols through [`SyncProtocol`]; protocols observe
//! the world exclusively through [`NodeCtx`] (their own clock reading, their
//! RNG stream, the anchor registry) and the beacons handed to
//! [`SyncProtocol::on_beacon`]. Real simulation time never crosses this
//! boundary — a protocol that wants the time must read its own clock, drift
//! and all.

use clocks::AdjustedClock;
use mac80211::frame::BeaconBody;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use sstsp_crypto::chain::chain_step_n;
use sstsp_crypto::{BeaconAuth, ChainElement};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

pub use rand_chacha;

/// Station identifier (index into the scenario's node table).
pub type NodeId = u32;

/// What a node wants to do in the upcoming beacon generation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeaconIntent {
    /// Do not transmit this BP.
    Silent,
    /// Join TSF contention: draw a random slot in `[0, w]`.
    Contend,
    /// Transmit at a fixed slot without random delay (slot 0 for the SSTSP
    /// reference node and for the fast-beacon attacker).
    FixedSlot(u32),
    /// Multi-hop relay: transmit at the given slot *only if* a beacon was
    /// decoded earlier in this window (forwarding the timing wave one hop).
    /// Treated as [`BeaconIntent::Silent`] by the single-hop channel.
    RelayAfterRx(u32),
}

/// A beacon as it travels the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeaconPayload {
    /// Plain TSF beacon.
    Plain(BeaconBody),
    /// µTESLA-secured SSTSP beacon.
    Secured(BeaconBody, BeaconAuth),
}

impl BeaconPayload {
    /// The carried beacon body.
    pub fn body(&self) -> &BeaconBody {
        match self {
            BeaconPayload::Plain(b) => b,
            BeaconPayload::Secured(b, _) => b,
        }
    }

    /// Sender id.
    pub fn src(&self) -> NodeId {
        self.body().src
    }

    /// Whether the beacon carries µTESLA fields.
    pub fn is_secured(&self) -> bool {
        matches!(self, BeaconPayload::Secured(..))
    }
}

/// A beacon as delivered to a receiver.
#[derive(Debug, Clone, Copy)]
pub struct ReceivedBeacon {
    /// The payload.
    pub payload: BeaconPayload,
    /// The receiver's local *unadjusted* time at the reception instant
    /// (this is `t_iʲ` in the paper's notation).
    pub local_rx_us: f64,
}

/// A registry entry: either a materialized anchor, or the `(seed, n)` pair
/// whose walk `hⁿ(seed)` is owed on first lookup.
#[derive(Debug, Clone, Copy)]
enum AnchorEntry {
    Ready(ChainElement),
    Deferred { seed: ChainElement, n: usize },
}

/// The authenticated publication channel for hash-chain anchors.
///
/// The paper assumes each node's anchor `hⁿ(s_i)` is distributed
/// authenticated (by signature, symmetric pre-keys, or out-of-band
/// imprinting — Sec. 3.2); the registry models that assumption. Publishing
/// is lazy (a node registers its anchor when it first generates its chain),
/// which is observationally equivalent to pre-publication because entries
/// are immutable once written.
///
/// Publication can even defer the anchor *walk* itself
/// ([`publish_deferred`](Self::publish_deferred)): the `n`-hash chain walk
/// is a pure function of the seed, so computing it at first lookup instead
/// of at registration returns bit-identical anchors while sparing the walk
/// entirely for stations nobody ever needs to authenticate. That walk is
/// the dominant setup cost of a large network (n hashes × N stations), and
/// in a single-collision-domain steady state only the reference's anchor
/// is ever looked up.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AnchorRegistry {
    anchors: HashMap<NodeId, Cell<AnchorEntry>>,
}

impl AnchorRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish `anchor` for `node`. First write wins; the authenticated
    /// distribution assumption means an attacker cannot overwrite a
    /// legitimate anchor.
    pub fn publish(&mut self, node: NodeId, anchor: ChainElement) {
        self.anchors
            .entry(node)
            .or_insert(Cell::new(AnchorEntry::Ready(anchor)));
    }

    /// Publish the anchor `hⁿ(seed)` without walking the chain yet; the
    /// walk runs on the first [`get`](Self::get) for `node`. First write
    /// wins, exactly as for [`publish`](Self::publish).
    pub fn publish_deferred(&mut self, node: NodeId, seed: ChainElement, n: usize) {
        self.anchors
            .entry(node)
            .or_insert(Cell::new(AnchorEntry::Deferred { seed, n }));
    }

    /// Look up a node's published anchor, materializing a deferred entry.
    pub fn get(&self, node: NodeId) -> Option<ChainElement> {
        let cell = self.anchors.get(&node)?;
        Some(match cell.get() {
            AnchorEntry::Ready(anchor) => anchor,
            AnchorEntry::Deferred { seed, n } => {
                let anchor = chain_step_n(&seed, n);
                cell.set(AnchorEntry::Ready(anchor));
                anchor
            }
        })
    }

    /// Number of published anchors.
    pub fn len(&self) -> usize {
        self.anchors.len()
    }

    /// Whether no anchors have been published.
    pub fn is_empty(&self) -> bool {
        self.anchors.is_empty()
    }
}

/// A node's place in a multi-collision-domain mesh, distributed
/// out-of-band by the engine after node construction (deployment-time
/// configuration, like the anchor registry — it never rides in beacons,
/// whose authenticated bytes must not change shape between single- and
/// multi-domain runs).
///
/// Receivers use [`domain_of`](Self::domain_of) to classify a beacon's
/// sender as same- or cross-domain; bridge nodes are exempt from domain
/// stickiness (they attach to whichever adjacent domain currently wins
/// the lowest-root rule and relay its time).
#[derive(Debug, Clone)]
pub struct MeshRole {
    /// The domain this node belongs to.
    pub domain: u32,
    /// Total number of domains in the mesh (references stagger their fixed
    /// beacon slots by domain index so a bridge can decode both).
    pub num_domains: u32,
    /// `Some(i)` iff this node is a gateway between domains, where `i` is
    /// its index in [`bridges`](Self::bridges) (bridges stagger their relay
    /// slots by this index).
    pub bridge_index: Option<u32>,
    /// Station id → domain index, shared across the network's nodes.
    pub domain_of: Arc<Vec<u32>>,
    /// Sorted gateway station ids, shared across the network's nodes.
    pub bridges: Arc<Vec<u32>>,
}

impl MeshRole {
    /// Whether this node is a gateway between domains.
    pub fn is_bridge(&self) -> bool {
        self.bridge_index.is_some()
    }

    /// The domain of station `id`.
    pub fn domain_of(&self, id: NodeId) -> u32 {
        self.domain_of[id as usize]
    }

    /// Whether station `id` is in this node's own domain.
    pub fn same_domain(&self, id: NodeId) -> bool {
        self.domain_of(id) == self.domain
    }

    /// Whether station `id` is a gateway.
    pub fn is_bridge_node(&self, id: NodeId) -> bool {
        self.bridges.binary_search(&id).is_ok()
    }
}

/// Attack-recovery policy — the paper's "future work" (Sec. 3.4): on
/// detecting malicious beacons, raise an alert and optionally restart the
/// synchronization procedure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Rejected beacons within the window required to trigger.
    pub rejection_threshold: u32,
    /// Sliding detection window, in BPs.
    pub window_bps: u32,
    /// If true, a triggered node restarts synchronization (re-enters the
    /// coarse phase); if false it only raises the alert counter.
    pub restart: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            rejection_threshold: 10,
            window_bps: 50,
            restart: false,
        }
    }
}

/// Shared protocol parameters (one instance per scenario).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// Beacon period, µs (paper: 0.1 s).
    pub bp_us: f64,
    /// Beacon generation window parameter `w` (paper: 30).
    pub w: u32,
    /// SSTSP: reference considered lost after `l` consecutive BPs without
    /// its beacon (paper: 1).
    pub l: u32,
    /// SSTSP: aggressiveness parameter `m` (Table 1 sweeps 1..=5).
    pub m: u32,
    /// SSTSP: fine-phase guard time δ, µs.
    pub guard_fine_us: f64,
    /// SSTSP: loose threshold used by the coarse phase, µs.
    pub guard_coarse_us: f64,
    /// Nominal transmission + propagation delay `t_p` receivers add to
    /// beacon timestamps, µs.
    pub t_p_us: f64,
    /// SSTSP: BPs a (re)joining node spends scanning in the coarse phase.
    pub coarse_scan_bps: u32,
    /// Hash-chain length (must cover every BP of the run).
    pub total_intervals: usize,
    /// ATSP: competition interval `I_max` for non-fastest stations.
    pub atsp_imax: u32,
    /// SATSF: ceiling of the adaptive competition-frequency score.
    pub satsf_fft_max: u32,
    /// SSTSP: optional attack-recovery policy (the paper's future work —
    /// detect, alert, optionally restart synchronization).
    pub recovery: Option<RecoveryPolicy>,
    /// SSTSP multi-hop extension: synchronized members relay the timing
    /// wave each BP at staggered slots. Enabled by the engine when the
    /// scenario has a topology; meaningless (and off) in single-hop mode.
    pub multihop_relay: bool,
    /// Beacon airtime in slots (needed to stagger relay waves so they do
    /// not overlap the upstream transmission).
    pub beacon_airtime_slots: u32,
    /// SSTSP mesh extension: per-collision-domain reference election. Each
    /// domain elects its fastest in-range station; non-bridge members only
    /// discipline to same-domain sources, bridges relay the winning
    /// domain's time across, and a reference hearing a lower root through a
    /// bridge *subordinates* (keeps its role and slot, disciplines toward
    /// the relayed time) instead of abdicating. Enabled by the engine for
    /// explicitly multi-domain topologies; requires [`MeshRole`]s to have
    /// been distributed.
    pub domain_election: bool,
    /// SSTSP: probability that an election-eligible node actually joins the
    /// contention in a given BP.
    ///
    /// The paper has *every* node contend once the reference is lost; with
    /// hundreds of stations in a 31-slot window the probability of a unique
    /// earliest-slot winner is then astronomically small and the election
    /// never terminates. Randomized deferral (each eligible node contends
    /// with this probability, doubling every 10 eligible BPs until it
    /// reaches 1) keeps the expected contender count near `p·N`, so
    /// elections resolve within a few BPs at every network size — matching
    /// the paper's "in case of collision, the contention may last several
    /// BPs" and the small reference-change spikes of Fig. 2. Documented as
    /// a reproduction deviation in DESIGN.md.
    pub contend_prob: f64,
}

impl ProtocolConfig {
    /// The paper's simulation parameters (Sec. 5): BP = 0.1 s, w = 30,
    /// l = 1, and a run horizon of 1000 s (10 000 intervals + margin).
    pub fn paper() -> Self {
        ProtocolConfig {
            bp_us: 100_000.0,
            w: 30,
            l: 1,
            m: 4,
            guard_fine_us: 300.0,
            guard_coarse_us: 5_000.0,
            t_p_us: 63.5,
            coarse_scan_bps: 5,
            total_intervals: 10_100,
            atsp_imax: 10,
            satsf_fft_max: 8,
            recovery: None,
            multihop_relay: false,
            beacon_airtime_slots: 7,
            domain_election: false,
            contend_prob: 0.05,
        }
    }

    /// Enable the attack-recovery extension.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Override the election contention probability (tests use 1.0 to make
    /// elections deterministic).
    pub fn with_contend_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.contend_prob = p;
        self
    }

    /// Paper parameters with a different `m`.
    pub fn with_m(mut self, m: u32) -> Self {
        self.m = m;
        self
    }

    /// Paper parameters with a different `l`.
    pub fn with_l(mut self, l: u32) -> Self {
        self.l = l;
        self
    }
}

/// A compact snapshot of the protocol state the engine's beacon-period loop
/// reads every beacon period.
///
/// The engine keeps these in dense structure-of-arrays storage so the per-BP
/// metric passes (spread sampling, reference lookup, follower counting) are
/// tight linear scans instead of virtual calls into scattered `Box<dyn>`
/// node structs. A snapshot is pure *cache*: it must describe exactly what
/// the trait methods would return at the instant it was taken, and the
/// engine refreshes it after every callback that can mutate node state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotState {
    /// The node's synchronized clock as an affine function of local
    /// unadjusted time: `clock_us(local) = k * local + b`, evaluated with
    /// exactly one multiply and one add (no re-association, no FMA) so the
    /// result is bit-identical to [`SyncProtocol::clock_us`]. `None` when
    /// the protocol's clock is not affine in local time.
    pub affine_clock: Option<(f64, f64)>,
    /// Mirror of [`SyncProtocol::is_synchronized`].
    pub synchronized: bool,
    /// Mirror of [`SyncProtocol::is_reference`].
    pub is_reference: bool,
    /// Mirror of [`SyncProtocol::current_reference`].
    pub current_reference: Option<NodeId>,
    /// The intent [`SyncProtocol::intent`] would return this BP, when that
    /// is decidable without consuming an RNG draw (and without the local
    /// clock reading). `None` means the engine must make the real call —
    /// either the decision needs randomness or the protocol does not
    /// predict its intents. Correctness requires: if `Some(i)`, the real
    /// `intent()` call would return exactly `i` *and* would not touch the
    /// node's RNG stream.
    ///
    /// SSTSP predicts every branch that draws nothing: absent and
    /// coarse-phase stations, the reference's fixed slot, domain-mode
    /// gateways and members, and election contenders whose ramped
    /// contention probability has saturated at 1 (`Contend`; the engine
    /// then draws the slot on the station's backoff stream, as for a real
    /// `Contend`). It defers contenders still ramping below 1, multi-hop
    /// relay participation outside domain mode, and domain-mode
    /// candidacy, whose slot needs the station id. The engine counts the
    /// two outcomes as `engine.intent.cached` and `engine.intent.called`.
    pub static_intent: Option<BeaconIntent>,
}

/// Everything a protocol may observe or use during one callback.
pub struct NodeCtx<'a> {
    /// This node's id.
    pub id: NodeId,
    /// This node's local unadjusted clock reading at the callback instant,
    /// µs (`t_i` in the paper).
    pub local_us: f64,
    /// The node's deterministic protocol RNG stream.
    pub rng: &'a mut ChaCha12Rng,
    /// The authenticated anchor registry.
    pub anchors: &'a mut AnchorRegistry,
    /// Scenario-wide protocol parameters.
    pub config: &'a ProtocolConfig,
}

/// A per-node synchronization protocol state machine.
pub trait SyncProtocol {
    /// Node initiation, called once before the first beacon period. SSTSP
    /// nodes generate their one-way hash chain here and publish its anchor
    /// (Sec. 3.3 "Node initiation"); other protocols need nothing.
    fn init(&mut self, _ctx: &mut NodeCtx<'_>) {}

    /// The seed of the node's one-way hash chain, if it maintains one. Lets
    /// wrappers (e.g. the internal attacker, which *is* a compromised
    /// legitimate node) sign with the node's published credentials — the
    /// seed is the entire secret, and a signer rebuilt from it emits
    /// byte-identical authentication fields.
    fn chain_seed(&self) -> Option<ChainElement> {
        None
    }

    /// Deployment-time mesh configuration: the node's collision domain,
    /// bridge flag, and the shared station→domain map. Called once by the
    /// engine after construction for multi-domain topologies; protocols
    /// without per-domain behavior ignore it.
    fn set_mesh_role(&mut self, _role: MeshRole) {}

    /// Called at the start of each beacon period: what does this node do in
    /// the beacon generation window?
    fn intent(&mut self, ctx: &mut NodeCtx<'_>) -> BeaconIntent;

    /// Called at the node's transmission instant when it won the window
    /// (exactly one transmitter). `ctx.local_us` includes the sub-µs
    /// timestamping jitter of the hardware path.
    fn make_beacon(&mut self, ctx: &mut NodeCtx<'_>) -> BeaconPayload;

    /// Transmit feedback: the node transmitted and (`collided = true`) its
    /// beacon was destroyed by a collision, or (`false`) it went out clean.
    /// Collision awareness models carrier-sense-based inference over the
    /// following beacon period.
    fn on_tx_outcome(&mut self, ctx: &mut NodeCtx<'_>, collided: bool);

    /// A beacon arrived.
    fn on_beacon(&mut self, ctx: &mut NodeCtx<'_>, rx: ReceivedBeacon);

    /// Called at the end of each beacon period (bookkeeping: missed-beacon
    /// counters, phase transitions).
    fn on_bp_end(&mut self, ctx: &mut NodeCtx<'_>);

    /// The node's *synchronized* clock — the quantity the paper's figures
    /// plot — as a function of local unadjusted time.
    fn clock_us(&self, local_us: f64) -> f64;

    /// The node (re)joined the network (churn return). Protocols reset
    /// their synchronization state; the hardware clock keeps its drift.
    fn on_join(&mut self, ctx: &mut NodeCtx<'_>);

    /// The node left the network.
    fn on_leave(&mut self, ctx: &mut NodeCtx<'_>);

    /// Whether this node currently acts as the SSTSP reference.
    fn is_reference(&self) -> bool {
        false
    }

    /// Whether this node considers itself synchronized with the network.
    /// Nodes still in a (re)synchronization phase return `false` and are
    /// excluded from the maximum-clock-difference metric — a station that
    /// has not yet joined the timing structure is not part of the
    /// synchronized set the paper measures.
    fn is_synchronized(&self) -> bool {
        true
    }

    /// Protocol name for reports.
    fn name(&self) -> &'static str;

    /// SSTSP diagnostic counters, if this node runs SSTSP (used by the
    /// harness to report guard/µTESLA rejection totals).
    fn sstsp_stats(&self) -> Option<crate::sstsp::SstspStats> {
        None
    }

    /// The station this node currently treats as its reference (its own id
    /// when it holds the role itself). `None` for protocols without a
    /// reference concept or while no reference is known.
    fn current_reference(&self) -> Option<NodeId> {
        None
    }

    /// Snapshot the state the engine caches in dense arrays
    /// (see [`HotState`]). The default is maximally conservative: no affine
    /// clock, no static intent — the engine then behaves exactly as it
    /// would without the cache. Protocols overriding this must keep every
    /// field consistent with the corresponding trait methods at all times.
    fn hot_state(&self, _config: &ProtocolConfig) -> HotState {
        HotState {
            affine_clock: None,
            synchronized: self.is_synchronized(),
            is_reference: self.is_reference(),
            current_reference: self.current_reference(),
            static_intent: None,
        }
    }
}

/// Convenience: the node's adjusted clock if the protocol exposes one (used
/// by tests and the harness to introspect SSTSP nodes).
pub trait HasAdjustedClock {
    /// The current adjusted clock.
    fn adjusted_clock(&self) -> &AdjustedClock;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_first_write_wins() {
        let mut r = AnchorRegistry::new();
        r.publish(1, [0xAA; 16]);
        r.publish(1, [0xBB; 16]);
        assert_eq!(r.get(1), Some([0xAA; 16]));
        assert_eq!(r.get(2), None);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn payload_accessors() {
        let body = BeaconBody {
            src: 7,
            seq: 1,
            timestamp_us: 99,
            root: 7,
            hop: 0,
        };
        let plain = BeaconPayload::Plain(body);
        assert_eq!(plain.src(), 7);
        assert!(!plain.is_secured());
        let secured = BeaconPayload::Secured(
            body,
            BeaconAuth {
                interval: 1,
                mac: [0; 16],
                disclosed: [0; 16],
            },
        );
        assert!(secured.is_secured());
        assert_eq!(secured.body().timestamp_us, 99);
    }

    #[test]
    fn paper_config_invariants() {
        let c = ProtocolConfig::paper();
        assert_eq!(c.bp_us, 100_000.0);
        assert_eq!(c.w, 30);
        assert_eq!(c.l, 1);
        assert!(c.total_intervals > 10_000, "chain must cover a 1000 s run");
        assert!(c.guard_coarse_us > c.guard_fine_us);
        let c2 = ProtocolConfig::paper().with_m(2).with_l(3);
        assert_eq!(c2.m, 2);
        assert_eq!(c2.l, 3);
    }
}
