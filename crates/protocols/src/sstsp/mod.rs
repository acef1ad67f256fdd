//! SSTSP — the Scalable Secure Time Synchronization Procedure
//! (Chen & Leneutre, ICPP 2006). This is the paper's contribution.
//!
//! ## Protocol summary
//!
//! * **Coarse phase** (new arrivals only): scan beacons for a few BPs,
//!   collect `timestamp − local` offsets, eliminate biased offsets with a
//!   loose threshold filter, average the survivors, and step the adjusted
//!   clock once. This provides the loose synchronization µTESLA needs.
//! * **Fine phase**: one node is the **reference**. It transmits a
//!   µTESLA-secured beacon at slot 0 of every BP with no random delay.
//!   Everyone else keeps silent and disciplines an [`AdjustedClock`]
//!   (`c_i(t_i) = kʲ t_i + bʲ`) toward the reference using the paper's
//!   equations (2)–(5), with aggressiveness `m`.
//! * **Election**: a node that has not heard a reference beacon for more
//!   than `l` BPs enters TSF-style contention; the station whose beacon
//!   goes out first uncollided becomes the new reference. A reference
//!   whose own beacons keep colliding (another station is beaconing at
//!   slot 0 — e.g. the attacker of Fig. 4) steps down through the same
//!   `l`-missed rule.
//! * **Security checks** on every received beacon, in order:
//!   1. the µTESLA interval index must match the receiver's current
//!      interval (anti-replay);
//!   2. the disclosed key must hash to the published anchor (or to a cached
//!      authenticated element);
//!   3. the timestamp must be within the guard time δ of the receiver's
//!      adjusted clock;
//!   4. clock adjustment only ever uses beacons *authenticated* by a later
//!      disclosed key, i.e. beacons `j − 1` and `j − 2` at reception of
//!      beacon `j`.
//!
//! (The paper lists the guard check after key validation; the checks are
//! independent and all must pass, so we run the cheap local guard first and
//! only then pay for hash verification — same accept/reject set.)

use crate::api::{
    BeaconIntent, BeaconPayload, HotState, MeshRole, NodeCtx, NodeId, ProtocolConfig,
    ReceivedBeacon, RxVerdict, SyncProtocol,
};
use clocks::{AdjustedClock, SyncSample};
use mac80211::frame::BeaconBody;
use rand::Rng;
use sstsp_crypto::{ChainElement, IntervalSchedule, MuTeslaSigner, MuTeslaVerifier};
use sstsp_telemetry as telemetry;
use std::collections::VecDeque;

/// Retired per-source verifiers kept for reuse. Bounds the cache to the
/// handful of stations a node realistically alternates between (reference
/// churn, domain merges); beyond that the oldest entry is evicted and its
/// next use pays one anchor walk again.
const VERIFIER_CACHE_CAP: usize = 8;

/// The loose guard threshold, µs, of a station not yet locked to the fine
/// guard δ; the coarse phase filters its offsets with it too.
pub(crate) const GUARD_COARSE_US: f64 = 5_000.0;

/// BPs a (re)joining station spends scanning in the coarse phase.
const COARSE_SCAN_BPS: u32 = 5;

/// Diagnostic counters exposed for tests, ablations and reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct SstspStats {
    /// Beacons rejected by the guard-time check.
    pub guard_rejections: u64,
    /// Beacons rejected by µTESLA (interval or key or MAC).
    pub mutesla_rejections: u64,
    /// Beacons from sources with no published anchor (external attacker).
    pub unknown_anchor: u64,
    /// Successful clock re-targetings.
    pub retargets: u64,
    /// Elections this node won (reference role assumptions).
    pub elections_won: u64,
    /// Coarse-phase completions.
    pub coarse_syncs: u64,
    /// Attack alerts raised by the recovery extension.
    pub alerts: u64,
    /// Synchronization restarts performed by the recovery extension.
    pub recovery_restarts: u64,
    /// Secured beacons that passed every check (guard + µTESLA) and were
    /// admitted as evidence of a live reference. Debug builds of the engine
    /// check that it moves exactly on an [`RxVerdict::Accept`].
    pub accepted: u64,
    /// Discontinuous adjusted-clock steps (coarse-phase completion, domain
    /// takeover): the *sanctioned* discontinuities. A takeover's step is
    /// the `clock_step` of its accept verdict, which debug builds check
    /// against this counter.
    pub clock_steps: u64,
    /// Snapshot of the guard-lock state (coarse → fine δ) at the time the
    /// stats were read. Not a counter; debug builds check it, read before a
    /// delivery, against the `guard_locked` of the delivery's accept
    /// verdict.
    pub guard_locked: bool,
}

/// A beacon observation awaiting µTESLA authentication: reception data for
/// interval `interval`, usable for clock adjustment only once a later
/// beacon discloses the interval's key.
#[derive(Debug, Clone, Copy)]
struct PendingObs {
    interval: u32,
    local_rx_us: f64,
    ts_ref_us: f64,
}

/// A first-in first-out queue of at most `N` entries, held inline so a
/// station's receive state needs no heap buffer. Reads go through the
/// slice of live entries, oldest first.
struct InlineFifo<T: Copy, const N: usize> {
    items: [T; N],
    len: usize,
}

impl<T: Copy, const N: usize> InlineFifo<T, N> {
    /// An empty queue; `fill` only initializes the unused slots.
    fn new(fill: T) -> Self {
        InlineFifo {
            items: [fill; N],
            len: 0,
        }
    }

    fn clear(&mut self) {
        self.len = 0;
    }

    /// Append `item`, evicting the oldest entry when the queue is full.
    fn push_evicting(&mut self, item: T) {
        if self.len == N {
            self.items.copy_within(1.., 0);
            self.len -= 1;
        }
        self.items[self.len] = item;
        self.len += 1;
    }

    /// Remove and return the entry at `i` (0 = oldest).
    fn remove(&mut self, i: usize) -> T {
        let item = self[i];
        self.items.copy_within(i + 1..self.len, i);
        self.len -= 1;
        item
    }
}

impl<T: Copy, const N: usize> std::ops::Deref for InlineFifo<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

#[derive(Debug, Clone)]
enum Phase {
    /// Pre-synchronization scan (Sec. 3.3 "coarse synchronization phase").
    Coarse { offsets: Vec<f64>, bps_left: u32 },
    /// Normal operation.
    Fine,
}

/// This BP's beacon intent as SSTSP decides it, before any random draw:
/// the one copy of the intent rule, which `intent()` resolves and
/// `hot_state` mirrors in its draw-free cases.
enum IntentRule<'a> {
    /// Decided without a draw or the station id.
    Fixed(BeaconIntent),
    /// Domain-mode candidacy: a fixed slot that needs the station id.
    Candidate(&'a MeshRole),
    /// Multi-hop relay participation with probability `p` at wave slot
    /// `slot`.
    Relay { p: f64, slot: u32 },
    /// Election contention with probability `p`.
    Contend(f64),
}

/// A station running SSTSP.
pub struct SstspNode {
    adjusted: AdjustedClock,
    phase: Phase,
    /// A node joining the network does not contend until synchronized.
    synchronized: bool,
    is_reference: bool,
    seq: u32,
    /// Consecutive BPs without evidence of a live reference.
    missed_bps: u32,
    /// Consecutive BPs spent election-eligible (drives the contention
    /// probability ramp; see `ProtocolConfig::contend_prob`).
    eligible_bps: u32,
    /// The node's own µTESLA signer. Fractal-backed: it stores O(log n)
    /// chain elements, not the full chain. Constructed lazily from
    /// `chain_seed` the first time this node actually signs (reference
    /// assumption or relay duty); node initiation only draws the seed and
    /// registers a deferred anchor, so a station that never transmits
    /// never pays its chain walk. Tests that skip `init` fall back to
    /// seed-drawing at first reference assumption. Boxed, because few
    /// stations ever sign: inline it would add 152 bytes to every
    /// station's state, which the per-BP sweep over all stations pays for.
    signer: Option<Box<MuTeslaSigner>>,
    /// The chain seed drawn at initiation, pending signer construction.
    chain_seed: Option<ChainElement>,
    ref_src: Option<NodeId>,
    /// The timing-domain root this node's clock descends from (its own id
    /// while holding the reference role). Propagated in beacons so
    /// partitioned multi-hop domains can merge toward the lowest root id.
    domain_root: Option<NodeId>,
    /// Hop distance from the timing-domain root (0 as reference,
    /// upstream.hop + 1 as member). `u32::MAX` = not attached.
    my_hop: u32,
    verifier: Option<MuTeslaVerifier>,
    /// Retired verifiers by source, so re-hearing a station validates its
    /// disclosed keys against that verifier's cached authenticated element
    /// (O(Δj) hashes) instead of re-walking the chain to the anchor (O(j))
    /// on every beacon. Pending buffers are cleared on stash/reuse, which
    /// keeps accept/reject decisions identical to a freshly built verifier.
    verifier_cache: Vec<(NodeId, MuTeslaVerifier)>,
    /// Guard-time state: `false` = still converging, the loose coarse
    /// threshold applies; `true` = locked onto the reference, the tight
    /// fine-phase δ applies. The paper distinguishes exactly these two
    /// regimes ("a tighter threshold here than that in the coarse
    /// synchronization phase"); the lock engages once the observed
    /// timestamp error first drops under δ/2.
    guard_locked: bool,
    /// Observations awaiting their interval's key; the oldest is dropped
    /// past four.
    pending: InlineFifo<PendingObs, 4>,
    /// The last two authenticated observations, oldest first: the inputs
    /// of equations (2)–(5).
    samples: InlineFifo<SyncSample, 2>,
    // Per-BP flags.
    saw_beacon: bool,
    tx_clean: bool,
    tx_collided: bool,
    /// Secured beacons heard this BP (local density estimate for the
    /// multi-hop relay participation probability).
    rx_secured_this_bp: u32,
    /// Previous BP's count.
    last_rx_secured: u32,
    /// A beacon of our own timing domain was heard this BP (even if it was
    /// sticky-ignored for clock purposes).
    domain_heard: bool,
    /// Consecutive BPs without hearing our domain at all. Elections (which
    /// spawn a new domain) key off this, not off upstream loss: losing an
    /// upstream relay only warrants re-attachment.
    domain_silent_bps: u32,
    /// Consecutive guard rejections of our *own* upstream's beacons. A node
    /// persistently rejecting its own domain is itself desynchronized
    /// (e.g. its clock froze mid-merge with a steep rate) and must resync.
    upstream_rejects: u32,
    /// Consecutive BPs in which beacons were heard but all rejected. A long
    /// streak means our clock left even the µTESLA interval window; only
    /// re-acquiring loose synchronization (the coarse phase) can recover.
    desync_bps: u32,
    /// Beacons rejected during the current BP (recovery detection input).
    rejections_this_bp: u32,
    /// Per-BP rejection history over the recovery window.
    rejection_window: VecDeque<u32>,
    /// Deployment-time mesh configuration (domain, gateway flag, shared
    /// station→domain map); `None` outside multi-domain topologies.
    mesh_role: Option<MeshRole>,
    /// Subordinate-reference upkeep: consecutive BPs without an accepted
    /// beacon from the gateway upstream. Past the election threshold the
    /// subordinate reverts to sovereign rule of its own domain.
    sub_missed: u32,
    /// Diagnostics.
    pub stats: SstspStats,
}

impl SstspNode {
    /// A founding member of the IBSS: starts in the fine phase, considered
    /// loosely synchronized (its initial offset is within the coarse
    /// bound), and immediately eligible for the initial reference election.
    pub fn founding() -> Self {
        SstspNode {
            adjusted: AdjustedClock::identity(),
            phase: Phase::Fine,
            synchronized: true,
            is_reference: false,
            seq: 0,
            missed_bps: 0,
            eligible_bps: 0,
            signer: None,
            chain_seed: None,
            ref_src: None,
            domain_root: None,
            my_hop: u32::MAX,
            verifier: None,
            verifier_cache: Vec::new(),
            guard_locked: false,
            pending: InlineFifo::new(PendingObs {
                interval: 0,
                local_rx_us: 0.0,
                ts_ref_us: 0.0,
            }),
            samples: InlineFifo::new(SyncSample {
                local_us: 0.0,
                ref_us: 0.0,
            }),
            saw_beacon: false,
            tx_clean: false,
            tx_collided: false,
            rx_secured_this_bp: 0,
            last_rx_secured: 0,
            domain_heard: false,
            domain_silent_bps: 0,
            upstream_rejects: 0,
            desync_bps: 0,
            rejections_this_bp: 0,
            rejection_window: VecDeque::new(),
            mesh_role: None,
            sub_missed: 0,
            stats: SstspStats::default(),
        }
    }

    /// Whether the node considers itself synchronized with the network.
    pub fn is_synchronized(&self) -> bool {
        self.synchronized
    }

    /// The current reference this node follows, if any.
    pub fn reference(&self) -> Option<NodeId> {
        if self.is_reference {
            None
        } else {
            self.ref_src
        }
    }

    fn schedule(ctx: &NodeCtx<'_>) -> IntervalSchedule {
        IntervalSchedule::new(0.0, ctx.config.bp_us, ctx.config.total_intervals)
    }

    /// How many missed BPs make a node election-eligible. In single-hop
    /// operation reference silence for l+1 BPs means the reference left.
    /// In relay (multi-hop) mode upstream silence is usually just a lost
    /// relay round — other upstreams are audible and re-attachment is far
    /// cheaper than spawning a new timing domain — so elections wait much
    /// longer.
    fn election_threshold(&self, config: &ProtocolConfig) -> u32 {
        if config.multihop_relay {
            config.l + 8
        } else {
            config.l
        }
    }

    /// The counter elections key off: upstream loss in single-hop (the
    /// reference *is* the domain), total domain silence in relay mode
    /// (sibling relays prove the domain is alive even when our own
    /// upstream went quiet).
    fn election_counter(&self, config: &ProtocolConfig) -> u32 {
        if config.multihop_relay {
            self.domain_silent_bps
        } else {
            self.missed_bps
        }
    }

    /// This BP's election contention probability outside domain mode:
    /// `contend_prob` doubled every 10 eligible BPs (at most 64×), capped
    /// at 1. At 1 the station contends without an RNG draw.
    fn contend_probability(&self, config: &ProtocolConfig) -> f64 {
        let ramp = (self.eligible_bps / 10).min(6);
        (config.contend_prob * f64::from(1u32 << ramp)).min(1.0)
    }

    /// Whether per-domain election semantics apply to this node: the
    /// scenario enables them *and* a mesh role was distributed.
    fn domain_mode(&self, config: &ProtocolConfig) -> bool {
        config.domain_election && self.mesh_role.is_some()
    }

    /// A *subordinate* reference holds its domain's reference role (slot,
    /// beacons, election identity) while its clock descends from a foreign
    /// root relayed through a gateway. Detected as a reference whose
    /// timing-domain root is not itself; outside domain mode this is never
    /// true ([`Self::become_reference`] always roots at the own id and the
    /// adoption path always clears the role first).
    fn is_subordinate(&self, id: NodeId) -> bool {
        self.is_reference && self.domain_root.is_some() && self.domain_root != Some(id)
    }

    /// The fixed beacon slot this node uses while holding the reference
    /// role. Single-domain operation: slot 0 (the paper's rule). Domain
    /// mode staggers references by one beacon airtime per domain index so
    /// a gateway in range of two references can decode both.
    fn reference_slot(&self, config: &ProtocolConfig) -> u32 {
        match self.mesh_role.as_ref().filter(|_| config.domain_election) {
            Some(role) => role.domain * (config.beacon_airtime_slots + 1),
            None => 0,
        }
    }

    /// The deterministic candidacy slot a domain member beacons in when
    /// its domain has fallen silent: staggered past every reference slot
    /// — so a live reference's earlier transmission always cancels a
    /// candidate, and candidacy can never starve a working reference —
    /// and unique per station, so the lowest eligible id transmits first
    /// and every other candidate cancels on hearing it. Elections in
    /// domain mode are therefore collision-free and draw no randomness.
    fn candidate_slot(role: &MeshRole, id: NodeId, config: &ProtocolConfig) -> u32 {
        (role.num_domains + id) * (config.beacon_airtime_slots + 1)
    }

    /// The gateway relay slot in domain mode: staggered past every
    /// reference *and* candidate slot (a relaying gateway must never
    /// cancel a silent domain's election), and per-gateway so two
    /// gateways sharing an island never collide deterministically.
    fn bridge_relay_slot(role: &MeshRole, config: &ProtocolConfig) -> u32 {
        let b = role.bridge_index.unwrap_or(0);
        let stations = role.domain_of.len() as u32;
        (role.num_domains + stations + b) * (config.beacon_airtime_slots + 1)
    }

    /// This BP's [`IntentRule`]: silent while scanning; the
    /// reference's slot; relay participation for a synchronized relay-mode
    /// station hearing its upstream; election candidacy or contention once
    /// the election counter passes its threshold; silence otherwise.
    /// Always inlined: `hot_state` runs per station per BP, and out of line
    /// this call made perfbench's `paper_fig4` end-of-BP stage 5–9 % slower
    /// (2-vCPU x86-64 host).
    #[inline(always)]
    fn intent_rule(&self, config: &ProtocolConfig) -> IntentRule<'_> {
        if matches!(self.phase, Phase::Coarse { .. }) {
            return IntentRule::Fixed(BeaconIntent::Silent);
        }
        if self.is_reference {
            return IntentRule::Fixed(BeaconIntent::FixedSlot(self.reference_slot(config)));
        }
        let domain_role = self.mesh_role.as_ref().filter(|_| config.domain_election);
        if config.multihop_relay
            && self.synchronized
            && self.ref_src.is_some()
            && self.my_hop != u32::MAX
            && self.missed_bps <= config.l
        {
            return match domain_role {
                // Domain mode is fully deterministic: a gateway relays at
                // its reserved slot (staggered past every reference slot)
                // and an ordinary member never relays — its domain's own
                // reference covers the whole clique.
                Some(role) if role.is_bridge() => IntentRule::Fixed(BeaconIntent::RelayAfterRx(
                    Self::bridge_relay_slot(role, config),
                )),
                Some(_) => IntentRule::Fixed(BeaconIntent::Silent),
                // Multi-hop extension: forward the timing wave at a slot
                // staggered by hop distance, so hop h's relays do not
                // overlap hop h-1's transmission. Three waves fit the
                // window; deeper hops pipeline (they forward their own
                // disciplined clock, so one-BP-old discipline is fine).
                // Participation is probabilistic and density-adaptive: two
                // same-wave relays sharing a receiver would otherwise
                // collide *deterministically* every BP and partition the
                // network into permanent timing domains, and dense
                // neighborhoods need fewer active relays.
                None => IntentRule::Relay {
                    p: (3.0 / self.last_rx_secured.max(1) as f64).clamp(0.3, 1.0),
                    slot: (1 + (self.my_hop.max(1) - 1) % 3) * (config.beacon_airtime_slots + 1),
                },
            };
        }
        if self.synchronized && self.election_counter(config) > self.election_threshold(config) {
            return match domain_role {
                // Gateways couple domains; they never run for a domain's
                // reference role.
                Some(role) if role.is_bridge() => IntentRule::Fixed(BeaconIntent::Silent),
                // Domain-mode candidacy is deterministic (see
                // [`Self::candidate_slot`]): random contention slots could
                // land *before* the sitting reference's fixed slot, cancel
                // its beacon every BP and starve it into step-down — a
                // permanent election thrash.
                Some(role) => IntentRule::Candidate(role),
                // Election-eligible: contend with ramping probability (see
                // ProtocolConfig::contend_prob for why not always).
                None => IntentRule::Contend(self.contend_probability(config)),
            };
        }
        IntentRule::Fixed(BeaconIntent::Silent)
    }

    /// The µTESLA interval for the node's current adjusted time, clamped to
    /// the chain range (beacons in the pre-chain half-window round to 1).
    fn interval_for(&self, ctx: &NodeCtx<'_>, local_us: f64) -> usize {
        let c = self.adjusted.value(local_us);
        let j = (c / ctx.config.bp_us).round();
        (j.max(1.0) as usize).min(ctx.config.total_intervals)
    }

    /// Draw the node's chain seed and register its (deferred) anchor, if
    /// not done yet (idempotent). Consumes exactly the randomness the
    /// eager chain build used to, so RNG stream positions are unchanged.
    fn ensure_seed(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.signer.is_none() && self.chain_seed.is_none() {
            let mut seed: ChainElement = [0u8; 16];
            ctx.rng.fill(&mut seed);
            ctx.anchors
                .publish_deferred(ctx.id, seed, ctx.config.total_intervals);
            self.chain_seed = Some(seed);
        }
    }

    /// Create the node's µTESLA signer (walking the chain) and publish its
    /// anchor, if not done yet (idempotent).
    fn ensure_chain(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.signer.is_none() {
            self.ensure_seed(ctx);
            let seed = self.chain_seed.take().expect("seed drawn above");
            let signer = MuTeslaSigner::new(seed, Self::schedule(ctx));
            ctx.anchors.publish(ctx.id, signer.anchor());
            self.signer = Some(Box::new(signer));
        }
    }

    /// Retire the active verifier into the per-source cache (pending buffer
    /// dropped) so a later return to that source resumes from its cached
    /// authenticated element instead of the anchor.
    fn stash_verifier(&mut self) {
        let (Some(src), Some(mut v)) = (self.ref_src, self.verifier.take()) else {
            return;
        };
        v.clear_pending();
        self.cache_verifier(src, v);
    }

    fn cache_verifier(&mut self, src: NodeId, v: MuTeslaVerifier) {
        if let Some(slot) = self.verifier_cache.iter_mut().find(|(s, _)| *s == src) {
            slot.1 = v;
            return;
        }
        if self.verifier_cache.len() >= VERIFIER_CACHE_CAP {
            self.verifier_cache.remove(0);
        }
        self.verifier_cache.push((src, v));
    }

    fn become_reference(&mut self, ctx: &mut NodeCtx<'_>) {
        self.ensure_chain(ctx);
        // Retire the verifier of the upstream being left behind (keyed by
        // the *old* ref_src, so it must happen before the role flips).
        self.stash_verifier();
        // The reference's clock is frozen (it disciplines no one's clock
        // but its own hardware): replace any catch-up transient in k with
        // the best *rate* estimate available, so the network's time base
        // advances at ~1x real time.
        if self.samples.len() == 2 {
            let d_ref = self.samples[1].ref_us - self.samples[0].ref_us;
            let d_local = self.samples[1].local_us - self.samples[0].local_us;
            if d_local > 0.0 && d_ref > 0.0 {
                let rate = (d_ref / d_local).clamp(0.999, 1.001);
                self.adjusted.set_rate_continuous(ctx.local_us, rate);
            }
        } else if (self.adjusted.k() - 1.0).abs() > 1e-3 {
            // No rate estimate: at least drop an implausible transient.
            self.adjusted.set_rate_continuous(ctx.local_us, 1.0);
        }
        self.is_reference = true;
        self.ref_src = Some(ctx.id);
        self.domain_root = Some(ctx.id);
        self.my_hop = 0;
        // The reference is definitionally synchronized: if later displaced
        // it must hold the tight guard, not the joining-node threshold.
        self.guard_locked = true;
        self.samples.clear();
        self.pending.clear();
        self.missed_bps = 0;
        self.eligible_bps = 0;
        self.stats.elections_won += 1;
        telemetry::count!("sstsp.election.won");
    }

    fn step_down(&mut self) {
        self.stash_verifier();
        self.is_reference = false;
        self.ref_src = None;
        self.domain_root = None;
        self.my_hop = u32::MAX;
        self.sub_missed = 0;
        self.samples.clear();
        self.pending.clear();
    }

    /// The fine phase's handling of a secured beacon: domain and
    /// stickiness rules, the guard check, µTESLA, then the clock update.
    /// Each exit returns its own verdict.
    fn on_secured_beacon(&mut self, ctx: &mut NodeCtx<'_>, rx: &ReceivedBeacon) -> RxVerdict {
        let BeaconPayload::Secured(body, auth) = rx.payload else {
            return RxVerdict::Ignored;
        };
        let src = body.src;
        self.rx_secured_this_bp = self.rx_secured_this_bp.saturating_add(1);

        // Per-domain election: receivers classify senders through the
        // deployment-time mesh role (never through beacon bytes, which are
        // identical to single-domain operation). Ordinary members listen
        // only to their own domain's non-gateway stations — a gateway's
        // relays exist to couple *references*, not to discipline members,
        // and must not count as evidence the domain's own reference is
        // alive. A reference additionally accepts gateway relays (its
        // subordination path). Gateways themselves listen to everything
        // and attach by the usual lowest-root rule.
        if let Some(role) = self
            .mesh_role
            .as_ref()
            .filter(|_| ctx.config.domain_election)
        {
            if !role.is_bridge() {
                let src_bridge = role.is_bridge_node(src);
                let allowed = if self.is_reference {
                    src_bridge || role.same_domain(src)
                } else {
                    !src_bridge && role.same_domain(src)
                };
                if !allowed {
                    return RxVerdict::Ignored;
                }
            }
        }

        // Domain priority: a beacon whose timing-domain root has a lower
        // id than ours wins (deterministic merge of concurrent domains —
        // multi-hop partitions elect independent references that must
        // converge to one). A takeover beacon is evaluated under the loose
        // guard (the domains' virtual clocks legitimately differ) but
        // still under full µTESLA authentication.
        let my_root = if self.is_reference && !self.is_subordinate(ctx.id) {
            ctx.id
        } else {
            self.domain_root.unwrap_or(u32::MAX)
        };
        // Takeover requires actually *having* a timing domain: in
        // single-hop operation a detached node (fresh, or freshly stepped
        // down) joins through the normal guarded adoption path instead of
        // the domain-merge exemption — otherwise an insider whose lies
        // exceed the guard could capture exactly those nodes. In multi-hop
        // relay mode detached nodes do use the exemption: a station that
        // led its own (since-drifted) domain must still be able to rejoin
        // the surviving one, which is part of this mode's documented
        // security trade-off.
        let takeover =
            (self.domain_root.is_some() || ctx.config.multihop_relay) && body.root < my_root;

        // Stickiness: while our reference is alive, beacons from other
        // senders are ignored (in multi-hop operation several relays are
        // audible every BP; a member disciplines its clock against exactly
        // one upstream). Exceptions: a domain takeover, or a strictly
        // shorter timing path within our own domain (which also keeps the
        // upstream graph a DAG toward the root).
        let have_live_ref =
            self.ref_src.is_some() && self.missed_bps <= ctx.config.l && self.verifier.is_some();
        if body.root == my_root && body.hop < self.my_hop {
            // A same-domain beacon from strictly closer to the root (even
            // one we won't discipline against) is evidence the domain is
            // alive *above us*. Sibling or downstream echoes do not count:
            // if the root dies, its children must notice and re-elect
            // rather than keep a zombie domain alive by echoing each other.
            self.domain_heard = true;
        }
        if have_live_ref && !self.is_reference && self.ref_src != Some(src) {
            let upgrade = ctx.config.multihop_relay
                && body.root == my_root
                && body.hop.saturating_add(1) < self.my_hop;
            if !takeover && !upgrade {
                return RxVerdict::Ignored;
            }
        } else if !have_live_ref
            && !self.is_reference
            && ctx.config.multihop_relay
            && !takeover
            && self.ref_src != Some(src)
            && body.hop >= self.my_hop
        {
            // Re-attachment after upstream silence must move *toward* the
            // root: following an equal-or-deeper station can create a
            // follow-cycle whose subtree detaches and free-runs.
            return RxVerdict::Ignored;
        }
        // A reference only yields to a strictly lower root id — except
        // that a subordinate reference keeps accepting its gateway
        // upstream's equal-root beacons: they are its discipline channel.
        let from_upstream =
            self.is_subordinate(ctx.id) && self.ref_src == Some(src) && body.root == my_root;
        if self.is_reference && !takeover && !from_upstream {
            return RxVerdict::Ignored;
        }

        // Guard-time check (δ): the timestamp must be close to our own
        // adjusted clock. This is the defence of last resort against an
        // *internal* attacker that owns valid credentials. Until the node
        // has locked onto the reference the loose coarse threshold applies
        // (initial offsets can exceed any useful δ).
        let ts_ref = body.timestamp_us as f64 + ctx.config.t_p_us;
        let c_now = self.adjusted.value(rx.local_rx_us);
        let diff = (ts_ref - c_now).abs();
        // Takeover beacons are exempt from the guard: merging timing
        // domains legitimately differ by more than any useful threshold
        // once they have drifted apart. (Multi-hop security trade-off,
        // documented in DESIGN.md: a compromised low-id insider could
        // exploit root priority to drag the network's time; a production
        // design would authenticate root claims — future work, as is the
        // whole multi-hop mode.)
        let guard_locked = self.guard_locked;
        let guard = if guard_locked {
            ctx.config.guard_fine_us
        } else {
            GUARD_COARSE_US
        };
        // Test-only planted bug (mutation sanity check): treat δ as
        // infinite, disabling the guard entirely.
        #[cfg(feature = "mutation-hooks")]
        let guard = if sstsp_crypto::mu_tesla::mutation::weaken_guard_check() {
            f64::INFINITY
        } else {
            guard
        };
        if !takeover && diff > guard {
            self.stats.guard_rejections += 1;
            telemetry::count!("sstsp.reject.guard");
            self.rejections_this_bp += 1;
            // Multi-hop self-correction: persistently rejecting our own
            // upstream means *our* clock left the envelope (a clock frozen
            // mid-merge diverges at its residual rate, far faster than
            // hardware drift). Drop to the loose threshold and
            // re-converge. Single-hop keeps the paper's strict guard: an
            // out-of-envelope member recovers through re-election instead.
            if ctx.config.multihop_relay && (self.ref_src == Some(src) || body.root == my_root) {
                self.upstream_rejects += 1;
                if self.upstream_rejects > 5 {
                    self.guard_locked = false;
                    self.upstream_rejects = 0;
                    // Resync from scratch: clock-adjustment samples from
                    // before the divergence would extrapolate wildly.
                    self.samples.clear();
                    self.pending.clear();
                }
            }
            return RxVerdict::GuardReject;
        }

        // µTESLA checks: interval index, disclosed-key validity,
        // authentication of the buffered previous beacon. Beacons from a
        // *new* sender are validated against a candidate verifier that is
        // only committed on success — an invalid beacon must never evict
        // the current reference state.
        let mut clock_step = false;
        let on_current_ref = self.ref_src == Some(src);
        let released = if let Some(verifier) = self.verifier.as_mut().filter(|_| on_current_ref) {
            match verifier.observe(&body.auth_bytes(), &auth, c_now) {
                Ok(released) => released,
                Err(_) => {
                    self.stats.mutesla_rejections += 1;
                    telemetry::count!("sstsp.reject.mutesla");
                    self.rejections_this_bp += 1;
                    return RxVerdict::MuteslaReject;
                }
            }
        } else {
            let Some(anchor) = ctx.anchors.get(src) else {
                // No authenticated anchor for this sender: an external
                // attacker, whose beacons cannot be authenticated at all.
                self.stats.unknown_anchor += 1;
                telemetry::count!("sstsp.reject.unknown_anchor");
                return RxVerdict::UnknownAnchor;
            };
            // Reuse the retired verifier for this source when one is
            // cached: its authenticated element turns the disclosed-key
            // walk from O(j) anchor hashes into O(Δj). Pending is always
            // clear (enforced on stash), so its accept/reject decisions
            // coincide with a fresh verifier's.
            let mut candidate = match self.verifier_cache.iter().position(|(s, _)| *s == src) {
                Some(i) => self.verifier_cache.remove(i).1,
                None => MuTeslaVerifier::new(anchor, Self::schedule(ctx)),
            };
            debug_assert!(!candidate.has_pending());
            match candidate.observe(&body.auth_bytes(), &auth, c_now) {
                Ok(released) => {
                    // Valid beacon from a new reference: adopt it. If we
                    // held the role ourselves, someone displaced us (we can
                    // only hear them if our own beacon did not go out).
                    // Domain-mode exception: a reference adopting a lower
                    // root relayed by a gateway *subordinates* — it keeps
                    // the reference role and its beacon slot for its own
                    // domain while its clock (and the root it propagates)
                    // descend from the gateway upstream. Each domain thus
                    // keeps a distinct elected reference even after the
                    // roots merge.
                    self.stash_verifier();
                    let subordinates = takeover
                        && self.is_reference
                        && self.domain_mode(ctx.config)
                        && self
                            .mesh_role
                            .as_ref()
                            .is_some_and(|r| !r.is_bridge() && r.is_bridge_node(src));
                    if subordinates {
                        self.sub_missed = 0;
                        telemetry::count!("sstsp.subordinate");
                    } else {
                        self.is_reference = false;
                    }
                    self.ref_src = Some(src);
                    self.domain_root = Some(body.root);
                    self.my_hop = body.hop.saturating_add(1);
                    self.verifier = Some(candidate);
                    self.samples.clear();
                    self.pending.clear();
                    if takeover {
                        // Joining a different timing domain is a
                        // *resynchronization*: step the adjusted clock onto
                        // the new domain immediately (so our relays carry
                        // correct time and the merge wave propagates one
                        // hop per BP) and re-lock the guard only once the
                        // fine discipline has re-converged. The paper's
                        // no-discontinuity guarantee applies within a
                        // synchronized domain; a domain merge is the same
                        // event as joining a network.
                        self.adjusted.step_to(rx.local_rx_us, ts_ref);
                        self.stats.clock_steps += 1;
                        telemetry::count!("sstsp.clock_step");
                        clock_step = true;
                        self.guard_locked = false;
                    }
                    released
                }
                Err(_) => {
                    // `observe` leaves the verifier untouched on rejection;
                    // keep it cached so the next beacon from this source
                    // still gets the cheap validation path.
                    self.cache_verifier(src, candidate);
                    self.stats.mutesla_rejections += 1;
                    telemetry::count!("sstsp.reject.mutesla");
                    self.rejections_this_bp += 1;
                    return RxVerdict::MuteslaReject;
                }
            }
        };

        // The beacon passed every check: it is evidence of a live
        // reference.
        self.stats.accepted += 1;
        telemetry::count!("sstsp.accept");
        self.saw_beacon = true;
        self.missed_bps = 0;
        self.sub_missed = 0;
        self.upstream_rejects = 0;
        if !self.is_reference {
            self.domain_root = Some(body.root);
            self.my_hop = body.hop.saturating_add(1);
        } else if self.is_subordinate(ctx.id) && self.ref_src == Some(src) {
            // Upstream root changes propagate through subordinates: if the
            // far side of the mesh re-merged under a different lowest id,
            // the gateway's next relay re-roots this domain too.
            self.domain_root = Some(body.root);
            self.my_hop = body.hop.saturating_add(1);
        }
        if !self.guard_locked && diff <= ctx.config.guard_fine_us / 2.0 {
            self.guard_locked = true;
        }

        // Promote the observation whose interval just got authenticated,
        // in steady state the oldest one pending.
        if let Some(interval) = released {
            if let Some(pos) = self.pending.iter().position(|p| p.interval == interval) {
                let obs = self.pending.remove(pos);
                self.samples.push_evicting(SyncSample {
                    local_us: obs.local_rx_us,
                    ref_us: obs.ts_ref_us,
                });
            }
        }

        // Buffer the current beacon's observation until its key discloses.
        self.pending.push_evicting(PendingObs {
            interval: auth.interval,
            local_rx_us: rx.local_rx_us,
            ts_ref_us: ts_ref,
        });

        // Clock adjustment at reception of beacon j, using authenticated
        // beacons (j-1) and (j-2): equations (2)-(5).
        let mut retarget = false;
        if self.samples.len() == 2 {
            let prev = self.samples[1];
            let prev2 = self.samples[0];
            let target =
                (auth.interval as f64 + ctx.config.m as f64) * ctx.config.bp_us + ctx.config.t_p_us;
            if self
                .adjusted
                .retarget(rx.local_rx_us, prev, prev2, target)
                .is_ok()
            {
                self.stats.retargets += 1;
                telemetry::count!("sstsp.retarget");
                retarget = true;
            }
        }
        RxVerdict::Accept {
            retarget,
            clock_step,
            guard_locked,
        }
    }

    /// The recovery extension (paper future work): slide the rejection
    /// window; when the rejected-beacon count crosses the policy threshold,
    /// raise an alert and optionally restart synchronization from the
    /// coarse phase. The window is cleared on trigger so one burst raises
    /// one alert.
    fn run_recovery_detection(&mut self, ctx: &mut NodeCtx<'_>) {
        let Some(policy) = ctx.config.recovery else {
            return;
        };
        self.rejection_window.push_back(self.rejections_this_bp);
        while self.rejection_window.len() > policy.window_bps as usize {
            self.rejection_window.pop_front();
        }
        let total: u32 = self.rejection_window.iter().sum();
        if total >= policy.rejection_threshold {
            self.stats.alerts += 1;
            telemetry::count!("sstsp.alert");
            self.rejection_window.clear();
            if policy.restart {
                self.stats.recovery_restarts += 1;
                telemetry::count!("sstsp.recovery_restart");
                self.step_down();
                self.synchronized = false;
                self.guard_locked = false;
                self.phase = Phase::Coarse {
                    offsets: Vec::new(),
                    bps_left: COARSE_SCAN_BPS,
                };
            }
        }
    }

    fn finish_coarse(&mut self, ctx: &mut NodeCtx<'_>, offsets: &[f64]) -> bool {
        let filter = sync_analysis::ThresholdFilter::new(GUARD_COARSE_US);
        match filter.filtered_mean(offsets) {
            Some(mean) => {
                let now = self.adjusted.value(ctx.local_us);
                self.adjusted.step_to(ctx.local_us, now + mean);
                self.stats.clock_steps += 1;
                telemetry::count!("sstsp.clock_step");
                self.synchronized = true;
                self.phase = Phase::Fine;
                self.missed_bps = 0;
                self.eligible_bps = 0;
                self.stats.coarse_syncs += 1;
                telemetry::count!("sstsp.coarse_sync");
                true
            }
            None => false,
        }
    }
}

impl SyncProtocol for SstspNode {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        // Node initiation (Sec. 3.3): pick a random seed and publish the
        // authenticated anchor. The chain walk itself is deferred — the
        // registry materializes the anchor on first lookup, and the signer
        // is built on first signing duty — which is observationally
        // identical (the walk is a pure function of the seed) but skips
        // the dominant O(n·N) setup cost for stations that never transmit.
        self.ensure_seed(ctx);
    }

    fn chain_seed(&self) -> Option<ChainElement> {
        self.signer.as_ref().map(|s| s.seed()).or(self.chain_seed)
    }

    fn set_mesh_role(&mut self, role: MeshRole) {
        self.mesh_role = Some(role);
    }

    fn intent(&mut self, ctx: &mut NodeCtx<'_>) -> BeaconIntent {
        match self.intent_rule(ctx.config) {
            IntentRule::Fixed(intent) => intent,
            IntentRule::Candidate(role) => {
                BeaconIntent::FixedSlot(Self::candidate_slot(role, ctx.id, ctx.config))
            }
            IntentRule::Relay { p, slot } => {
                if ctx.rng.random_bool(p) {
                    BeaconIntent::RelayAfterRx(slot)
                } else {
                    BeaconIntent::Silent
                }
            }
            IntentRule::Contend(p) => {
                if p >= 1.0 || ctx.rng.random_bool(p) {
                    BeaconIntent::Contend
                } else {
                    BeaconIntent::Silent
                }
            }
        }
    }

    fn make_beacon(&mut self, ctx: &mut NodeCtx<'_>) -> BeaconPayload {
        let relaying = ctx.config.multihop_relay
            && !self.is_reference
            && self.ref_src.is_some()
            && self.missed_bps <= ctx.config.l;
        if !self.is_reference && !relaying {
            // Winning the contention window makes this node the reference.
            self.become_reference(ctx);
        }
        if relaying {
            self.ensure_chain(ctx);
        }
        self.seq = self.seq.wrapping_add(1);
        let c = self.adjusted.value(ctx.local_us);
        let j = self.interval_for(ctx, ctx.local_us);
        let body = BeaconBody {
            src: ctx.id,
            seq: self.seq,
            timestamp_us: c.max(0.0) as u64,
            root: self.domain_root.unwrap_or(ctx.id),
            hop: if self.is_reference && !self.is_subordinate(ctx.id) {
                0
            } else {
                // Subordinate references advertise their true distance from
                // the foreign root, so downstream gateways keep merging
                // toward it instead of treating this domain as a new root.
                self.my_hop.saturating_add(0)
            },
        };
        let signer = self.signer.as_mut().expect("reference owns a signer");
        let auth = signer.sign(&body.auth_bytes(), j);
        BeaconPayload::Secured(body, auth)
    }

    fn on_tx_outcome(&mut self, _ctx: &mut NodeCtx<'_>, collided: bool) {
        if collided {
            self.tx_collided = true;
        } else {
            self.tx_clean = true;
        }
    }

    fn on_beacon(&mut self, ctx: &mut NodeCtx<'_>, rx: ReceivedBeacon) -> RxVerdict {
        match &mut self.phase {
            Phase::Coarse { offsets, .. } => {
                // Promiscuous scan: collect offsets from any beacon; the
                // threshold filter deals with liars at phase end.
                let ts_ref = rx.payload.body().timestamp_us as f64 + ctx.config.t_p_us;
                let offset = ts_ref - self.adjusted.value(rx.local_rx_us);
                offsets.push(offset);
                RxVerdict::Ignored
            }
            // Unsecured beacons are ignored in the fine phase: they carry
            // no authenticity and SSTSP never trusts them.
            Phase::Fine => match rx.payload {
                BeaconPayload::Secured(..) => self.on_secured_beacon(ctx, &rx),
                BeaconPayload::Plain(_) => RxVerdict::Ignored,
            },
        }
    }

    fn on_bp_end(&mut self, ctx: &mut NodeCtx<'_>) {
        match &mut self.phase {
            Phase::Coarse { offsets, bps_left } => {
                *bps_left = bps_left.saturating_sub(1);
                if *bps_left == 0 {
                    let collected = std::mem::take(offsets);
                    if !self.finish_coarse(ctx, &collected) {
                        // Nothing heard: keep scanning another round.
                        self.phase = Phase::Coarse {
                            offsets: Vec::new(),
                            bps_left: COARSE_SCAN_BPS,
                        };
                    }
                }
            }
            Phase::Fine => {
                let heard_reference = self.saw_beacon || (self.is_reference && self.tx_clean);
                if heard_reference {
                    self.missed_bps = 0;
                    self.eligible_bps = 0;
                } else {
                    self.missed_bps = self.missed_bps.saturating_add(1);
                }
                if self.domain_heard || (self.is_reference && self.tx_clean) {
                    self.domain_silent_bps = 0;
                } else {
                    self.domain_silent_bps = self.domain_silent_bps.saturating_add(1);
                }
                if self.election_counter(ctx.config) > self.election_threshold(ctx.config) {
                    self.eligible_bps = self.eligible_bps.saturating_add(1);
                } else {
                    self.eligible_bps = 0;
                }
                // Multi-hop coarse fallback: beacons keep arriving and we
                // reject them all — our clock is beyond even the loose
                // checks (µTESLA interval mismatch). Re-acquire loose
                // synchronization from scratch, exactly what the paper's
                // coarse phase exists for.
                if ctx.config.multihop_relay {
                    if self.rejections_this_bp > 0 && !self.saw_beacon {
                        self.desync_bps = self.desync_bps.saturating_add(1);
                        if self.desync_bps > 30 {
                            self.desync_bps = 0;
                            self.stats.recovery_restarts += 1;
                            telemetry::count!("sstsp.recovery_restart");
                            self.step_down();
                            self.synchronized = false;
                            self.guard_locked = false;
                            self.phase = Phase::Coarse {
                                offsets: Vec::new(),
                                bps_left: COARSE_SCAN_BPS,
                            };
                        }
                    } else if self.saw_beacon {
                        self.desync_bps = 0;
                    }
                }
                if self.missed_bps > ctx.config.l && self.is_reference {
                    // Our beacons keep colliding: someone else occupies
                    // slot 0. Relinquish and re-contend.
                    self.step_down();
                }
                if self.is_subordinate(ctx.id) {
                    // Subordinate upkeep: the gateway upstream must keep
                    // proving the foreign root is alive. Past the election
                    // threshold of upstream silence this reference reverts
                    // to sovereign rule of its own domain (same patience as
                    // an election, so transient gateway loss never forks
                    // the time base).
                    if self.saw_beacon {
                        self.sub_missed = 0;
                    } else {
                        self.sub_missed = self.sub_missed.saturating_add(1);
                        if self.sub_missed > self.election_threshold(ctx.config) {
                            self.stash_verifier();
                            self.ref_src = Some(ctx.id);
                            self.domain_root = Some(ctx.id);
                            self.my_hop = 0;
                            self.sub_missed = 0;
                            self.samples.clear();
                            self.pending.clear();
                            telemetry::count!("sstsp.sovereign_revert");
                        }
                    }
                }
                self.run_recovery_detection(ctx);
            }
        }
        self.saw_beacon = false;
        self.tx_clean = false;
        self.tx_collided = false;
        self.domain_heard = false;
        self.last_rx_secured = self.rx_secured_this_bp;
        self.rx_secured_this_bp = 0;
        self.rejections_this_bp = 0;
    }

    fn clock_us(&self, local_us: f64) -> f64 {
        self.adjusted.value(local_us)
    }

    fn on_join(&mut self, _ctx: &mut NodeCtx<'_>) {
        self.stash_verifier();
        self.synchronized = false;
        self.is_reference = false;
        self.ref_src = None;
        self.samples.clear();
        self.pending.clear();
        self.guard_locked = false;
        self.missed_bps = 0;
        self.eligible_bps = 0;
        self.phase = Phase::Coarse {
            offsets: Vec::new(),
            bps_left: COARSE_SCAN_BPS,
        };
    }

    fn is_reference(&self) -> bool {
        self.is_reference
    }

    fn is_synchronized(&self) -> bool {
        self.synchronized
    }

    fn sstsp_stats(&self) -> Option<SstspStats> {
        let mut s = self.stats;
        s.guard_locked = self.guard_locked;
        Some(s)
    }

    fn current_reference(&self) -> Option<NodeId> {
        self.ref_src
    }

    fn hot_state(&self, config: &ProtocolConfig) -> HotState {
        // `intent()`'s draw-free cases. Candidacy needs the station id and
        // relay participation always draws, so both defer to the real call;
        // contention draws only while its probability is below 1. The RNG
        // stream therefore advances exactly as it would without the cache.
        let static_intent = match self.intent_rule(config) {
            IntentRule::Fixed(intent) => Some(intent),
            IntentRule::Candidate(_) | IntentRule::Relay { .. } => None,
            IntentRule::Contend(p) => (p >= 1.0).then_some(BeaconIntent::Contend),
        };
        HotState {
            affine_clock: Some((self.adjusted.k(), self.adjusted.b())),
            synchronized: self.synchronized,
            is_reference: self.is_reference,
            current_reference: self.ref_src,
            static_intent,
        }
    }
}

#[cfg(test)]
mod tests;
