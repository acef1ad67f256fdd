//! The network simulation engine.
//!
//! One [`Network`] instance simulates one IBSS (or mesh) for one scenario.
//! [`Network::run_with_hook`] takes it through the beacon periods in one
//! loop, six named stages per BP, each a method on the run's state:
//!
//! 1. **events** — the hook's fault actions, rejoins, churn, reference
//!    departures, and the jamming flag;
//! 2. **intents** — every present station's beacon intent, served from
//!    the [`NodeSoa`] mirror when the protocol predicted it;
//! 3. **window + delivery** — resolves the beacon generation window,
//!    makes each transmitted beacon, and delivers it to every receiver at
//!    the correct reception instant (each receiver timestamps it with its
//!    *own* drifting clock), subject to independent packet-error draws;
//! 4. **bp_end** — the end-of-BP callbacks, fused with the SoA refresh
//!    and the clock reads of the spread metric;
//! 5. **metrics** — samples the maximum pairwise difference of the honest
//!    stations' synchronized clocks;
//! 6. **tail** — reference tracking and the hook's end-of-BP view.
//!
//! `SSTSP_PROF=1 SSTSP_LOG=info` logs each run's node-initiation time and
//! the wall time of each stage (`engine.prof`).
//!
//! A collision domain's beacon window outcome is determined at the window
//! start — there is no event that could interleave mid-window — so
//! deliveries are computed inline at their exact reception times rather
//! than round-tripping through the event heap. The heap-based
//! [`simcore::Simulator`] drives the BP sequence itself, which keeps the
//! time bookkeeping honest (monotone, horizon-checked).

use crate::instrument::{
    BpView, DeliveryCtx, DeliveryFate, DeliveryObs, EngineHook, FaultAction, NodeSnapshot, NoopHook,
};
use crate::kernel::NodeSoa;
use crate::scenario::{ProtocolKind, ScenarioConfig};
use attacks::CampaignMember;
use clocks::Oscillator;
use mac80211::ContentionWindow;
use protocols::api::{
    AnchorRegistry, BeaconIntent, BeaconPayload, MeshRole, NodeCtx, NodeId, ProtocolConfig,
    ReceivedBeacon, SyncProtocol,
};
#[cfg(debug_assertions)]
use protocols::{api::RxVerdict, sstsp::SstspStats};
use protocols::{AspNode, Competition, RkNode, SstspNode, TsfNode};
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use simcore::rng::StreamDomain;
use simcore::{
    CountingRng, Histogram, RngStreams, SimControl, SimDuration, SimTime, Simulator, TimeSeries,
};
use sstsp_telemetry as telemetry;
use std::sync::Arc;
use std::time::Instant;
use sync_analysis::{SpreadTracker, SyncCriterion};
use wireless::{
    Channel, Delivery, DomainDecomposition, MeshResolver, MhAttempt, MhDelivery, PhyParams,
    Topology, TxAttempt, WindowOutcome,
};

/// Binning of the per-BP spread distribution recorded into telemetry:
/// 0.5 µs resolution up to 500 µs; larger spreads land in the overflow
/// bucket and surface as an `>=hi` tail in rendered snapshots.
const SPREAD_DIST: telemetry::DistSpec = telemetry::DistSpec {
    lo: 0.0,
    hi: 500.0,
    bins: 1000,
};

/// End-of-run summary of one collision domain in a mesh scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainSummary {
    /// Collision-domain index.
    pub domain: u32,
    /// Stations assigned to the domain (gateways included).
    pub nodes: u32,
    /// The domain member holding a reference role at run end (subordinate
    /// or sovereign), if any.
    pub final_reference: Option<NodeId>,
    /// Max pairwise clock difference across the domain's honest
    /// synchronized members at run end, µs (`None` with fewer than two).
    pub end_spread_us: Option<f64>,
}

/// Aggregate outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Maximum clock difference across honest present stations, sampled at
    /// the end of every BP (µs) — the paper's figures.
    pub spread: TimeSeries,
    /// First time the network stays under the 25 µs criterion, seconds.
    pub sync_latency_s: Option<f64>,
    /// Maximum spread observed after synchronization (µs).
    pub steady_error_us: Option<f64>,
    /// Largest spread ever observed (µs).
    pub peak_spread_us: f64,
    /// Successful (collision-free) beacon transmissions.
    pub tx_successes: u64,
    /// Beacon windows lost to collisions.
    pub tx_collisions: u64,
    /// Beacon windows with no transmission at all.
    pub silent_windows: u64,
    /// Beacon windows destroyed by jamming.
    pub jammed_windows: u64,
    /// Number of reference-role changes observed (SSTSP).
    pub reference_changes: u64,
    /// Station holding the reference role at the end, if any.
    pub final_reference: Option<NodeId>,
    /// Whether the attacker ever held the reference role.
    pub attacker_became_reference: bool,
    /// Aggregated SSTSP guard-time rejections across honest stations.
    pub guard_rejections: u64,
    /// Aggregated SSTSP µTESLA rejections across honest stations.
    pub mutesla_rejections: u64,
    /// Aggregated SSTSP rejections of beacons whose sender published no
    /// anchor, across honest stations.
    pub unknown_anchor: u64,
    /// Aggregated successful SSTSP clock re-targetings.
    pub retargets: u64,
    /// Attack alerts raised by the recovery extension (if enabled).
    pub alerts: u64,
    /// Multi-hop runs only: per honest station `(hop distance from the
    /// final reference, |clock − reference clock| at the end of the run)`.
    pub hop_profile: Option<Vec<(u32, f64)>>,
    /// Mesh runs only: one summary per collision domain.
    pub domain_report: Option<Vec<DomainSummary>>,
    /// Protocol name.
    pub protocol: &'static str,
    /// Network size.
    pub n_nodes: u32,
    /// Seed the run was generated from.
    pub seed: u64,
}

/// One beacon on the air in the current window.
#[derive(Clone, Copy)]
struct OnAir {
    payload: BeaconPayload,
    /// Reception instant, the same for every receiver.
    t_rx: SimTime,
    /// Whether it reached at least one receiver (mesh transmit feedback).
    reached: bool,
}

/// Reusable per-BP scratch buffers, hoisted out of the hot loop so a
/// steady-state beacon period performs no heap allocation. They are
/// cleared (not reallocated) at the start of each window.
struct Scratch {
    /// Single-hop transmission attempts for the current window.
    tx_attempts: Vec<TxAttempt>,
    /// Multi-hop transmission attempts for the current window.
    mh_attempts: Vec<MhAttempt>,
    /// Beacons on the air this window, in transmission order.
    on_air: Vec<OnAir>,
    /// Station id → its beacon's index in `on_air` (meaningful only for
    /// this window's transmitters).
    on_air_of: Vec<u32>,
    /// Deliveries the engine lists itself (single-hop, or a mesh window
    /// with absent stations), in delivery order.
    deliveries: Vec<MhDelivery>,
    /// Batched per-delivery channel verdicts, in delivery order.
    rx_fates: Vec<Delivery>,
    /// Clocks of honest synchronized present stations, sampled at BP end.
    clocks: Vec<f64>,
}

impl Scratch {
    /// Buffers for `n` stations, preallocating only the attempt and
    /// delivery lists the run's window arm (single-hop or `mesh`) fills.
    fn new(n: usize, mesh: bool) -> Self {
        let single = if mesh { 0 } else { n };
        Scratch {
            tx_attempts: Vec::with_capacity(single),
            mh_attempts: Vec::with_capacity(n - single),
            on_air: Vec::new(),
            on_air_of: vec![0; n],
            deliveries: Vec::with_capacity(single),
            rx_fates: Vec::with_capacity(n),
            clocks: Vec::with_capacity(n),
        }
    }
}

/// Run-level scratch block for the engine's hot-loop telemetry counters,
/// which are also the run's window tallies.
///
/// The hot loop increments these plain `u64`s unconditionally — cheaper
/// than even the relaxed-atomic enabled check a `counter_add` call starts
/// with — and [`flush`](BpCounters::flush) moves the whole block into the
/// thread's registry shard with a single lock, once per *run*, instead of
/// one shard lock per recorded event (~2 n per BP at n stations) or per
/// beacon period (nine string-keyed map lookups every BP, which dominated
/// the enabled-mode overhead on small scenarios). Totals are identical to
/// per-event recording because counter merge is commutative;
/// `tests/telemetry_reconcile.rs` pins the identities. The trade: the
/// engine's own counters become visible to [`telemetry::snapshot`] only
/// after the run — the same cadence the per-event [`LocalCounter`] sites
/// already have (the run epilogue calls `flush_local`).
#[derive(Default)]
struct BpCounters {
    window_silent: u64,
    window_jammed: u64,
    window_collision: u64,
    window_success: u64,
    beacon_tx: u64,
    rx_attempt: u64,
    rx_lost: u64,
    rx_hook_dropped: u64,
    rx_delivered: u64,
    /// Present stations whose intent was served from [`NodeSoa`].
    intent_cached: u64,
    /// Present stations whose intent took the real `intent()` call.
    intent_called: u64,
}

impl BpCounters {
    /// Flush every non-zero counter to the registry shard (one lock). A
    /// no-op when telemetry is off.
    #[inline]
    fn flush(&self) {
        telemetry::counter_add_many(&[
            ("engine.window.silent", self.window_silent),
            ("engine.window.jammed", self.window_jammed),
            ("engine.window.collision", self.window_collision),
            ("engine.window.success", self.window_success),
            ("engine.beacon.tx", self.beacon_tx),
            ("engine.beacon.rx_attempt", self.rx_attempt),
            ("engine.beacon.rx_lost", self.rx_lost),
            ("engine.beacon.rx_hook_dropped", self.rx_hook_dropped),
            ("engine.beacon.rx_delivered", self.rx_delivered),
            ("engine.intent.cached", self.intent_cached),
            ("engine.intent.called", self.intent_called),
        ]);
    }
}

/// A simulated IBSS ready to run.
pub struct Network {
    scenario: ScenarioConfig,
    phy: PhyParams,
    window: ContentionWindow,
    channel: Channel,
    st: Stations,
    backoff_rngs: Vec<ChaCha12Rng>,
    // Transparent draw-count wrappers: the wrapped streams are
    // bit-identical to the bare ones, so telemetry on RNG consumption
    // cannot perturb the run.
    chan_rng: CountingRng<ChaCha12Rng>,
    jitter_rng: CountingRng<ChaCha12Rng>,
    scenario_rng: ChaCha12Rng,
    topology: Option<Topology>,
    /// The mesh's collision-domain decomposition (bridged meshes only). It
    /// switches SSTSP to per-domain election and gives `CrashDomain` and
    /// `KillBridge` their targets.
    domains: Option<DomainDecomposition>,
    /// One domain per station, for topologies without a mesh decomposition
    /// (line, ring, grid, rgg). The window resolver buckets by it and
    /// nothing else reads it.
    station_domains: Option<DomainDecomposition>,
    scratch: Scratch,
}

/// Read the [`NodeSoa`] mirror of the trait query `$q` for station `$i`.
/// Debug builds assert it equals the trait call it stands in for, so every
/// debug test run audits every cache read.
macro_rules! mirror {
    ($soa:expr, $nodes:expr, $q:ident, $i:expr) => {{
        let i: usize = $i;
        let v = $soa.$q(i);
        debug_assert_eq!(
            v,
            $nodes[i].$q(),
            "SoA {} diverged for node {i}",
            stringify!($q)
        );
        v
    }};
}

/// Debug builds' audit of station `id`'s verdict `v` on one delivery
/// against its SSTSP counters read `before` and `after` it, on every run:
/// each rejection verdict moves exactly its own counter, an accept moves
/// `accepted` (and `retargets` and `clock_steps` exactly when it says so)
/// and reports the guard lock the counters held before, and a delivery
/// that moved none of them, or a station without counters, is
/// [`RxVerdict::Ignored`].
#[cfg(debug_assertions)]
fn audit_verdict(id: NodeId, v: RxVerdict, before: Option<SstspStats>, after: Option<SstspStats>) {
    let (Some(b), Some(a)) = (before, after) else {
        assert_eq!(v, RxVerdict::Ignored, "node {id} has no SSTSP counters");
        return;
    };
    let moved = |f: fn(&SstspStats) -> u64| f(&a) != f(&b);
    let (accept, retarget, clock_step, guard_locked) = match v {
        RxVerdict::Accept {
            retarget,
            clock_step,
            guard_locked,
        } => (true, retarget, clock_step, guard_locked),
        _ => (false, false, false, b.guard_locked),
    };
    assert_eq!(
        [
            moved(|s| s.guard_rejections),
            moved(|s| s.mutesla_rejections),
            moved(|s| s.unknown_anchor),
            moved(|s| s.accepted),
            moved(|s| s.retargets),
            moved(|s| s.clock_steps),
            b.guard_locked,
        ],
        [
            v == RxVerdict::GuardReject,
            v == RxVerdict::MuteslaReject,
            v == RxVerdict::UnknownAnchor,
            accept,
            retarget,
            clock_step,
            guard_locked,
        ],
        "node {id}: verdict {v:?} disagrees with its counters {b:?} -> {a:?}"
    );
}

impl Network {
    /// Instantiate every station, oscillator and RNG stream for `scenario`.
    ///
    /// # Panics
    /// On a scenario that [`ScenarioConfig::check`] rejects.
    pub fn build(scenario: &ScenarioConfig) -> Self {
        let streams = RngStreams::new(scenario.seed);
        let n = scenario.n_nodes as usize;
        let phy = PhyParams::paper_ofdm();

        // Receivers estimate t_p for the beacon size their protocol uses.
        let mut sc = scenario.clone();
        sc.protocol_config.t_p_us = phy.t_p(scenario.protocol.secured()).as_us_f64();
        sc.protocol_config.beacon_airtime_slots = if scenario.protocol.secured() {
            phy.sstsp_beacon_slots as u32
        } else {
            phy.tsf_beacon_slots as u32
        };

        // The scenario check, which also builds the multi-hop topology (the
        // future-work extension) from the scenario stream; SSTSP members
        // relay the timing wave.
        let (topology, domains) = sc
            .check()
            .unwrap_or_else(|e| panic!("invalid scenario: {e}"))
            .unzip();
        let domains = domains.flatten();
        let station_domains = match (&topology, &domains) {
            (Some(t), None) => Some(DomainDecomposition::from_partition(
                (0..t.len()).map(|i| vec![i]).collect(),
                t,
            )),
            _ => None,
        };
        if topology.is_some() && sc.protocol == ProtocolKind::Sstsp {
            sc.protocol_config.multihop_relay = true;
            // An explicit collision-domain decomposition switches SSTSP to
            // per-domain reference election.
            sc.protocol_config.domain_election = domains.is_some();
        }

        let mut osc_rng = streams.stream(StreamDomain::Oscillator, 0);
        let oscs = sc.drift.sample_population(&mut osc_rng, n);

        // Compromised stations wrap the honest protocol: every campaign
        // member, and the lone attacker as a coalition of one. The member
        // range takes precedence over the lone attacker slot if both are
        // configured.
        let attacker_id = sc.attacker_id();
        let campaign_ids = sc.campaign_member_ids();
        let mut nodes: Vec<Box<dyn SyncProtocol>> = Vec::with_capacity(n);
        let mut honest = vec![true; n];
        for id in 0..n as u32 {
            let compromised = if campaign_ids.contains(&id) {
                sc.campaign.map(|spec| (spec, id - campaign_ids.start))
            } else if Some(id) == attacker_id {
                sc.attacker.map(|a| (a.campaign(), 0))
            } else {
                None
            };
            if let Some((spec, idx)) = compromised {
                honest[id as usize] = false;
                nodes.push(match sc.protocol {
                    ProtocolKind::Sstsp => {
                        Box::new(CampaignMember::new(spec, idx, SstspNode::founding(), true))
                    }
                    _ => Box::new(CampaignMember::new(spec, idx, TsfNode::new(), false)),
                });
            } else {
                nodes.push(match sc.protocol {
                    ProtocolKind::Tsf => Box::new(TsfNode::new()),
                    ProtocolKind::Atsp => Box::new(TsfNode::with_competition(Competition::Atsp)),
                    ProtocolKind::Tatsp => Box::new(TsfNode::with_competition(Competition::Tatsp)),
                    ProtocolKind::Satsf => Box::new(TsfNode::with_competition(Competition::Satsf)),
                    ProtocolKind::Asp => Box::new(AspNode::new()),
                    ProtocolKind::Rk => Box::new(RkNode::new()),
                    ProtocolKind::Sstsp => Box::new(SstspNode::founding()),
                });
            }
        }

        // Distribute deployment-time mesh roles: each station learns its
        // domain, gateway status and the shared station→domain map (out of
        // band, like key anchors — beacon bytes stay identical).
        if let Some(d) = &domains {
            if sc.protocol_config.domain_election {
                let domain_of = Arc::new(d.domain_of.clone());
                let bridges = Arc::new(d.bridges.clone());
                for id in 0..n as u32 {
                    nodes[id as usize].set_mesh_role(MeshRole {
                        domain: d.domain_of(id),
                        num_domains: d.len() as u32,
                        bridge_index: d.bridges.iter().position(|&b| b == id).map(|i| i as u32),
                        domain_of: domain_of.clone(),
                        bridges: bridges.clone(),
                    });
                }
            }
        }

        Network {
            phy,
            window: ContentionWindow::new(sc.protocol_config.w, phy.slot_us),
            channel: Channel::new(sc.per),
            st: Stations {
                nodes,
                oscs,
                rngs: (0..n)
                    .map(|i| streams.stream(StreamDomain::Protocol, i as u64))
                    .collect(),
                anchors: AnchorRegistry::new(),
                config: sc.protocol_config.clone(),
                present: vec![true; n],
                honest,
                absent: 0,
                returns: Vec::new(),
            },
            backoff_rngs: (0..n)
                .map(|i| streams.stream(StreamDomain::MacBackoff, i as u64))
                .collect(),
            chan_rng: CountingRng::new(streams.stream(StreamDomain::ChannelError, 0)),
            jitter_rng: CountingRng::new(streams.stream(StreamDomain::TimestampJitter, 0)),
            scenario_rng: streams.stream(StreamDomain::Scenario, 0),
            topology,
            domains,
            station_domains,
            scratch: Scratch::new(n, sc.topology.is_some()),
            scenario: sc,
        }
    }

    /// Run the scenario to completion.
    pub fn run(self) -> RunResult {
        self.run_with_hook(&mut NoopHook)
    }

    /// Run the scenario with an [`EngineHook`] attached (fault injection,
    /// invariant checking, trace recording). Every run takes the same
    /// beacon-period loop, the six stages of the module docs; an active
    /// hook receives its per-event callbacks from inside them. Running
    /// with [`NoopHook`] — or any hook that neither drops nor mutates
    /// deliveries nor emits fault actions — is bit-identical to
    /// [`Network::run`]: the hook only ever sees copies, and no engine RNG
    /// stream is consulted on its behalf.
    pub fn run_with_hook(self, hook: &mut dyn EngineHook) -> RunResult {
        // Any topology resolves its windows through one reusable resolver,
        // bucketed by the mesh decomposition or by one domain per station.
        let mut resolver = self.topology.as_ref().map(|t| {
            let d = self.domains.as_ref().or(self.station_domains.as_ref());
            MeshResolver::new(t, d.expect("every topology has a decomposition"))
        });
        let mut clock = StageClock::new(std::env::var("SSTSP_PROF").is_ok());
        let mut run = Run::start(self, hook, &clock);

        let mut sim: Simulator<u64> = Simulator::new(run.horizon());
        if run.active {
            // Instrumented runs also cross-check simcore's event ordering
            // from the outside via the probe hook.
            let mut last = SimTime::ZERO;
            sim.set_probe(Box::new(move |t, _| {
                assert!(t >= last, "simulator delivered events out of order");
                last = t;
            }));
        }
        sim.schedule_at(SimTime::ZERO + run.bp, 1u64);
        sim.run(|sim, ev| {
            let mut bp = Bp {
                k: ev.payload,
                t0: ev.time,
                t_end: ev.time + run.bp - SimDuration::from_us(1),
                disturbed: false,
            };
            clock.start();
            run.events(&mut bp);
            clock.lap(0);
            run.intents(&bp);
            clock.lap(1);
            run.window(&bp, resolver.as_mut());
            clock.lap(2);
            run.bp_end(&bp);
            clock.lap(3);
            run.metrics(&bp);
            clock.lap(4);
            run.tail(&mut bp);
            clock.lap(5);
            if bp.k < run.total_bps {
                sim.schedule_at(bp.t0 + run.bp, bp.k + 1);
            }
            SimControl::Continue
        });
        clock.report(run.total_bps as f64 * run.scenario.n_nodes as f64);
        run.finish(&sim)
    }
}

/// Coarse per-stage wall-clock accounting for the BP loop, logged at run
/// end through the structured log (`engine.prof`, info level — so
/// `SSTSP_PROF=1 SSTSP_LOG=info`). Off, it costs one branch per stage
/// boundary per BP.
struct StageClock {
    on: bool,
    /// Nanoseconds per stage, summed over the run.
    ns: [u128; 6],
    /// The last stage boundary of the current BP (`None` when off).
    last: Option<Instant>,
}

impl StageClock {
    /// The stages' names in loop order, as `engine.prof` prints them.
    const STAGES: [&'static str; 6] =
        ["events", "intent", "window+rx", "bp_end", "metrics", "tail"];

    fn new(on: bool) -> Self {
        StageClock {
            on,
            ns: [0; 6],
            last: None,
        }
    }

    /// Log node initiation's wall time, measured from `since`.
    fn init(&self, since: Instant) {
        if self.on {
            telemetry::log::info("engine.prof", || {
                format!(
                    "prof      init: {:8.3} ms",
                    since.elapsed().as_secs_f64() * 1e3
                )
            });
        }
    }

    /// Open a BP.
    fn start(&mut self) {
        self.last = self.on.then(Instant::now);
    }

    /// Close `stage`, charging it the time since the previous boundary.
    fn lap(&mut self, stage: usize) {
        if let Some(t) = self.last.as_mut() {
            let now = Instant::now();
            self.ns[stage] += now.duration_since(*t).as_nanos();
            *t = now;
        }
    }

    /// Log each stage's total and its cost per station-BP.
    fn report(&self, node_bps: f64) {
        if !self.on {
            return;
        }
        let per_bp_node = 1e0 / node_bps;
        for (name, ns) in Self::STAGES.iter().zip(self.ns.iter()) {
            telemetry::log::info("engine.prof", || {
                format!(
                    "prof {name:>9}: {:8.3} ms  {:6.1} ns/node/bp",
                    *ns as f64 / 1e6,
                    *ns as f64 * per_bp_node
                )
            });
        }
    }
}

/// The stations: protocol state machines, hardware clocks, protocol RNG
/// streams and anchors, and membership.
struct Stations {
    nodes: Vec<Box<dyn SyncProtocol>>,
    oscs: Vec<Oscillator>,
    rngs: Vec<ChaCha12Rng>,
    anchors: AnchorRegistry,
    config: ProtocolConfig,
    present: Vec<bool>,
    honest: Vec<bool>,
    /// Stations off the air; while none is, a mesh window skips its
    /// presence filter.
    absent: usize,
    /// (BP, station) pairs due to rejoin, in departure order.
    returns: Vec<(u64, NodeId)>,
}

impl Stations {
    /// Station `id`'s protocol, and a callback context reading `local_us`.
    fn at(&mut self, id: NodeId, local_us: f64) -> (&mut dyn SyncProtocol, NodeCtx<'_>) {
        let i = id as usize;
        let ctx = NodeCtx {
            id,
            local_us,
            rng: &mut self.rngs[i],
            anchors: &mut self.anchors,
            config: &self.config,
        };
        (&mut *self.nodes[i], ctx)
    }

    /// [`at`](Self::at) the station's hardware-clock reading of `t`.
    fn at_time(&mut self, id: NodeId, t: SimTime) -> (&mut dyn SyncProtocol, NodeCtx<'_>) {
        let local = self.oscs[id as usize].local_us(t);
        self.at(id, local)
    }

    /// Transmit feedback at `t`: whether the station's beacon collided.
    fn tx_outcome(&mut self, id: NodeId, t: SimTime, collided: bool) {
        let (node, mut ctx) = self.at_time(id, t);
        node.on_tx_outcome(&mut ctx, collided);
    }

    /// The first present station holding the reference role, by the trait
    /// call.
    fn reference(&self) -> Option<NodeId> {
        (0..self.nodes.len() as NodeId)
            .find(|&id| self.present[id as usize] && self.nodes[id as usize].is_reference())
    }

    /// Take a station off the air, queueing its rejoin for BP `rejoin_at`.
    /// Its protocol is not told: nothing calls it again until its rejoin.
    /// An absent station with a pending rejoin keeps the later of the two,
    /// and `None` cancels it; one gone for good stays gone.
    fn depart(&mut self, id: NodeId, rejoin_at: Option<u64>) {
        if !self.present[id as usize] {
            if let Some(p) = self.returns.iter().position(|&(_, r)| r == id) {
                match rejoin_at {
                    Some(due) => self.returns[p].0 = self.returns[p].0.max(due),
                    None => {
                        self.returns.remove(p);
                    }
                }
            }
            return;
        }
        self.present[id as usize] = false;
        self.absent += 1;
        if let Some(due) = rejoin_at {
            self.returns.push((due, id));
        }
    }

    /// Put back on the air at `t0`, in departure order, every station due
    /// at BP `k`, refreshing its `soa` entry; whether any was.
    fn rejoin_due(&mut self, k: u64, t0: SimTime, soa: &mut NodeSoa) -> bool {
        let due = self.returns.len();
        let mut i = 0;
        while i < self.returns.len() {
            if self.returns[i].0 != k {
                i += 1;
                continue;
            }
            let (_, id) = self.returns.remove(i);
            self.present[id as usize] = true;
            self.absent -= 1;
            let (node, mut ctx) = self.at_time(id, t0);
            node.on_join(&mut ctx);
            soa.refresh(id as usize, &*self.nodes[id as usize], &self.config);
        }
        self.returns.len() < due
    }
}

/// One beacon period's own state.
struct Bp {
    /// BP index, from 1.
    k: u64,
    /// The BP's start.
    t0: SimTime,
    /// The end-of-BP sampling instant, 1 µs before the next BP starts.
    t_end: SimTime,
    /// Whether anything perturbed the network this BP (churn, departures,
    /// jamming, attacker activity, fault actions, a reference change);
    /// convergence invariants suspend after disturbances.
    disturbed: bool,
}

/// One run in progress: the stations, the channel and its streams, the
/// run's schedule, hook and tallies. [`Network::run_with_hook`] calls one
/// method per stage of every BP.
struct Run<'h> {
    hook: &'h mut dyn EngineHook,
    /// Whether `hook` wants the per-event callbacks.
    active: bool,
    scenario: ScenarioConfig,
    st: Stations,
    /// Dense node state (static intents, affine clocks, reference and sync
    /// flags) the per-BP scans read instead of making trait calls. A pure
    /// cache: refreshed after init, rejoin and every end-of-BP callback,
    /// and debug builds check each read against the trait.
    soa: NodeSoa,
    phy: PhyParams,
    window: ContentionWindow,
    channel: Channel,
    backoff_rngs: Vec<ChaCha12Rng>,
    chan_rng: CountingRng<ChaCha12Rng>,
    jitter_rng: CountingRng<ChaCha12Rng>,
    scenario_rng: ChaCha12Rng,
    topology: Option<Topology>,
    domains: Option<DomainDecomposition>,
    scratch: Scratch,
    /// BP length.
    bp: SimDuration,
    total_bps: u64,
    /// Churn's period in BPs (0 without churn), and the BPs at which the
    /// reference departs.
    churn_period_bps: u64,
    ref_leave_bps: Vec<u64>,
    /// The hook's fault actions for this BP.
    fault_actions: Vec<FaultAction>,
    /// The fault layer's jamming flag, OR-ed with the scenario's jam
    /// windows.
    fault_jam: bool,
    /// Stations under adversary control, ascending: the lone attacker and
    /// every campaign member (reference capture is tracked for all of them).
    adversary_ids: Vec<NodeId>,
    /// This BP's honest present followers of each of `adversary_ids`.
    followers: Vec<usize>,
    reference_changes: u64,
    last_reference: Option<NodeId>,
    attacker_became_reference: bool,
    counters: BpCounters,
    tracker: SpreadTracker,
    /// The per-BP spread samples, folded into telemetry at run end the way
    /// `counters` are.
    spread_hist: Option<Histogram>,
    snapshots: Vec<NodeSnapshot>,
}

impl<'h> Run<'h> {
    /// Take `net` apart into a run, initiate every station (seed draw and
    /// deferred anchor registration), and hand the hook the scenario and
    /// the published anchors.
    fn start(net: Network, hook: &'h mut dyn EngineHook, clock: &StageClock) -> Self {
        let Network {
            scenario: sc,
            phy,
            window,
            channel,
            st,
            backoff_rngs,
            chan_rng,
            jitter_rng,
            scenario_rng,
            topology,
            domains,
            scratch,
            ..
        } = net;
        let n = sc.n_nodes as usize;
        let active = hook.active();
        let adversary_ids: Vec<NodeId> = (0..n as NodeId)
            .filter(|&i| !st.honest[i as usize])
            .collect();
        // One tick per run; perfbench's ledger counts runs by it.
        telemetry::counter_add("engine.path.fast", 1);
        let mut run = Run {
            hook,
            active,
            st,
            soa: NodeSoa::new(n),
            phy,
            window,
            channel,
            backoff_rngs,
            chan_rng,
            jitter_rng,
            scenario_rng,
            topology,
            domains,
            scratch,
            bp: SimDuration::from_us_f64(sc.protocol_config.bp_us),
            total_bps: sc.total_bps(),
            churn_period_bps: sc.churn.map_or(0, |c| sc.bps(c.period_s)),
            ref_leave_bps: sc.ref_leaves_s.iter().map(|&s| sc.bps(s)).collect(),
            fault_actions: Vec::new(),
            fault_jam: false,
            followers: vec![0; adversary_ids.len()],
            adversary_ids,
            reference_changes: 0,
            last_reference: None,
            attacker_became_reference: false,
            counters: BpCounters::default(),
            tracker: SpreadTracker::new(format!("{} N={}", sc.protocol.name(), sc.n_nodes)),
            spread_hist: None,
            snapshots: Vec::with_capacity(if active { n } else { 0 }),
            scenario: sc,
        };

        let t_init = Instant::now();
        for id in 0..n as NodeId {
            let (node, mut ctx) = run.st.at_time(id, SimTime::ZERO);
            node.init(&mut ctx);
            let i = id as usize;
            run.soa.refresh(i, &*run.st.nodes[i], &run.st.config);
        }
        clock.init(t_init);
        run.hook.on_run_start(&run.scenario, &run.st.anchors);
        run
    }

    /// The instant past the run's last BP.
    fn horizon(&self) -> SimTime {
        SimTime::ZERO + self.bp * (self.total_bps + 1)
    }

    /// Stage 1, scenario events: the hook's fault actions for the BP, then
    /// rejoins, churn, reference departures, the fault actions themselves
    /// and the jamming flag.
    fn events(&mut self, bp: &mut Bp) {
        let (k, t0) = (bp.k, bp.t0);
        if self.active {
            self.fault_actions.clear();
            self.hook.on_bp_start(k, &mut self.fault_actions);
        }
        bp.disturbed |= self.st.rejoin_due(k, t0, &mut self.soa);
        let sc = &self.scenario;
        // A station that leaves at BP k returns at BP k + max(1, n): this
        // BP's rejoins have already run, so an absence that rounds to 0
        // BPs still comes back at the next one.
        let rejoin_at = |n: u64| k.saturating_add(n.max(1));
        // Churn departs stations at every multiple of its period before
        // the last BP.
        if let Some(churn) = sc.churn {
            if k % self.churn_period_bps == 0 && k < self.total_bps {
                let st = &mut self.st;
                let mut pool: Vec<NodeId> = (0..st.nodes.len() as NodeId)
                    .filter(|&id| {
                        let i = id as usize;
                        st.present[i] && st.honest[i] && !st.nodes[i].is_reference()
                    })
                    .collect();
                let quota = ((sc.n_nodes as f64 * churn.fraction).round() as usize).min(pool.len());
                // Deterministic partial Fisher-Yates from the scenario stream.
                for pick in 0..quota {
                    let j = self.scenario_rng.random_range(pick..pool.len());
                    pool.swap(pick, j);
                    st.depart(pool[pick], Some(rejoin_at(sc.bps(churn.absence_s))));
                }
                bp.disturbed |= quota > 0;
            }
        }
        if self.ref_leave_bps.contains(&k) {
            if let Some(id) = self.st.reference() {
                self.st
                    .depart(id, Some(rejoin_at(sc.bps(sc.ref_absence_s))));
                bp.disturbed = true;
            }
        }

        // Fault actions apply after churn, so a fault plan targeting the
        // reference sees the network exactly as the scenario left it.
        for &action in &self.fault_actions {
            bp.disturbed = true;
            match action {
                FaultAction::Crash {
                    node,
                    rejoin_after_bps,
                } => self.st.depart(node, rejoin_after_bps.map(rejoin_at)),
                FaultAction::KillReference { rejoin_after_bps } => {
                    if let Some(id) = self.st.reference() {
                        self.st.depart(id, rejoin_after_bps.map(rejoin_at));
                    }
                }
                FaultAction::CrashDomain {
                    domain,
                    rejoin_after_bps,
                } => {
                    if let Some(d) = &self.domains {
                        for &node in &d.domains[domain as usize % d.len()] {
                            if !d.is_bridge(node) {
                                self.st.depart(node, rejoin_after_bps.map(rejoin_at));
                            }
                        }
                    }
                }
                FaultAction::KillBridge {
                    bridge,
                    rejoin_after_bps,
                } => {
                    if let Some(d) = self.domains.as_ref().filter(|d| !d.bridges.is_empty()) {
                        let node = d.bridges[bridge as usize % d.bridges.len()];
                        self.st.depart(node, rejoin_after_bps.map(rejoin_at));
                    }
                }
                FaultAction::ClockStep { node, delta_us } => {
                    self.st.oscs[node as usize].step_by(delta_us)
                }
                FaultAction::ClockFreeze { node } => self.st.oscs[node as usize].freeze(t0),
                FaultAction::ClockUnfreeze { node } => self.st.oscs[node as usize].unfreeze(t0),
                FaultAction::SetBurstLoss(p) => self.channel.set_burst_loss(p),
                FaultAction::SetJammed(on) => self.fault_jam = on,
            }
        }

        let t_secs = t0.as_secs_f64();
        let jammed = self.fault_jam
            || self
                .scenario
                .jam_windows
                .iter()
                .any(|w| t_secs >= w.start_s && t_secs < w.end_s);
        self.channel.set_jammed(jammed);
        bp.disturbed |= jammed;
        if let Some(a) = self.scenario.attacker {
            bp.disturbed |= t_secs >= a.start_s && t_secs < a.end_s;
        }
        if let Some(c) = self.scenario.campaign {
            bp.disturbed |= c.active_at(t_secs);
        }
    }

    /// Stage 2, beacon intents: every present station's, listed as this
    /// window's attempts.
    fn intents(&mut self, bp: &Bp) {
        let mesh = self.topology.is_some();
        self.scratch.tx_attempts.clear();
        self.scratch.mh_attempts.clear();
        for id in 0..self.scenario.n_nodes {
            let i = id as usize;
            if !self.st.present[i] {
                continue;
            }
            // Serve the intent from the SoA cache when the protocol
            // predicted it. A cached intent is one the real call would
            // return without consuming randomness, so skipping the call
            // (and the oscillator read feeding its context) leaves every
            // RNG stream untouched.
            let intent = match self.soa.static_intent(i) {
                Some(si) => {
                    #[cfg(debug_assertions)]
                    {
                        let pos = self.st.rngs[i].stream_pos();
                        let (node, mut ctx) = self.st.at_time(id, bp.t0);
                        let real = node.intent(&mut ctx);
                        assert_eq!(real, si, "static intent diverged for node {id}");
                        assert_eq!(
                            self.st.rngs[i].stream_pos(),
                            pos,
                            "static intent consumed randomness for node {id}"
                        );
                    }
                    self.counters.intent_cached += 1;
                    si
                }
                None => {
                    self.counters.intent_called += 1;
                    let (node, mut ctx) = self.st.at_time(id, bp.t0);
                    node.intent(&mut ctx)
                }
            };
            let (slot, relay) = match intent {
                BeaconIntent::Silent => continue,
                BeaconIntent::Contend => (self.window.draw_slot(&mut self.backoff_rngs[i]), false),
                BeaconIntent::FixedSlot(slot) => (slot, false),
                BeaconIntent::RelayAfterRx(slot) => (slot, true),
            };
            if mesh {
                self.scratch.mh_attempts.push(MhAttempt {
                    station: id,
                    slot,
                    relay,
                });
            } else if !relay {
                // Relaying is pointless when everyone already hears the
                // reference directly.
                self.scratch
                    .tx_attempts
                    .push(TxAttempt { station: id, slot });
            }
        }
    }

    /// Stage 3, window and delivery: resolve the beacon generation window
    /// (single-hop by its earliest slot, any topology by `resolver`), then
    /// deliver its beacons.
    fn window(&mut self, bp: &Bp, resolver: Option<&mut MeshResolver>) {
        self.scratch.on_air.clear();
        // Taken for the stage (no allocation) so the delivery loop can
        // read the list beside the run it mutates.
        let mut listed = std::mem::take(&mut self.scratch.deliveries);
        listed.clear();
        let deliveries = match resolver {
            None => self.single_hop_window(bp, &mut listed),
            Some(resolver) => self.mesh_window(bp, resolver, &mut listed),
        };
        self.deliver(bp.k, deliveries);
        self.scratch.deliveries = listed;
    }

    /// The single-hop window: decided by the earliest occupied slot, one
    /// collision per window. Lists the winner's deliveries in `listed`.
    fn single_hop_window<'l>(
        &mut self,
        bp: &Bp,
        listed: &'l mut Vec<MhDelivery>,
    ) -> &'l [MhDelivery] {
        match self.channel.resolve_window(&self.scratch.tx_attempts) {
            WindowOutcome::Silent => self.counters.window_silent += 1,
            WindowOutcome::Jammed { victims } => {
                self.counters.window_jammed += 1;
                for id in victims {
                    self.st.tx_outcome(id, bp.t0, true);
                }
            }
            WindowOutcome::Collision { colliders, .. } => {
                self.counters.window_collision += 1;
                for id in colliders {
                    self.st.tx_outcome(id, bp.t0, true);
                }
            }
            WindowOutcome::Success { winner, slot } => {
                self.counters.window_success += 1;
                let tx_local = self.transmit(bp, winner, slot);
                let (node, mut ctx) = self.st.at(winner, tx_local);
                node.on_tx_outcome(&mut ctx, false);
                let present = &self.st.present;
                listed.extend(
                    (0..self.scenario.n_nodes)
                        .filter(|&rx| rx != winner && present[rx as usize])
                        .map(|rx| MhDelivery {
                            rx,
                            tx: winner,
                            slot,
                        }),
                );
            }
        }
        listed
    }

    /// A multi-hop window: local carrier sense, hidden terminals, spatial
    /// reuse and in-window relaying, resolved per collision domain with
    /// reused buffers; one collision per transmitter that reached nobody.
    /// Returns the resolver's deliveries, or lists those to present
    /// receivers in `listed` while any station is absent.
    fn mesh_window<'l>(
        &mut self,
        bp: &Bp,
        resolver: &'l mut MeshResolver,
        listed: &'l mut Vec<MhDelivery>,
    ) -> &'l [MhDelivery] {
        if self.channel.is_jammed() {
            self.counters.window_jammed += 1;
            for a in &self.scratch.mh_attempts {
                if !a.relay {
                    self.st.tx_outcome(a.station, bp.t0, true);
                }
            }
            return &[];
        }
        if self.scratch.mh_attempts.is_empty() {
            self.counters.window_silent += 1;
            return &[];
        }
        let topo = self
            .topology
            .as_ref()
            .expect("a resolver implies a topology");
        let airtime = self.st.config.beacon_airtime_slots;
        let out = resolver.resolve(topo, &self.scratch.mh_attempts, airtime);
        // Beacons are produced at each transmitter's start slot;
        // deliveries happen one airtime later.
        for &(station, slot) in &out.transmissions {
            self.transmit(bp, station, slot);
        }
        // Transmit feedback: a transmission that reached at least one
        // receiver counts as clean.
        for d in &out.deliveries {
            self.scratch.on_air[self.scratch.on_air_of[d.tx as usize] as usize].reached = true;
        }
        for (beacon, &(station, _)) in self.scratch.on_air.iter().zip(&out.transmissions) {
            if beacon.reached {
                self.counters.window_success += 1;
            } else {
                self.counters.window_collision += 1;
            }
            self.st.tx_outcome(station, bp.t0, !beacon.reached);
        }
        // Deliveries in slot order (relays react next BP; in-window relay
        // chaining was already decided by the resolution), to present
        // receivers only.
        if self.st.absent == 0 {
            return &out.deliveries;
        }
        let present = &self.st.present;
        listed.extend(out.deliveries.iter().filter(|d| present[d.rx as usize]));
        listed
    }

    /// Put `station` on the air in `slot`: make its beacon and list it in
    /// `scratch.on_air` for the delivery loop. Returns the transmitter's
    /// jittered local timestamp.
    fn transmit(&mut self, bp: &Bp, station: NodeId, slot: u32) -> f64 {
        let t_tx = bp.t0 + self.window.delay_of(slot);
        self.counters.beacon_tx += 1;
        if self.active {
            self.hook.on_beacon_tx(bp.k, station);
        }
        // Sub-µs hardware timestamping jitter.
        let jitter = self
            .jitter_rng
            .random_range(0.0..=self.scenario.timestamp_jitter_us);
        let tx_local = self.st.oscs[station as usize].local_us(t_tx) + jitter;
        let (node, mut ctx) = self.st.at(station, tx_local);
        let payload = node.make_beacon(&mut ctx);
        self.scratch.on_air_of[station as usize] = self.scratch.on_air.len() as u32;
        self.scratch.on_air.push(OnAir {
            payload,
            t_rx: t_tx + self.phy.beacon_airtime(payload.is_secured()) + self.phy.propagation(),
            reached: false,
        });
        tx_local
    }

    /// Deliver the window's beacons. Every channel-error draw of the
    /// window is taken in one pass (identical stream consumption: jitter
    /// and hook randomness live on other streams), then the survivors are
    /// processed.
    fn deliver(&mut self, k: u64, deliveries: &[MhDelivery]) {
        self.counters.rx_attempt += deliveries.len() as u64;
        self.channel.deliver_batch(
            &mut self.chan_rng,
            deliveries.len(),
            &mut self.scratch.rx_fates,
        );
        for (d, &fate) in deliveries.iter().zip(self.scratch.rx_fates.iter()) {
            if fate == Delivery::Lost {
                self.counters.rx_lost += 1;
                continue;
            }
            // Each receiver processes its own copy: a corruption fault at
            // one receiver models that receiver's demodulation errors, not
            // a change to the transmitted frame (whose airtime fixed
            // `t_rx`).
            let OnAir {
                mut payload, t_rx, ..
            } = self.scratch.on_air[self.scratch.on_air_of[d.tx as usize] as usize];
            let dctx = DeliveryCtx {
                bp: k,
                src: d.tx,
                dst: d.rx,
                t_rx,
            };
            if self.active && self.hook.on_delivery(&dctx, &mut payload) == DeliveryFate::Drop {
                self.counters.rx_hook_dropped += 1;
                continue;
            }
            self.counters.rx_delivered += 1;
            // Receiver-side timestamping noise: each station stamps the
            // arrival with its own hardware path, contributing (with the
            // sender-side jitter) the paper's receiver estimation error ε.
            let rx_jitter = self
                .jitter_rng
                .random_range(0.0..=self.scenario.timestamp_jitter_us);
            let local_rx = self.st.oscs[d.rx as usize].local_us(t_rx) + rx_jitter;
            let (rx, mut ctx) = self.st.at(d.rx, local_rx);
            // Hooks observe the *virtual* clock: the SoA entry is refreshed
            // only at BP end and can be stale mid-window.
            let before = self
                .active
                .then(|| (rx.clock_us(local_rx), rx.current_reference()));
            #[cfg(debug_assertions)]
            let stats_before = rx.sstsp_stats();
            let verdict = rx.on_beacon(
                &mut ctx,
                ReceivedBeacon {
                    payload,
                    local_rx_us: local_rx,
                },
            );
            #[cfg(debug_assertions)]
            audit_verdict(d.rx, verdict, stats_before, rx.sstsp_stats());
            if let Some((clock_before_us, ref_before)) = before {
                self.hook.post_delivery(&DeliveryObs {
                    ctx: dctx,
                    payload: &payload,
                    local_rx_us: local_rx,
                    clock_before_us,
                    ref_before,
                    verdict,
                    anchors: &self.st.anchors,
                });
            }
        }
    }

    /// Stage 4, end of BP: the BP's final callback, the SoA snapshot and
    /// the spread metric's clock read share one pass (and one oscillator
    /// evaluation per node). The snapshot keeps the SoA exact for this
    /// BP's metric reads and the next BP's intent scan; any interim
    /// mutation — a rejoin — refreshes at its own site.
    fn bp_end(&mut self, bp: &Bp) {
        self.scratch.clocks.clear();
        let st = &mut self.st;
        for id in 0..self.scenario.n_nodes {
            let i = id as usize;
            if !st.present[i] {
                continue;
            }
            let local = st.oscs[i].local_us(bp.t_end);
            let (node, mut ctx) = st.at(id, local);
            node.on_bp_end(&mut ctx);
            self.soa.refresh(i, &*st.nodes[i], &st.config);
            if st.honest[i] && mirror!(self.soa, st.nodes, is_synchronized, i) {
                let c = self
                    .soa
                    .clock_us(i, local)
                    .unwrap_or_else(|| st.nodes[i].clock_us(local));
                debug_assert_eq!(
                    c.to_bits(),
                    st.nodes[i].clock_us(local).to_bits(),
                    "SoA affine clock diverged for node {i}"
                );
                self.scratch.clocks.push(c);
            }
        }
    }

    /// Stage 5, metrics: the BP's spread sample, also binned into the
    /// telemetry histogram while telemetry records.
    fn metrics(&mut self, bp: &Bp) {
        self.tracker.sample(bp.t_end, &self.scratch.clocks);
        if telemetry::enabled() {
            if let Some(&spread) = self.tracker.series().values().last() {
                self.spread_hist
                    .get_or_insert_with(|| {
                        Histogram::new(SPREAD_DIST.lo, SPREAD_DIST.hi, SPREAD_DIST.bins)
                    })
                    .record(spread);
            }
        }
    }

    /// Stage 6, tail: reference tracking (role changes, adversary capture)
    /// and the hook's end-of-BP view.
    fn tail(&mut self, bp: &mut Bp) {
        let st = &self.st;
        let n = self.scenario.n_nodes as usize;
        let current_ref = (0..n)
            .find(|&i| st.present[i] && mirror!(self.soa, st.nodes, is_reference, i))
            .map(|i| i as NodeId);
        if current_ref != self.last_reference {
            if current_ref.is_some() {
                self.reference_changes += 1;
            }
            self.last_reference = current_ref;
            bp.disturbed = true;
        }
        let adversary = |id: NodeId| self.adversary_ids.binary_search(&id).ok();
        if !self.attacker_became_reference && !self.adversary_ids.is_empty() {
            if current_ref.and_then(adversary).is_some() {
                self.attacker_became_reference = true;
            } else {
                // An internal adversary acts as a *de facto* reference when
                // most honest present stations follow its beacons: one pass
                // counts them and each adversary's followers.
                self.followers.fill(0);
                let mut honest_present = 0;
                for i in 0..n {
                    if st.present[i] && st.honest[i] {
                        honest_present += 1;
                        let followed = mirror!(self.soa, st.nodes, current_reference, i);
                        if let Some(a) = followed.and_then(adversary) {
                            self.followers[a] += 1;
                        }
                    }
                }
                self.attacker_became_reference =
                    self.followers.iter().any(|&f| f * 2 > honest_present);
            }
        }

        if self.active {
            // Every station's state, absent ones included, is in the mirror:
            // an absent station is never called, so its last refresh holds.
            self.snapshots.clear();
            for i in 0..n {
                let local = st.oscs[i].local_us(bp.t_end);
                let clock_us = self
                    .soa
                    .clock_us(i, local)
                    .unwrap_or_else(|| st.nodes[i].clock_us(local));
                debug_assert_eq!(
                    clock_us.to_bits(),
                    st.nodes[i].clock_us(local).to_bits(),
                    "SoA affine clock diverged for node {i}"
                );
                self.snapshots.push(NodeSnapshot {
                    id: i as NodeId,
                    present: st.present[i],
                    honest: st.honest[i],
                    synchronized: mirror!(self.soa, st.nodes, is_synchronized, i),
                    is_reference: st.present[i] && mirror!(self.soa, st.nodes, is_reference, i),
                    clock_us,
                });
            }
            self.hook.on_bp_end(&BpView {
                bp: bp.k,
                t_end: bp.t_end,
                nodes: &self.snapshots,
                reference: current_ref,
                disturbed: bp.disturbed,
            });
        }
    }

    /// After the last BP: fold the run's telemetry into the registry, log
    /// each station's end state, and assemble the result, which the hook
    /// sees last.
    fn finish(self, sim: &Simulator<u64>) -> RunResult {
        // Run-level telemetry flush: the hot loop's counter block, the
        // per-BP spread samples, and simcore's event-loop pressure and RNG
        // consumption all land in the registry here, once per run. Gauges
        // high-water across a sweep; counters and histogram bins sum.
        self.counters.flush();
        if let Some(h) = &self.spread_hist {
            telemetry::dist_merge("engine.spread_us", h);
        }
        telemetry::gauge_max("engine.sim.events", sim.events_processed());
        telemetry::gauge_max("engine.queue.peak_pending", sim.peak_pending() as u64);
        telemetry::counter_add_many(&[
            ("engine.rng.chan_draws", self.chan_rng.draws()),
            ("engine.rng.jitter_draws", self.jitter_rng.draws()),
        ]);
        // Fold this thread's pending per-event (`LocalCounter`) deltas into
        // its shard: sweep worker threads never call `snapshot()`
        // themselves, so the engine flushes at the end of every run.
        telemetry::flush_local();

        let t_last = self.horizon() - SimDuration::from_us(1);
        let Run {
            hook,
            scenario,
            st,
            topology,
            domains,
            counters,
            tracker,
            reference_changes,
            last_reference,
            attacker_became_reference,
            ..
        } = self;
        let Stations {
            nodes,
            oscs,
            present,
            honest,
            ..
        } = &st;
        let n = scenario.n_nodes as usize;
        let clock_at_end = |i: usize| nodes[i].clock_us(oscs[i].local_us(t_last));

        let mut guard_rejections = 0u64;
        let mut mutesla_rejections = 0u64;
        let mut unknown_anchor = 0u64;
        let mut retargets = 0u64;
        let mut alerts = 0u64;
        for (i, node) in nodes.iter().enumerate() {
            if !honest[i] {
                continue;
            }
            if let Some(s) = node.sstsp_stats() {
                guard_rejections += s.guard_rejections;
                mutesla_rejections += s.mutesla_rejections;
                unknown_anchor += s.unknown_anchor;
                retargets += s.retargets;
                alerts += s.alerts;
            }
        }

        // Per-node end-of-run dump, formerly an `SSTSP_DEBUG_MH`-gated
        // eprintln. Routed through the structured log instead: silent by
        // default, on stderr with `SSTSP_LOG=debug`, capturable in tests.
        let ref_clock = st.reference().map(|r| clock_at_end(r as usize));
        for i in 0..n {
            telemetry::log::debug("engine.run_end", || {
                let s = nodes[i].sstsp_stats();
                format!(
                    "node {i}: present={} sync={} isref={} follows={:?} err_us={:.1} stats={:?}",
                    present[i],
                    nodes[i].is_synchronized(),
                    present[i] && nodes[i].is_reference(),
                    nodes[i].current_reference(),
                    ref_clock.map_or(f64::NAN, |rc| clock_at_end(i) - rc),
                    s.map(|s| (s.retargets, s.guard_rejections, s.mutesla_rejections)),
                )
            });
        }

        // Multi-hop: per-hop error profile against the final reference.
        let hop_profile = match (&topology, last_reference) {
            (Some(topo), Some(r)) if present[r as usize] => {
                let ref_clock = clock_at_end(r as usize);
                let hops = topo.hops_from(r);
                Some(
                    (0..n)
                        .filter(|&i| {
                            present[i] && honest[i] && nodes[i].is_synchronized() && i as u32 != r
                        })
                        .map(|i| (hops[i], (clock_at_end(i) - ref_clock).abs()))
                        .collect(),
                )
            }
            _ => None,
        };

        // Mesh: per-domain end-of-run summary (reference identity and
        // intra-domain agreement — the per-domain analogue of the global
        // spread metric, which keeps measuring *cross*-domain agreement).
        let domain_report = domains.as_ref().map(|d| {
            d.domains
                .iter()
                .enumerate()
                .map(|(di, members)| {
                    let final_reference = members
                        .iter()
                        .copied()
                        .find(|&id| present[id as usize] && nodes[id as usize].is_reference());
                    let mut lo = f64::INFINITY;
                    let mut hi = f64::NEG_INFINITY;
                    let mut qualified = 0u32;
                    for &id in members {
                        let i = id as usize;
                        if present[i] && honest[i] && nodes[i].is_synchronized() {
                            let c = clock_at_end(i);
                            lo = lo.min(c);
                            hi = hi.max(c);
                            qualified += 1;
                        }
                    }
                    DomainSummary {
                        domain: di as u32,
                        nodes: members.len() as u32,
                        final_reference,
                        end_spread_us: (qualified >= 2).then_some(hi - lo),
                    }
                })
                .collect()
        });

        let criterion = SyncCriterion::default();
        let sync_latency_s = criterion.latency(tracker.series()).map(|t| t.as_secs_f64());
        let steady_error_us = criterion.steady_state_error(tracker.series());
        // The BP loop samples the tracker every BP, and every scenario
        // runs at least one BP, so an empty tracker here is a logic error.
        let peak = tracker
            .peak()
            .expect("spread tracker sampled at least once per run");
        let result = RunResult {
            spread: tracker.into_series(),
            sync_latency_s,
            steady_error_us,
            peak_spread_us: peak,
            tx_successes: counters.window_success,
            tx_collisions: counters.window_collision,
            silent_windows: counters.window_silent,
            jammed_windows: counters.window_jammed,
            reference_changes,
            final_reference: last_reference,
            attacker_became_reference,
            guard_rejections,
            mutesla_rejections,
            unknown_anchor,
            retargets,
            alerts,
            hop_profile,
            domain_report,
            protocol: scenario.protocol.name(),
            n_nodes: scenario.n_nodes,
            seed: scenario.seed,
        };
        hook.on_run_end(&result);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;

    #[test]
    fn tiny_sstsp_network_synchronizes() {
        let cfg = ScenarioConfig::new(ProtocolKind::Sstsp, 5, 20.0, 7);
        let r = Network::build(&cfg).run();
        assert_eq!(r.protocol, "SSTSP");
        assert!(
            r.sync_latency_s.is_some(),
            "5 nodes must synchronize in 20 s; peak {}",
            r.peak_spread_us
        );
        let tail = r
            .spread
            .max_in(SimTime::from_secs(15), SimTime::from_secs(20))
            .unwrap();
        assert!(tail < 25.0, "steady-state spread {tail} µs");
        assert!(r.final_reference.is_some());
        assert!(r.tx_successes > 100, "reference beacons every BP");
    }

    #[test]
    fn tsf_small_network_roughly_synchronizes() {
        let cfg = ScenarioConfig::new(ProtocolKind::Tsf, 5, 20.0, 7);
        let r = Network::build(&cfg).run();
        // TSF at 5 nodes works decently; spread stays bounded by ~ tens of µs.
        let tail = r
            .spread
            .max_in(SimTime::from_secs(10), SimTime::from_secs(20))
            .unwrap();
        assert!(tail < 200.0, "TSF tail spread {tail} µs");
        assert!(r.final_reference.is_none(), "TSF has no reference role");
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = ScenarioConfig::new(ProtocolKind::Sstsp, 8, 10.0, 99);
        let a = Network::build(&cfg).run();
        let b = Network::build(&cfg).run();
        assert_eq!(a.spread.values(), b.spread.values());
        assert_eq!(a.tx_successes, b.tx_successes);
        assert_eq!(a.tx_collisions, b.tx_collisions);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Network::build(&ScenarioConfig::new(ProtocolKind::Sstsp, 8, 10.0, 1)).run();
        let b = Network::build(&ScenarioConfig::new(ProtocolKind::Sstsp, 8, 10.0, 2)).run();
        assert_ne!(a.spread.values(), b.spread.values());
    }

    #[test]
    fn sample_count_matches_bps() {
        let cfg = ScenarioConfig::new(ProtocolKind::Tsf, 4, 5.0, 3);
        let r = Network::build(&cfg).run();
        assert_eq!(r.spread.len() as u64, cfg.total_bps());
    }

    #[test]
    fn jamming_window_blocks_beacons() {
        let mut cfg = ScenarioConfig::new(ProtocolKind::Sstsp, 5, 10.0, 11);
        cfg.jam_windows.push(crate::scenario::JamWindow {
            start_s: 3.0,
            end_s: 5.0,
        });
        let r = Network::build(&cfg).run();
        // During the jam, windows with at least one (destroyed) transmission
        // count as jammed; fully silent windows do not. Expect a healthy
        // number of each across the 20-BP jam.
        assert!(r.jammed_windows >= 5, "jammed {} windows", r.jammed_windows);
        // The network must re-synchronize after the jam lifts.
        let tail = r
            .spread
            .max_in(SimTime::from_secs(8), SimTime::from_secs(10))
            .unwrap();
        assert!(tail < 25.0, "post-jam spread {tail} µs");
    }

    #[test]
    fn jam_window_starting_at_the_last_bp_jams_it() {
        // The 5 s run's last BP, BP 50, starts at 5 s.
        let mut cfg = ScenarioConfig::new(ProtocolKind::Sstsp, 5, 5.0, 11);
        assert_eq!(Network::build(&cfg).run().jammed_windows, 0);
        cfg.jam_windows.push(crate::scenario::JamWindow {
            start_s: 5.0,
            end_s: 6.0,
        });
        assert_eq!(Network::build(&cfg).run().jammed_windows, 1);
    }

    #[test]
    fn churned_stations_return_when_their_absence_rounds_to_zero_bps() {
        /// Counts the stations present in the run's last BP.
        struct LastBp(usize);
        impl EngineHook for LastBp {
            fn on_bp_end(&mut self, view: &BpView<'_>) {
                self.0 = view.nodes.iter().filter(|n| n.present).count();
            }
        }
        let mut cfg = ScenarioConfig::new(ProtocolKind::Sstsp, 20, 30.0, 3);
        cfg.churn = Some(crate::scenario::ChurnConfig {
            period_s: 5.0,
            fraction: 0.2,
            absence_s: 0.0,
        });
        let mut last = LastBp(0);
        Network::build(&cfg).run_with_hook(&mut last);
        assert_eq!(last.0, 20);
    }

    /// The engine alone decides presence: an absent station never
    /// transmits or receives, is never the view's reference, and its
    /// snapshot never claims the role — for every protocol, under churn,
    /// a reference departure, a crash that reboots and a reference killed
    /// for good.
    #[test]
    fn absent_stations_never_act_or_hold_the_reference() {
        /// Crashes station 3 at BP 40 for 10 BPs and kills the reference at
        /// BP 150; checks each BP's transmitters, receivers and snapshots
        /// against the presence flags of the BP's own view (presence only
        /// changes in the events stage).
        #[derive(Default)]
        struct Audit {
            /// This BP's transmitters and receivers.
            acted: Vec<NodeId>,
            /// Station-BPs spent absent.
            absent: u64,
        }
        impl EngineHook for Audit {
            fn on_bp_start(&mut self, bp: u64, actions: &mut Vec<FaultAction>) {
                match bp {
                    40 => actions.push(FaultAction::Crash {
                        node: 3,
                        rejoin_after_bps: Some(10),
                    }),
                    150 => actions.push(FaultAction::KillReference {
                        rejoin_after_bps: None,
                    }),
                    _ => {}
                }
            }
            fn on_beacon_tx(&mut self, _bp: u64, src: NodeId) {
                self.acted.push(src);
            }
            fn on_delivery(&mut self, ctx: &DeliveryCtx, _: &mut BeaconPayload) -> DeliveryFate {
                self.acted.push(ctx.dst);
                DeliveryFate::Deliver
            }
            fn on_bp_end(&mut self, view: &BpView<'_>) {
                let bp = view.bp;
                for id in self.acted.drain(..) {
                    assert!(
                        view.nodes[id as usize].present,
                        "BP {bp}: absent {id} acted"
                    );
                }
                if let Some(r) = view.reference {
                    assert!(
                        view.nodes[r as usize].present,
                        "BP {bp}: absent reference {r}"
                    );
                }
                for s in view.nodes.iter().filter(|s| !s.present) {
                    assert!(!s.is_reference, "BP {bp}: absent {} holds the role", s.id);
                    self.absent += 1;
                }
            }
        }
        for kind in ProtocolKind::ALL {
            let mut cfg = ScenarioConfig::new(kind, 20, 30.0, 3);
            cfg.churn = Some(crate::scenario::ChurnConfig {
                period_s: 5.0,
                fraction: 0.2,
                absence_s: 2.0,
            });
            cfg.ref_leaves_s = vec![10.0];
            let mut audit = Audit::default();
            Network::build(&cfg).run_with_hook(&mut audit);
            assert!(
                audit.absent > 0,
                "{}: no station was ever absent",
                kind.name()
            );
        }
    }

    /// No honest run meets a sender without a published anchor, so this
    /// hook makes one: in BPs 1..=LAST it rewrites the sender of every
    /// secured beacon delivered to station `TARGET` to an id that never
    /// published an anchor. The window closes early enough that `TARGET`
    /// holds no live reference yet (stickiness would ignore other senders
    /// once it does).
    #[test]
    fn a_sender_without_an_anchor_is_reported_as_unknown() {
        use protocols::api::RxVerdict;
        const TARGET: NodeId = 3;
        const LAST: u64 = 12;
        const NOBODY: NodeId = 1_000;
        #[derive(Default)]
        struct Unanchored {
            rewritten: u64,
            unknown: u64,
        }
        impl EngineHook for Unanchored {
            fn on_delivery(&mut self, ctx: &DeliveryCtx, p: &mut BeaconPayload) -> DeliveryFate {
                if let BeaconPayload::Secured(body, _) = p {
                    if ctx.dst == TARGET && ctx.bp <= LAST {
                        body.src = NOBODY;
                        self.rewritten += 1;
                    }
                }
                DeliveryFate::Deliver
            }
            fn post_delivery(&mut self, obs: &DeliveryObs<'_>) {
                if obs.verdict == RxVerdict::UnknownAnchor {
                    assert_eq!(
                        obs.ctx.dst, TARGET,
                        "only the target meets an unknown sender"
                    );
                    assert!(obs.anchors.get(NOBODY).is_none());
                    self.unknown += 1;
                }
            }
        }
        let cfg = ScenarioConfig::new(ProtocolKind::Sstsp, 10, 10.0, 5);
        let mut hook = Unanchored::default();
        let session = telemetry::recording();
        let r = Network::build(&cfg).run_with_hook(&mut hook);
        let counted = telemetry::snapshot().counter("sstsp.reject.unknown_anchor");
        drop(session);
        assert!(hook.rewritten > 0, "no secured beacon reached the target");
        assert!(hook.unknown > 0, "no delivery was reported as unknown");
        assert_eq!(counted, hook.unknown, "telemetry vs verdicts");
        assert_eq!(r.unknown_anchor, hook.unknown, "SstspStats vs verdicts");
        assert!(r.sync_latency_s.is_some(), "the target still synchronizes");
    }
}
