//! The network simulation engine.
//!
//! One [`Network`] instance simulates one IBSS for one scenario. Per beacon
//! period it:
//!
//! 1. applies churn (departures / returns) and jamming windows,
//! 2. collects every present station's beacon intent and resolves the
//!    beacon generation window on the shared channel,
//! 3. delivers a successful beacon to every present receiver at the correct
//!    reception instant (each receiver timestamps it with its *own*
//!    drifting clock), subject to independent packet-error draws,
//! 4. gives transmit feedback, closes the BP, and samples the maximum
//!    pairwise difference of the honest stations' synchronized clocks.
//!
//! Because the IBSS is a single collision domain, the entire beacon window
//! outcome is determined at the window start — there is no event that could
//! interleave mid-window — so deliveries are computed inline at their exact
//! reception times rather than round-tripping through the event heap. The
//! heap-based [`simcore::Simulator`] drives the BP sequence itself, which
//! keeps the time bookkeeping honest (monotone, horizon-checked).

use crate::instrument::{
    BpView, DeliveryCtx, DeliveryFate, DeliveryObs, EngineHook, FaultAction, NodeSnapshot, NoopHook,
};
use crate::kernel::{BpTimeline, NodeSoa};
use crate::scenario::{ProtocolKind, ScenarioConfig};
use attacks::{AttackWindow, CampaignMember, FastBeaconAttacker};
use clocks::Oscillator;
use mac80211::ContentionWindow;
use protocols::api::{
    AnchorRegistry, BeaconIntent, BeaconPayload, MeshRole, NodeCtx, NodeId, ProtocolConfig,
    ReceivedBeacon, SyncProtocol,
};
use protocols::{AspNode, AtspNode, RkNode, SatsfNode, SstspNode, TatspNode, TsfNode};
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use simcore::rng::StreamDomain;
use simcore::{
    CountingRng, Histogram, RngStreams, SimControl, SimDuration, SimTime, Simulator, TimeSeries,
};
use sstsp_telemetry as telemetry;
use std::sync::Arc;
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

/// Run-level scratch block for the engine's hot-loop telemetry counters.
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
    /// Flush every non-zero counter to the registry shard (one lock) and
    /// zero the block. A no-op beyond the zeroing when telemetry is off.
    #[inline]
    fn flush(&mut self) {
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
        *self = BpCounters::default();
    }
}

/// A simulated IBSS ready to run.
pub struct Network {
    scenario: ScenarioConfig,
    phy: PhyParams,
    window: ContentionWindow,
    channel: Channel,
    nodes: Vec<Box<dyn SyncProtocol>>,
    oscs: Vec<Oscillator>,
    present: Vec<bool>,
    honest: Vec<bool>,
    proto_rngs: Vec<ChaCha12Rng>,
    backoff_rngs: Vec<ChaCha12Rng>,
    chan_rng: ChaCha12Rng,
    jitter_rng: ChaCha12Rng,
    scenario_rng: ChaCha12Rng,
    anchors: AnchorRegistry,
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

/// Context builder that splits borrows of the engine's parallel arrays.
macro_rules! node_ctx {
    ($proto_rngs:expr, $anchors:expr, $pcfg:expr, $id:expr, $local:expr) => {
        NodeCtx {
            id: $id as NodeId,
            local_us: $local,
            rng: &mut $proto_rngs[$id as usize],
            anchors: $anchors,
            config: $pcfg,
        }
    };
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

        let attacker_id = sc.attacker_id();
        // Campaign members are compromised *stations*, constructed as
        // wrappers around the honest protocol exactly like the lone
        // attacker; the member range takes precedence over the lone
        // attacker slot if both are configured.
        let campaign_ids = sc.campaign_member_ids();
        let mut nodes: Vec<Box<dyn SyncProtocol>> = Vec::with_capacity(n);
        let mut honest = vec![true; n];
        for id in 0..n as u32 {
            if campaign_ids.contains(&id) {
                let spec = sc.campaign.expect("campaign ids imply spec");
                let idx = id - campaign_ids.start;
                honest[id as usize] = false;
                nodes.push(match sc.protocol {
                    ProtocolKind::Sstsp => {
                        Box::new(CampaignMember::new(spec, idx, SstspNode::founding(), true))
                    }
                    _ => Box::new(CampaignMember::new(spec, idx, TsfNode::new(), false)),
                });
            } else if Some(id) == attacker_id {
                let spec = sc.attacker.expect("attacker id implies spec");
                let window = AttackWindow {
                    start_us: spec.start_s * 1e6,
                    end_us: spec.end_s * 1e6,
                };
                honest[id as usize] = false;
                nodes.push(match sc.protocol {
                    ProtocolKind::Sstsp => Box::new(FastBeaconAttacker::new(
                        SstspNode::founding(),
                        window,
                        spec.error_us,
                        true,
                    )),
                    _ => Box::new(FastBeaconAttacker::new(
                        TsfNode::new(),
                        window,
                        spec.error_us,
                        false,
                    )),
                });
            } else {
                nodes.push(match sc.protocol {
                    ProtocolKind::Tsf => Box::new(TsfNode::new()),
                    ProtocolKind::Atsp => Box::new(AtspNode::new()),
                    ProtocolKind::Tatsp => Box::new(TatspNode::new()),
                    ProtocolKind::Satsf => Box::new(SatsfNode::new()),
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
            nodes,
            oscs,
            present: vec![true; n],
            honest,
            proto_rngs: (0..n)
                .map(|i| streams.stream(StreamDomain::Protocol, i as u64))
                .collect(),
            backoff_rngs: (0..n)
                .map(|i| streams.stream(StreamDomain::MacBackoff, i as u64))
                .collect(),
            chan_rng: streams.stream(StreamDomain::ChannelError, 0),
            jitter_rng: streams.stream(StreamDomain::TimestampJitter, 0),
            scenario_rng: streams.stream(StreamDomain::Scenario, 0),
            anchors: AnchorRegistry::new(),
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
    /// beacon-period loop; an active hook receives its per-event callbacks
    /// from inside it. Running with [`NoopHook`] — or any hook that neither
    /// drops nor mutates deliveries nor emits fault actions — is
    /// bit-identical to [`Network::run`]: the hook only ever sees copies,
    /// and no engine RNG stream is consulted on its behalf.
    pub fn run_with_hook(self, hook: &mut dyn EngineHook) -> RunResult {
        let active = hook.active();
        let pcfg: ProtocolConfig = self.scenario.protocol_config.clone();
        let bp = SimDuration::from_us_f64(pcfg.bp_us);
        let total_bps = self.scenario.total_bps();
        let horizon = SimTime::ZERO + bp * (total_bps + 1);
        // Precompute churn departure instants (BP indices).
        let sc = &self.scenario;
        let churn_bps: Vec<u64> = match sc.churn {
            Some(c) => {
                let period_bps = sc.bps(c.period_s);
                (1..)
                    .map(|k| k * period_bps)
                    .take_while(|&b| b < total_bps)
                    .collect()
            }
            None => Vec::new(),
        };
        let churn_absence_bps = sc.churn.map(|c| sc.bps(c.absence_s)).unwrap_or(0);
        let ref_leave_bps: Vec<u64> = sc.ref_leaves_s.iter().map(|&s| sc.bps(s)).collect();
        let ref_absence_bps = sc.bps(sc.ref_absence_s);

        // Quiescent-BP timeline: which BPs have *any* scheduled scenario
        // event (churn/reference departure, jam window, attacker or
        // campaign window). Quiet BPs skip the per-BP event scans.
        let windows_s: Vec<(f64, f64)> = self
            .scenario
            .jam_windows
            .iter()
            .map(|w| (w.start_s, w.end_s))
            .chain(self.scenario.attacker.map(|a| (a.start_s, a.end_s)))
            .chain(self.scenario.campaign.map(|c| (c.start_s, c.end_s)))
            .collect();
        let timeline = BpTimeline::build(total_bps, bp, &churn_bps, &ref_leave_bps, &windows_s);

        // (bp index, station) pairs due to rejoin.
        let mut returns: Vec<(u64, u32)> = Vec::new();

        let mut tracker = SpreadTracker::new(format!(
            "{} N={}",
            self.scenario.protocol.name(),
            self.scenario.n_nodes
        ));
        let mut tx_successes = 0u64;
        let mut tx_collisions = 0u64;
        let mut silent_windows = 0u64;
        let mut jammed_windows = 0u64;
        let mut reference_changes = 0u64;
        let mut last_reference: Option<NodeId> = None;
        let mut attacker_became_reference = false;

        // Destructure for borrow-friendly access inside the loop.
        let Network {
            scenario,
            phy,
            window,
            mut channel,
            mut nodes,
            mut oscs,
            mut present,
            honest,
            mut proto_rngs,
            mut backoff_rngs,
            chan_rng,
            jitter_rng,
            mut scenario_rng,
            mut anchors,
            topology,
            domains,
            station_domains,
            mut scratch,
            ..
        } = self;
        // Transparent draw-count wrappers: the wrapped streams are
        // bit-identical to the bare ones, so telemetry on RNG consumption
        // cannot perturb the run.
        let mut chan_rng = CountingRng::new(chan_rng);
        let mut jitter_rng = CountingRng::new(jitter_rng);

        // Stations under adversary control: the lone attacker and every
        // campaign member (reference capture is tracked for all of them).
        let adversary_ids: Vec<NodeId> = (0..scenario.n_nodes)
            .filter(|&i| !honest[i as usize])
            .collect();

        // One tick per run; perfbench's ledger counts runs by it.
        telemetry::counter_add("engine.path.fast", 1);
        // Dense node state (static intents, affine clocks, reference and
        // sync flags) the per-BP scans read instead of making trait calls.
        // A pure cache: refreshed after init, rejoin and every end-of-BP
        // callback, and debug builds check each read against the trait.
        let mut soa = NodeSoa::new(scenario.n_nodes as usize);
        // Any topology resolves its windows through one reusable resolver,
        // bucketed by the mesh decomposition or by one domain per station.
        let mut mesh_resolver = topology.as_ref().map(|t| {
            let d = domains.as_ref().or(station_domains.as_ref());
            MeshResolver::new(t, d.expect("every topology has a decomposition"))
        });

        // Coarse per-phase wall-clock accounting for the BP loop, emitted
        // at run end through the structured log (`engine.prof`, info level
        // — so `SSTSP_PROF=1 SSTSP_LOG=info`). Off, it costs one branch
        // per phase boundary per BP.
        let prof = std::env::var("SSTSP_PROF").is_ok();
        let mut prof_ns = [0u128; 6];

        // Node initiation (seed draw + deferred anchor registration).
        let t_init = std::time::Instant::now();
        for id in 0..scenario.n_nodes {
            let local = oscs[id as usize].local_us(SimTime::ZERO);
            let mut ctx = node_ctx!(proto_rngs, &mut anchors, &pcfg, id, local);
            nodes[id as usize].init(&mut ctx);
            soa.refresh(id as usize, &*nodes[id as usize], &pcfg);
        }
        if prof {
            telemetry::log::info("engine.prof", || {
                format!(
                    "prof      init: {:8.3} ms",
                    t_init.elapsed().as_secs_f64() * 1e3
                )
            });
        }
        hook.on_run_start(&scenario, &anchors);

        // Fault-layer state: actions collected at each BP start, and the
        // fault-layer jamming flag OR-ed with the scenario's jam windows.
        let mut fault_actions: Vec<FaultAction> = Vec::new();
        let mut fault_jam = false;
        // Hot-loop telemetry is batched: plain increments during the BP,
        // one shard flush per run (see `BpCounters`). The per-BP spread
        // sample accumulates into a local histogram folded in at run end
        // the same way (`dist_merge`).
        let mut bp_counters = BpCounters::default();
        let mut spread_hist: Option<Histogram> = None;
        // Tracks whether every station is currently present; maintained at
        // each non-quiet BP so the mesh delivery filter can be skipped in
        // the (overwhelmingly common) full-membership case.
        let mut all_present = present.iter().all(|&p| p);
        let mut snapshots: Vec<NodeSnapshot> =
            Vec::with_capacity(if active { scenario.n_nodes as usize } else { 0 });

        let mut sim: Simulator<u64> = Simulator::new(horizon);
        if active {
            // Instrumented runs also cross-check simcore's event ordering
            // from the outside via the probe hook.
            let mut last = SimTime::ZERO;
            sim.set_probe(Box::new(move |t, _| {
                assert!(t >= last, "simulator delivered events out of order");
                last = t;
            }));
        }
        sim.schedule_at(SimTime::ZERO + bp, 1u64);

        sim.run(|sim, ev| {
            let k: u64 = ev.payload;
            let t0 = ev.time;
            let mut prof_t = prof.then(std::time::Instant::now);
            macro_rules! lap {
                ($i:expr) => {
                    if let Some(t) = prof_t.as_mut() {
                        let n = std::time::Instant::now();
                        prof_ns[$i] += n.duration_since(*t).as_nanos();
                        *t = n;
                    }
                };
            }
            // Take a station off the air at the BP start (no-op if it is
            // already absent), queueing its rejoin for BP `rejoin_at`.
            macro_rules! depart {
                ($id:expr, $rejoin_at:expr) => {{
                    let id: NodeId = $id;
                    if present[id as usize] {
                        present[id as usize] = false;
                        let local = oscs[id as usize].local_us(t0);
                        let mut ctx = node_ctx!(proto_rngs, &mut anchors, &pcfg, id, local);
                        nodes[id as usize].on_leave(&mut ctx);
                        if let Some(due) = $rejoin_at {
                            returns.push((due, id));
                        }
                    }
                }};
            }
            // Put `station` on the air in `slot`: make its beacon and list
            // it in `scratch.on_air` for the delivery loop. Evaluates to the
            // transmitter's jittered local timestamp.
            macro_rules! transmit {
                ($station:expr, $slot:expr) => {{
                    let station: NodeId = $station;
                    let t_tx = t0 + window.delay_of($slot);
                    bp_counters.beacon_tx += 1;
                    if active {
                        hook.on_beacon_tx(k, station, t_tx);
                    }
                    // Sub-µs hardware timestamping jitter.
                    let jitter = jitter_rng.random_range(0.0..=scenario.timestamp_jitter_us);
                    let tx_local = oscs[station as usize].local_us(t_tx) + jitter;
                    let mut ctx = node_ctx!(proto_rngs, &mut anchors, &pcfg, station, tx_local);
                    let payload = nodes[station as usize].make_beacon(&mut ctx);
                    scratch.on_air_of[station as usize] = scratch.on_air.len() as u32;
                    scratch.on_air.push(OnAir {
                        payload,
                        t_rx: t_tx + phy.beacon_airtime(payload.is_secured()) + phy.propagation(),
                        reached: false,
                    });
                    tx_local
                }};
            }

            // Anything that perturbs the network this BP (churn, departures,
            // jamming, attacker activity, fault injections, reference
            // changes); convergence invariants suspend after disturbances.
            let mut disturbed = false;

            if active {
                fault_actions.clear();
                hook.on_bp_start(k, t0, &mut fault_actions);
            }

            // Quiescent-BP skip-ahead: nothing is scheduled this BP (no
            // churn or reference departure, no jam, attack or campaign
            // window), no rejoin is due, the hook pushed no fault action and
            // no fault-layer jam is engaged, so the event scans below would
            // all no-op. Skip straight to the beacon window; the only state
            // they could have touched is the jammer flag, which such a BP
            // always leaves released.
            let quiet = !timeline.interesting(k)
                && fault_actions.is_empty()
                && !fault_jam
                && returns.iter().all(|&(due, _)| due != k);
            if quiet {
                channel.set_jammed(false);
            } else {
                // --- Churn & reference departures -------------------------
                returns.retain(|&(due, id)| {
                    if due == k {
                        present[id as usize] = true;
                        let local = oscs[id as usize].local_us(t0);
                        let mut ctx = node_ctx!(proto_rngs, &mut anchors, &pcfg, id, local);
                        nodes[id as usize].on_join(&mut ctx);
                        soa.refresh(id as usize, &*nodes[id as usize], &pcfg);
                        disturbed = true;
                        false
                    } else {
                        true
                    }
                });
                if churn_bps.contains(&k) {
                    let churn = scenario.churn.expect("churn configured");
                    let candidates: Vec<u32> = (0..scenario.n_nodes)
                        .filter(|&id| {
                            present[id as usize]
                                && honest[id as usize]
                                && !nodes[id as usize].is_reference()
                        })
                        .collect();
                    let quota = ((scenario.n_nodes as f64 * churn.fraction).round() as usize)
                        .min(candidates.len());
                    // Deterministic partial Fisher-Yates from the scenario stream.
                    let mut pool = candidates;
                    for pick in 0..quota {
                        let j = scenario_rng.random_range(pick..pool.len());
                        pool.swap(pick, j);
                        depart!(pool[pick], Some(k + churn_absence_bps));
                    }
                    disturbed |= quota > 0;
                }
                if ref_leave_bps.contains(&k) {
                    if let Some(id) = (0..scenario.n_nodes)
                        .find(|&id| present[id as usize] && nodes[id as usize].is_reference())
                    {
                        depart!(id, Some(k + ref_absence_bps));
                        disturbed = true;
                    }
                }

                // --- Fault injection --------------------------------------
                // Applied after churn so a fault plan targeting the reference
                // sees the network exactly as the scenario left it this BP.
                let rejoin_at = |r: Option<u64>| r.map(|r| k + r.max(1));
                for &action in fault_actions.iter() {
                    disturbed = true;
                    match action {
                        FaultAction::Crash {
                            node,
                            rejoin_after_bps,
                        } => depart!(node, rejoin_at(rejoin_after_bps)),
                        FaultAction::KillReference { rejoin_after_bps } => {
                            if let Some(id) = (0..scenario.n_nodes).find(|&id| {
                                present[id as usize] && nodes[id as usize].is_reference()
                            }) {
                                depart!(id, rejoin_at(rejoin_after_bps));
                            }
                        }
                        FaultAction::CrashDomain {
                            domain,
                            rejoin_after_bps,
                        } => {
                            if let Some(d) = &domains {
                                for &node in &d.domains[domain as usize % d.len()] {
                                    if !d.is_bridge(node) {
                                        depart!(node, rejoin_at(rejoin_after_bps));
                                    }
                                }
                            }
                        }
                        FaultAction::KillBridge {
                            bridge,
                            rejoin_after_bps,
                        } => {
                            if let Some(d) = domains.as_ref().filter(|d| !d.bridges.is_empty()) {
                                let node = d.bridges[bridge as usize % d.bridges.len()];
                                depart!(node, rejoin_at(rejoin_after_bps));
                            }
                        }
                        FaultAction::ClockStep { node, delta_us } => {
                            oscs[node as usize].step_by(delta_us)
                        }
                        FaultAction::ClockFreeze { node } => oscs[node as usize].freeze(t0),
                        FaultAction::ClockUnfreeze { node } => oscs[node as usize].unfreeze(t0),
                        FaultAction::SetBurstLoss(p) => channel.set_burst_loss(p),
                        FaultAction::SetJammed(on) => fault_jam = on,
                    }
                }

                // --- Jamming ----------------------------------------------
                let t_secs = t0.as_secs_f64();
                channel.set_jammed(
                    fault_jam
                        || scenario
                            .jam_windows
                            .iter()
                            .any(|w| t_secs >= w.start_s && t_secs < w.end_s),
                );
                disturbed |= channel.is_jammed();
                if let Some(a) = scenario.attacker {
                    disturbed |= t_secs >= a.start_s && t_secs < a.end_s;
                }
                if let Some(c) = scenario.campaign {
                    disturbed |= c.active_at(t_secs);
                }
                // Churn, departures, and faults all run above, so a
                // non-quiet BP recomputes the all-present flag once here;
                // quiet BPs cannot change membership and keep it as-is.
                all_present = present.iter().all(|&p| p);
            } // end of the non-quiet event scans
            lap!(0);

            // --- Beacon intents ---------------------------------------
            let single_hop = mesh_resolver.is_none();
            scratch.tx_attempts.clear();
            scratch.mh_attempts.clear();
            for id in 0..scenario.n_nodes {
                if !present[id as usize] {
                    continue;
                }
                // Serve the intent from the SoA cache when the protocol
                // predicted it. A cached intent is one the real call would
                // return without consuming randomness, so skipping the call
                // (and the oscillator read feeding its context) leaves every
                // RNG stream untouched.
                let intent = match soa.static_intent(id as usize) {
                    Some(si) => {
                        #[cfg(debug_assertions)]
                        {
                            let pos = proto_rngs[id as usize].stream_pos();
                            let local = oscs[id as usize].local_us(t0);
                            let mut ctx = node_ctx!(proto_rngs, &mut anchors, &pcfg, id, local);
                            let real = nodes[id as usize].intent(&mut ctx);
                            assert_eq!(real, si, "static intent diverged for node {id}");
                            assert_eq!(
                                proto_rngs[id as usize].stream_pos(),
                                pos,
                                "static intent consumed randomness for node {id}"
                            );
                        }
                        bp_counters.intent_cached += 1;
                        si
                    }
                    None => {
                        bp_counters.intent_called += 1;
                        let local = oscs[id as usize].local_us(t0);
                        let mut ctx = node_ctx!(proto_rngs, &mut anchors, &pcfg, id, local);
                        nodes[id as usize].intent(&mut ctx)
                    }
                };
                let (slot, relay) = match intent {
                    BeaconIntent::Silent => continue,
                    BeaconIntent::Contend => {
                        (window.draw_slot(&mut backoff_rngs[id as usize]), false)
                    }
                    BeaconIntent::FixedSlot(slot) => (slot, false),
                    BeaconIntent::RelayAfterRx(slot) => (slot, true),
                };
                if !single_hop {
                    scratch.mh_attempts.push(MhAttempt {
                        station: id,
                        slot,
                        relay,
                    });
                } else if !relay {
                    // Relaying is pointless when everyone already hears the
                    // reference directly.
                    scratch.tx_attempts.push(TxAttempt { station: id, slot });
                }
            }
            lap!(1);

            // --- Beacon generation window -----------------------------
            // Both arms list the window's deliveries for the shared
            // delivery loop below. Single-hop counts one collision per
            // window; meshes count one per transmitter that reached nobody.
            scratch.on_air.clear();
            scratch.deliveries.clear();
            let deliveries: &[MhDelivery] = match mesh_resolver.as_mut() {
                None => {
                    // Single-hop: the whole window is decided by the
                    // earliest occupied slot.
                    let mut outcome = channel.resolve_window(&scratch.tx_attempts);
                    if active {
                        // Replay seam: a schedule-driven hook substitutes
                        // the recorded outcome after cross-checking `live`.
                        if let Some(replayed) = hook.on_window(k, &outcome) {
                            outcome = replayed;
                        }
                    }
                    match outcome {
                        WindowOutcome::Silent => {
                            silent_windows += 1;
                            bp_counters.window_silent += 1;
                        }
                        WindowOutcome::Jammed { victims } => {
                            jammed_windows += 1;
                            bp_counters.window_jammed += 1;
                            for id in victims {
                                let local = oscs[id as usize].local_us(t0);
                                let mut ctx = node_ctx!(proto_rngs, &mut anchors, &pcfg, id, local);
                                nodes[id as usize].on_tx_outcome(&mut ctx, true);
                            }
                        }
                        WindowOutcome::Collision { colliders, .. } => {
                            tx_collisions += 1;
                            bp_counters.window_collision += 1;
                            for id in colliders {
                                let local = oscs[id as usize].local_us(t0);
                                let mut ctx = node_ctx!(proto_rngs, &mut anchors, &pcfg, id, local);
                                nodes[id as usize].on_tx_outcome(&mut ctx, true);
                            }
                        }
                        WindowOutcome::Success { winner, slot } => {
                            tx_successes += 1;
                            bp_counters.window_success += 1;
                            let tx_local = transmit!(winner, slot);
                            let mut ctx =
                                node_ctx!(proto_rngs, &mut anchors, &pcfg, winner, tx_local);
                            nodes[winner as usize].on_tx_outcome(&mut ctx, false);
                            for id in 0..scenario.n_nodes {
                                if id != winner && present[id as usize] {
                                    scratch.deliveries.push(MhDelivery {
                                        rx: id,
                                        tx: winner,
                                        slot,
                                    });
                                }
                            }
                        }
                    }
                    &scratch.deliveries
                }
                Some(resolver) => {
                    // Multi-hop: local carrier sense, hidden terminals,
                    // spatial reuse and in-window relaying, resolved per
                    // collision domain with reused buffers.
                    let topo = topology.as_ref().expect("a resolver implies a topology");
                    let attempts = &scratch.mh_attempts;
                    if channel.is_jammed() {
                        jammed_windows += 1;
                        bp_counters.window_jammed += 1;
                        for a in attempts.iter() {
                            if !a.relay {
                                let local = oscs[a.station as usize].local_us(t0);
                                let mut ctx =
                                    node_ctx!(proto_rngs, &mut anchors, &pcfg, a.station, local);
                                nodes[a.station as usize].on_tx_outcome(&mut ctx, true);
                            }
                        }
                        &[]
                    } else if attempts.is_empty() {
                        silent_windows += 1;
                        bp_counters.window_silent += 1;
                        &[]
                    } else {
                        let out = resolver.resolve(topo, attempts, pcfg.beacon_airtime_slots);
                        // Beacons are produced at each transmitter's start
                        // slot; deliveries happen one airtime later.
                        for &(station, slot) in &out.transmissions {
                            transmit!(station, slot);
                        }
                        // Transmit feedback: a transmission that reached at
                        // least one receiver counts as clean.
                        for d in &out.deliveries {
                            scratch.on_air[scratch.on_air_of[d.tx as usize] as usize].reached =
                                true;
                        }
                        for (beacon, &(station, _)) in scratch.on_air.iter().zip(&out.transmissions)
                        {
                            if beacon.reached {
                                tx_successes += 1;
                                bp_counters.window_success += 1;
                            } else {
                                tx_collisions += 1;
                                bp_counters.window_collision += 1;
                            }
                            let local = oscs[station as usize].local_us(t0);
                            let mut ctx =
                                node_ctx!(proto_rngs, &mut anchors, &pcfg, station, local);
                            nodes[station as usize].on_tx_outcome(&mut ctx, !beacon.reached);
                        }
                        // Deliveries in slot order (relays react next BP;
                        // in-window relay chaining was already decided by
                        // the resolution), to present receivers only.
                        if all_present {
                            &out.deliveries
                        } else {
                            scratch
                                .deliveries
                                .extend(out.deliveries.iter().filter(|d| present[d.rx as usize]));
                            &scratch.deliveries
                        }
                    }
                }
            };

            // --- Deliveries -------------------------------------------
            // Every channel-error draw of the window is taken in one pass
            // (identical stream consumption: jitter and hook randomness
            // live on other streams), then the survivors are processed.
            bp_counters.rx_attempt += deliveries.len() as u64;
            channel.deliver_batch(&mut chan_rng, deliveries.len(), &mut scratch.rx_fates);
            for (d, &fate) in deliveries.iter().zip(scratch.rx_fates.iter()) {
                if fate == Delivery::Lost {
                    bp_counters.rx_lost += 1;
                    continue;
                }
                // Each receiver processes its own copy: a corruption fault
                // at one receiver models that receiver's demodulation
                // errors, not a change to the transmitted frame (whose
                // airtime fixed `t_rx`).
                let OnAir {
                    mut payload, t_rx, ..
                } = scratch.on_air[scratch.on_air_of[d.tx as usize] as usize];
                let dctx = DeliveryCtx {
                    bp: k,
                    src: d.tx,
                    dst: d.rx,
                    t_rx,
                };
                if active && hook.on_delivery(&dctx, &mut payload) == DeliveryFate::Drop {
                    bp_counters.rx_hook_dropped += 1;
                    continue;
                }
                bp_counters.rx_delivered += 1;
                // Receiver-side timestamping noise: each station stamps the
                // arrival with its own hardware path, contributing (with
                // the sender-side jitter) the paper's receiver estimation
                // error ε.
                let rx_jitter = jitter_rng.random_range(0.0..=scenario.timestamp_jitter_us);
                let local_rx = oscs[d.rx as usize].local_us(t_rx) + rx_jitter;
                let rx = &mut nodes[d.rx as usize];
                // Hooks observe the *virtual* clock: the SoA entry is
                // refreshed only at BP end and can be stale mid-window.
                let (clock_before, ref_before, stats_before) = if active {
                    (
                        rx.clock_us(local_rx),
                        rx.current_reference(),
                        rx.sstsp_stats(),
                    )
                } else {
                    (0.0, None, None)
                };
                let mut ctx = node_ctx!(proto_rngs, &mut anchors, &pcfg, d.rx, local_rx);
                rx.on_beacon(
                    &mut ctx,
                    ReceivedBeacon {
                        payload,
                        local_rx_us: local_rx,
                    },
                );
                if active {
                    hook.post_delivery(&DeliveryObs {
                        ctx: dctx,
                        payload: &payload,
                        local_rx_us: local_rx,
                        clock_before_us: clock_before,
                        ref_before,
                        stats_before,
                        stats_after: rx.sstsp_stats(),
                        anchors: &anchors,
                    });
                }
            }

            // --- End of BP --------------------------------------------
            lap!(2);
            let t_end = t0 + bp - SimDuration::from_us(1);
            // Fused sweep: the final callback of the BP, the SoA snapshot,
            // and the spread-metric clock read share one pass (and one
            // oscillator evaluation per node). The snapshot keeps the SoA
            // exact for this BP's metric reads and the next BP's intent
            // scan; any interim mutation — join — refreshes at its own site.
            scratch.clocks.clear();
            for id in 0..scenario.n_nodes {
                let i = id as usize;
                if !present[i] {
                    continue;
                }
                let local = oscs[i].local_us(t_end);
                let mut ctx = node_ctx!(proto_rngs, &mut anchors, &pcfg, id, local);
                nodes[i].on_bp_end(&mut ctx);
                soa.refresh(i, &*nodes[i], &pcfg);
                if honest[i] && mirror!(soa, nodes, is_synchronized, i) {
                    let c = soa
                        .clock_us(i, local)
                        .unwrap_or_else(|| nodes[i].clock_us(local));
                    debug_assert_eq!(
                        c.to_bits(),
                        nodes[i].clock_us(local).to_bits(),
                        "SoA affine clock diverged for node {i}"
                    );
                    scratch.clocks.push(c);
                }
            }

            // --- Metrics ----------------------------------------------
            lap!(3);
            tracker.sample(t_end, &scratch.clocks);
            if telemetry::enabled() {
                if let Some(&spread) = tracker.series().values().last() {
                    spread_hist
                        .get_or_insert_with(|| {
                            Histogram::new(SPREAD_DIST.lo, SPREAD_DIST.hi, SPREAD_DIST.bins)
                        })
                        .record(spread);
                }
            }

            lap!(4);
            let current_ref = (0..scenario.n_nodes)
                .find(|&id| present[id as usize] && mirror!(soa, nodes, is_reference, id as usize));
            if current_ref != last_reference {
                if current_ref.is_some() {
                    reference_changes += 1;
                }
                last_reference = current_ref;
                disturbed = true;
            }
            for &atk in &adversary_ids {
                if attacker_became_reference {
                    break;
                }
                if current_ref == Some(atk) {
                    attacker_became_reference = true;
                    break;
                }
                // An internal adversary acts as a *de facto* reference when
                // the honest stations follow its beacons.
                let followers = (0..scenario.n_nodes as usize)
                    .filter(|&i| {
                        present[i]
                            && honest[i]
                            && mirror!(soa, nodes, current_reference, i) == Some(atk)
                    })
                    .count();
                let honest_present = (0..scenario.n_nodes as usize)
                    .filter(|&i| present[i] && honest[i])
                    .count();
                if honest_present > 0 && followers * 2 > honest_present {
                    attacker_became_reference = true;
                }
            }

            if active {
                snapshots.clear();
                for i in 0..scenario.n_nodes as usize {
                    snapshots.push(NodeSnapshot {
                        id: i as NodeId,
                        present: present[i],
                        honest: honest[i],
                        synchronized: nodes[i].is_synchronized(),
                        is_reference: present[i] && nodes[i].is_reference(),
                        clock_us: nodes[i].clock_us(oscs[i].local_us(t_end)),
                        stats: nodes[i].sstsp_stats(),
                    });
                }
                hook.on_bp_end(&BpView {
                    bp: k,
                    t_end,
                    nodes: &snapshots,
                    reference: current_ref,
                    disturbed,
                });
            }

            lap!(5);
            if k < total_bps {
                sim.schedule_at(t0 + bp, k + 1);
            }
            SimControl::Continue
        });
        if prof {
            let names = ["events", "intent", "window+rx", "bp_end", "metrics", "tail"];
            let per_bp_node = 1e0 / (total_bps as f64 * scenario.n_nodes as f64);
            for (name, ns) in names.iter().zip(prof_ns.iter()) {
                telemetry::log::info("engine.prof", || {
                    format!(
                        "prof {name:>9}: {:8.3} ms  {:6.1} ns/node/bp",
                        *ns as f64 / 1e6,
                        *ns as f64 * per_bp_node
                    )
                });
            }
        }

        // Run-level telemetry flush: the hot loop's counter block, the
        // per-BP spread samples, and simcore's event-loop pressure and RNG
        // consumption all land in the registry here, once per run. Gauges
        // high-water across a sweep; counters and histogram bins sum.
        bp_counters.flush();
        if let Some(h) = &spread_hist {
            telemetry::dist_merge("engine.spread_us", h);
        }
        telemetry::gauge_max("engine.sim.events", sim.events_processed());
        telemetry::gauge_max("engine.queue.peak_pending", sim.peak_pending() as u64);
        telemetry::counter_add_many(&[
            ("engine.rng.chan_draws", chan_rng.draws()),
            ("engine.rng.jitter_draws", jitter_rng.draws()),
        ]);
        // Fold this thread's pending per-event (`LocalCounter`) deltas into
        // its shard: sweep worker threads never call `snapshot()`
        // themselves, so the engine flushes at the end of every run.
        telemetry::flush_local();

        let mut guard_rejections = 0u64;
        let mut mutesla_rejections = 0u64;
        let mut retargets = 0u64;
        let mut alerts = 0u64;
        for (i, node) in nodes.iter().enumerate() {
            if !honest[i] {
                continue;
            }
            if let Some(st) = node.sstsp_stats() {
                guard_rejections += st.guard_rejections;
                mutesla_rejections += st.mutesla_rejections;
                retargets += st.retargets;
                alerts += st.alerts;
            }
        }

        // Per-node end-of-run dump, formerly an `SSTSP_DEBUG_MH`-gated
        // eprintln. Routed through the structured log instead: silent by
        // default, on stderr with `SSTSP_LOG=debug`, capturable in tests.
        {
            let t_dbg = horizon - SimDuration::from_us(1);
            let ref_clock = (0..scenario.n_nodes as usize)
                .find(|&i| present[i] && nodes[i].is_reference())
                .map(|i| nodes[i].clock_us(oscs[i].local_us(t_dbg)));
            for i in 0..scenario.n_nodes as usize {
                telemetry::log::debug("engine.run_end", || {
                    let st = nodes[i].sstsp_stats();
                    let c = nodes[i].clock_us(oscs[i].local_us(t_dbg));
                    format!(
                        "node {i}: present={} sync={} isref={} follows={:?} err_us={:.1} stats={:?}",
                        present[i],
                        nodes[i].is_synchronized(),
                        nodes[i].is_reference(),
                        nodes[i].current_reference(),
                        ref_clock.map_or(f64::NAN, |rc| c - rc),
                        st.map(|s| (s.retargets, s.guard_rejections, s.mutesla_rejections)),
                    )
                });
            }
        }

        // Multi-hop: per-hop error profile against the final reference.
        let hop_profile = match (&topology, last_reference) {
            (Some(topo), Some(r)) if present[r as usize] => {
                let t_end = horizon - SimDuration::from_us(1);
                let ref_clock = nodes[r as usize].clock_us(oscs[r as usize].local_us(t_end));
                let hops = topo.hops_from(r);
                Some(
                    (0..scenario.n_nodes as usize)
                        .filter(|&i| {
                            present[i] && honest[i] && nodes[i].is_synchronized() && i as u32 != r
                        })
                        .map(|i| {
                            let c = nodes[i].clock_us(oscs[i].local_us(t_end));
                            (hops[i], (c - ref_clock).abs())
                        })
                        .collect(),
                )
            }
            _ => None,
        };

        // Mesh: per-domain end-of-run summary (reference identity and
        // intra-domain agreement — the per-domain analogue of the global
        // spread metric, which keeps measuring *cross*-domain agreement).
        let domain_report = domains.as_ref().map(|d| {
            let t_end = horizon - SimDuration::from_us(1);
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
                            let c = nodes[i].clock_us(oscs[i].local_us(t_end));
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
        // The BP handler samples the tracker every BP, and every scenario
        // runs at least one BP, so an empty tracker here is a logic error.
        let peak = tracker
            .peak()
            .expect("spread tracker sampled at least once per run");
        let result = RunResult {
            spread: tracker.into_series(),
            sync_latency_s,
            steady_error_us,
            peak_spread_us: peak,
            tx_successes,
            tx_collisions,
            silent_windows,
            jammed_windows,
            reference_changes,
            final_reference: last_reference,
            attacker_became_reference,
            guard_rejections,
            mutesla_rejections,
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
}
