//! Engine instrumentation: the hook surface the fault-injection,
//! invariant-checking and trace-recording layers attach to.
//!
//! The engine itself stays policy-free: it exposes *where* faults can act
//! (BP starts, individual beacon deliveries) and *what* can be observed
//! (transmissions, each receiver's verdict on each delivery, per-BP node
//! snapshots), while the `faults` crate supplies the schedules and the
//! [`crate::invariants`] module the checks. Each callback comes from one of
//! the engine's per-BP stages (see [`EngineHook`]). A [`NoopHook`] run is
//! bit-identical to an uninstrumented one: hooks receive copies and
//! verdicts, never mutable engine internals, and every fault-layer random
//! decision comes from the hook's own RNG stream — the engine's streams
//! are never touched.

use crate::scenario::ScenarioConfig;
use protocols::api::{AnchorRegistry, BeaconPayload, NodeId, RxVerdict};
use simcore::SimTime;

/// A state change the engine applies on behalf of a fault plan at the start
/// of a beacon period. Actions are the only way a hook mutates the network;
/// they model physical faults (crashed hardware, glitched oscillators,
/// interference), not protocol-level behavior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Crash a station: it leaves the network immediately and, if
    /// `rejoin_after_bps` is set, reboots and rejoins that many BPs later
    /// (through the protocol's normal join path).
    Crash {
        /// Station to crash.
        node: NodeId,
        /// BPs until reboot; `None` = permanent.
        rejoin_after_bps: Option<u64>,
    },
    /// Crash whichever station currently holds the reference role (no-op
    /// if none does).
    KillReference {
        /// BPs until reboot; `None` = permanent.
        rejoin_after_bps: Option<u64>,
    },
    /// Step a station's hardware clock by `delta_us` (register glitch,
    /// brown-out losing ticks).
    ClockStep {
        /// Affected station.
        node: NodeId,
        /// Signed step in microseconds.
        delta_us: f64,
    },
    /// Freeze a station's hardware clock at its current reading.
    ClockFreeze {
        /// Affected station.
        node: NodeId,
    },
    /// Release a previous freeze; the clock resumes from the frozen value.
    ClockUnfreeze {
        /// Affected station.
        node: NodeId,
    },
    /// Crash every non-gateway member of one collision domain (mesh
    /// scenarios with a domain decomposition only; no-op otherwise). The
    /// domain index wraps modulo the domain count so fuzz plans stay valid
    /// across shrinking.
    CrashDomain {
        /// Collision-domain index (wrapped modulo the domain count).
        domain: u32,
        /// BPs until the members reboot; `None` = permanent.
        rejoin_after_bps: Option<u64>,
    },
    /// Crash one gateway (bridge) station of a mesh decomposition (no-op
    /// without one). The bridge index wraps modulo the bridge count.
    KillBridge {
        /// Bridge index (wrapped modulo the bridge count).
        bridge: u32,
        /// BPs until the gateway reboots; `None` = permanent.
        rejoin_after_bps: Option<u64>,
    },
    /// Set the channel's burst-loss probability (0 clears it).
    SetBurstLoss(f64),
    /// Engage (`true`) or release (`false`) fault-layer jamming, OR-ed with
    /// the scenario's own jam windows.
    SetJammed(bool),
}

/// What a hook decides about one beacon delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryFate {
    /// Deliver the (possibly mutated) payload to the receiver.
    Deliver,
    /// Drop the beacon at this receiver (targeted loss).
    Drop,
}

/// Identifies one beacon delivery before it reaches the receiver.
#[derive(Debug, Clone, Copy)]
pub struct DeliveryCtx {
    /// Beacon period index (1-based).
    pub bp: u64,
    /// Transmitting station.
    pub src: NodeId,
    /// Receiving station.
    pub dst: NodeId,
    /// Simulated reception instant.
    pub t_rx: SimTime,
}

/// Everything observable about one completed beacon delivery: the payload
/// as received (after any hook mutation), the receiver's state immediately
/// before the protocol processed it, and the verdict the receiver returned
/// from [`SyncProtocol::on_beacon`](protocols::api::SyncProtocol::on_beacon).
/// The engine copies no protocol counters for it; debug builds audit each
/// verdict against the receiver's SSTSP counters instead.
pub struct DeliveryObs<'a> {
    /// Delivery identification (same values the pre-hook saw).
    pub ctx: DeliveryCtx,
    /// The payload the receiver processed.
    pub payload: &'a BeaconPayload,
    /// Receiver's local (hardware) timestamp of the reception.
    pub local_rx_us: f64,
    /// Receiver's adjusted clock evaluated at the reception instant,
    /// *before* processing — the exact value protocol checks ran against.
    pub clock_before_us: f64,
    /// Receiver's upstream reference before processing.
    pub ref_before: Option<NodeId>,
    /// What the receiver did with the beacon ([`RxVerdict::Ignored`] for
    /// protocols without security checks).
    pub verdict: RxVerdict,
    /// The published µTESLA anchor registry (first-write-wins, so entries
    /// are exactly what honest verifiers saw).
    pub anchors: &'a AnchorRegistry,
}

/// Per-station snapshot taken at the end of each beacon period. It carries
/// no protocol counters: a hook that needs to know of a sanctioned clock
/// step learns it from the delivery verdicts (see
/// [`crate::invariants`]).
#[derive(Debug, Clone, Copy)]
pub struct NodeSnapshot {
    /// Station id.
    pub id: NodeId,
    /// Present in the network (not churned out / crashed).
    pub present: bool,
    /// Honest (not the scenario's attacker).
    pub honest: bool,
    /// Protocol-reported synchronization state.
    pub synchronized: bool,
    /// Whether the station holds the reference role (always `false` for an
    /// absent station).
    pub is_reference: bool,
    /// Adjusted clock at the BP-end sampling instant (µs).
    pub clock_us: f64,
}

/// End-of-BP view handed to hooks after metrics sampling.
pub struct BpView<'a> {
    /// Beacon period index (1-based).
    pub bp: u64,
    /// The BP-end sampling instant.
    pub t_end: SimTime,
    /// One snapshot per station (indexed by id).
    pub nodes: &'a [NodeSnapshot],
    /// Station holding the reference role, if any.
    pub reference: Option<NodeId>,
    /// Whether the engine disturbed the network this BP (churn, reference
    /// departure, jamming, a reference change, an active attacker window,
    /// or any fault action) — convergence-style invariants suspend
    /// themselves for a settle window after disturbances.
    pub disturbed: bool,
}

/// Observer/actor attached to a [`crate::engine::Network`] run.
///
/// All methods have no-op defaults; implementors override what they need.
/// The engine calls them in a fixed order per BP, from its stages:
/// `on_bp_start` (events: collect fault actions) → `on_beacon_tx` per
/// transmission and `on_delivery`/`post_delivery` per beacon delivery
/// (window + delivery) → `on_bp_end` (tail, after metrics).
///
/// An active hook costs the run what it receives: per delivery the
/// receiver's clock and reference before processing plus its verdict, and
/// per BP one [`NodeSnapshot`] per station, assembled from the engine's
/// dense node mirror. A hook that overrides nothing but stays active pays
/// that assembly without using it.
pub trait EngineHook {
    /// Whether the hook wants the per-event callbacks. When `false` the
    /// engine calls only `on_run_start` and `on_run_end`, keeping the
    /// uninstrumented hot path free of snapshot assembly and virtual calls.
    fn active(&self) -> bool {
        true
    }

    /// Called once after node initiation (anchors published), before BP 1.
    fn on_run_start(&mut self, _scenario: &ScenarioConfig, _anchors: &AnchorRegistry) {}

    /// Called at the start of each BP; push [`FaultAction`]s into `actions`
    /// to mutate the network. Applied in order, before the beacon window.
    fn on_bp_start(&mut self, _bp: u64, _actions: &mut Vec<FaultAction>) {}

    /// Called once per transmitted beacon (after the contention window
    /// resolves, before per-receiver deliveries). Trace recorders use this
    /// to log the send side; deliveries are observed per-receiver.
    fn on_beacon_tx(&mut self, _bp: u64, _src: NodeId) {}

    /// Called for each beacon delivery before the receiver processes it.
    /// The hook may mutate the payload (corruption faults) or drop it.
    fn on_delivery(&mut self, _ctx: &DeliveryCtx, _payload: &mut BeaconPayload) -> DeliveryFate {
        DeliveryFate::Deliver
    }

    /// Called after the receiver processed a delivered beacon.
    fn post_delivery(&mut self, _obs: &DeliveryObs<'_>) {}

    /// Called at the end of each BP with per-station snapshots.
    fn on_bp_end(&mut self, _view: &BpView<'_>) {}

    /// Called once after the run loop with the aggregated result.
    fn on_run_end(&mut self, _result: &crate::engine::RunResult) {}
}

/// The do-nothing hook driving uninstrumented runs.
pub struct NoopHook;

impl EngineHook for NoopHook {
    fn active(&self) -> bool {
        false
    }
}
