//! Large-n kernel: dense node state and the quiescent-BP timeline.
//!
//! Reaching every station through a `Box<dyn SyncProtocol>` is fine at the
//! paper's n = 30, but at n = 1000+ the virtual dispatch and scattered node
//! structs dominate the beacon period. This module holds the two data
//! structures the engine's beacon-period loop uses to avoid that work
//! without changing a single observable bit:
//!
//! * [`NodeSoa`] — a structure-of-arrays mirror of each node's
//!   [`HotState`](protocols::api::HotState): adjusted-clock `(k, b)`
//!   coefficients, synchronized/reference flags, followed reference, and
//!   the statically-known beacon intent, all in dense parallel vectors.
//!   The engine refreshes a node's entry after every callback that can
//!   mutate its state, then answers the per-BP metric queries (spread
//!   sampling, reference lookup, follower counting) and the intent scan
//!   with linear passes over these vectors. A station with a static
//!   intent skips its `intent()` call; that covers the reference, silent
//!   stations and, in SSTSP, election contenders whose contention
//!   probability has saturated, which are three quarters of the intents
//!   of a 5000-station election that never resolves. The
//!   `engine.intent.cached` and `engine.intent.called` counters record
//!   the split.
//! * [`BpTimeline`] — a precomputed per-BP "anything scheduled?" bitmap
//!   over churn departures, reference departures, jamming windows and
//!   attacker or campaign activity. On a quiescent BP (nothing scheduled,
//!   no rejoin due, no hook fault action, no fault-layer jam) the engine
//!   skips the scenario-event scans entirely.
//!
//! Both structures are pure caches: every value they hold must equal what
//! the corresponding trait call would return at the instant of use. Debug
//! builds cross-check every read against that trait call.

use protocols::api::{BeaconIntent, HotState, NodeId, ProtocolConfig, SyncProtocol};
use simcore::{SimDuration, SimTime};

/// Structure-of-arrays mirror of the per-node [`HotState`] snapshots.
#[derive(Debug)]
pub struct NodeSoa {
    /// Adjusted-clock rate `k` per node (valid when `affine[i]`).
    k: Vec<f64>,
    /// Adjusted-clock offset `b` per node (valid when `affine[i]`).
    b: Vec<f64>,
    /// Whether the node's clock is affine in local time.
    affine: Vec<bool>,
    /// Mirror of `is_synchronized()`.
    synchronized: Vec<bool>,
    /// Mirror of `is_reference()`.
    is_reference: Vec<bool>,
    /// Mirror of `current_reference()`.
    current_reference: Vec<Option<NodeId>>,
    /// The intent `intent()` would return this BP without consuming an RNG
    /// draw, when the protocol can predict it.
    static_intent: Vec<Option<BeaconIntent>>,
}

impl NodeSoa {
    /// Dense storage for `n` nodes, initially all-conservative (no affine
    /// clock, no static intent) until the first refresh.
    pub fn new(n: usize) -> Self {
        NodeSoa {
            k: vec![0.0; n],
            b: vec![0.0; n],
            affine: vec![false; n],
            synchronized: vec![false; n],
            is_reference: vec![false; n],
            current_reference: vec![None; n],
            static_intent: vec![None; n],
        }
    }

    /// Re-snapshot node `i` from its protocol state machine. Must be called
    /// after every callback that can change the node's observable state.
    #[inline]
    pub fn refresh(&mut self, i: usize, node: &dyn SyncProtocol, config: &ProtocolConfig) {
        let HotState {
            affine_clock,
            synchronized,
            is_reference,
            current_reference,
            static_intent,
        } = node.hot_state(config);
        match affine_clock {
            Some((k, b)) => {
                self.k[i] = k;
                self.b[i] = b;
                self.affine[i] = true;
            }
            None => self.affine[i] = false,
        }
        self.synchronized[i] = synchronized;
        self.is_reference[i] = is_reference;
        self.current_reference[i] = current_reference;
        self.static_intent[i] = static_intent;
    }

    /// The node's synchronized clock at `local_us`, when its clock is
    /// affine: exactly `k * local_us + b`, the same single multiply-add
    /// `AdjustedClock::value` performs, so the result is bit-identical to
    /// the virtual `clock_us` call.
    #[inline]
    pub fn clock_us(&self, i: usize, local_us: f64) -> Option<f64> {
        if self.affine[i] {
            Some(self.k[i] * local_us + self.b[i])
        } else {
            None
        }
    }

    /// Mirror of `is_synchronized()`.
    #[inline]
    pub fn is_synchronized(&self, i: usize) -> bool {
        self.synchronized[i]
    }

    /// Mirror of `is_reference()`.
    #[inline]
    pub fn is_reference(&self, i: usize) -> bool {
        self.is_reference[i]
    }

    /// Mirror of `current_reference()`.
    #[inline]
    pub fn current_reference(&self, i: usize) -> Option<NodeId> {
        self.current_reference[i]
    }

    /// The statically-known intent for this BP, if the protocol predicted
    /// one (see [`HotState::static_intent`] for the correctness contract).
    #[inline]
    pub fn static_intent(&self, i: usize) -> Option<BeaconIntent> {
        self.static_intent[i]
    }
}

/// Precomputed per-BP scenario-event map: which beacon periods have *any*
/// scheduled disturbance (churn departure, reference departure, jamming
/// window, attacker or campaign activity).
///
/// Jam and attack windows are specified in seconds and the engine compares
/// them against the BP start time, so the builder replicates the engine's
/// exact time accumulation (`t += bp` from zero) and float comparisons —
/// the bitmap answers precisely the same predicate the per-BP scans would.
#[derive(Debug)]
pub struct BpTimeline {
    interesting: Vec<bool>,
}

impl BpTimeline {
    /// Build the map for BPs `1..=total_bps`.
    ///
    /// `windows_s` holds `(start_s, end_s)` pairs for every jamming window
    /// and attacker activity window; a BP whose start time `t` satisfies
    /// `start_s <= t < end_s` for any pair is interesting, as are the BPs
    /// in `churn_bps` / `ref_leave_bps`.
    pub fn build(
        total_bps: u64,
        bp: SimDuration,
        churn_bps: &[u64],
        ref_leave_bps: &[u64],
        windows_s: &[(f64, f64)],
    ) -> Self {
        let mut interesting = vec![false; (total_bps + 1) as usize];
        for &k in churn_bps.iter().chain(ref_leave_bps) {
            if let Some(slot) = interesting.get_mut(k as usize) {
                *slot = true;
            }
        }
        // Same accumulation as the simulator's event chain: BP k starts at
        // ZERO + k·bp reached by repeated addition.
        let mut t = SimTime::ZERO;
        for k in 1..=total_bps {
            t += bp;
            let t_secs = t.as_secs_f64();
            if windows_s.iter().any(|&(s, e)| t_secs >= s && t_secs < e) {
                interesting[k as usize] = true;
            }
        }
        BpTimeline { interesting }
    }

    /// Whether BP `k` has any scheduled scenario event. Out-of-range
    /// indices (defensive) count as interesting.
    #[inline]
    pub fn interesting(&self, k: u64) -> bool {
        self.interesting.get(k as usize).copied().unwrap_or(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_marks_scheduled_events() {
        let bp = SimDuration::from_us_f64(100_000.0);
        let tl = BpTimeline::build(100, bp, &[10, 20], &[30], &[(5.0, 5.3)]);
        assert!(tl.interesting(10));
        assert!(tl.interesting(20));
        assert!(tl.interesting(30));
        // 5.0 s at 0.1 s BPs is BP 50; the window [5.0, 5.3) covers BP
        // starts 5.0, 5.1, 5.2.
        assert!(!tl.interesting(49));
        assert!(tl.interesting(50));
        assert!(tl.interesting(51));
        assert!(tl.interesting(52));
        assert!(!tl.interesting(53));
        assert!(!tl.interesting(1));
        // Out of range is conservatively interesting.
        assert!(tl.interesting(101));
    }

    #[test]
    fn timeline_empty_scenario_is_all_quiet() {
        let bp = SimDuration::from_us_f64(100_000.0);
        let tl = BpTimeline::build(50, bp, &[], &[], &[]);
        assert!((1..=50).all(|k| !tl.interesting(k)));
    }
}
