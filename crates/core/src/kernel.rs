//! Large-n kernel: dense node state.
//!
//! Reaching every station through a `Box<dyn SyncProtocol>` is fine at the
//! paper's n = 30, but at n = 1000+ the virtual dispatch and scattered node
//! structs dominate the beacon period. [`NodeSoa`] is how the engine's
//! beacon-period stages avoid that work without changing a single
//! observable bit: a structure-of-arrays mirror of each node's
//! [`HotState`] — adjusted-clock `(k, b)`
//! coefficients, synchronized/reference flags, followed reference, and the
//! statically-known beacon intent, all in dense parallel vectors. The
//! engine refreshes a node's entry after every callback that can mutate
//! its state, then answers the per-BP metric queries (spread sampling,
//! reference lookup, follower counting) and the intent scan with linear
//! passes over these vectors. A station with a static intent skips its
//! `intent()` call; that covers every TSF-family station and, in SSTSP,
//! the reference, silent stations and election contenders whose contention
//! probability has saturated, which are three quarters of the intents of a
//! 5000-station election that never resolves. The `engine.intent.cached`
//! and `engine.intent.called` counters record the split.
//!
//! The mirror is a pure cache: every value it holds must equal what the
//! corresponding trait call would return at the instant of use. Debug
//! builds cross-check every read against that trait call.

use protocols::api::{BeaconIntent, HotState, NodeId, ProtocolConfig, SyncProtocol};

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
