//! Shared test fixtures for protocol unit tests (compiled only for tests).

use crate::api::{AnchorRegistry, BeaconPayload, NodeCtx, NodeId, ProtocolConfig, ReceivedBeacon};
use mac80211::frame::BeaconBody;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Persistent per-test environment: one RNG stream, one anchor registry and
/// one config shared across callbacks, as the engine would provide.
pub struct TestHarness {
    pub id: NodeId,
    pub rng: ChaCha12Rng,
    pub anchors: AnchorRegistry,
    pub config: ProtocolConfig,
}

impl TestHarness {
    pub fn new(id: NodeId) -> Self {
        TestHarness {
            id,
            rng: ChaCha12Rng::seed_from_u64(1000 + id as u64),
            anchors: AnchorRegistry::new(),
            config: ProtocolConfig::paper(),
        }
    }

    /// Build a context at the given local time.
    pub fn ctx(&mut self, local_us: f64) -> NodeCtx<'_> {
        NodeCtx {
            id: self.id,
            local_us,
            rng: &mut self.rng,
            anchors: &mut self.anchors,
            config: &self.config,
        }
    }
}

/// A plain beacon from station 9 stamped `ts`, received at local time
/// `local_rx_us`.
pub fn beacon(ts: u64, local_rx_us: f64) -> ReceivedBeacon {
    ReceivedBeacon {
        payload: BeaconPayload::Plain(BeaconBody {
            src: 9,
            seq: 0,
            timestamp_us: ts,
            root: 9,
            hop: 0,
        }),
        local_rx_us,
    }
}
