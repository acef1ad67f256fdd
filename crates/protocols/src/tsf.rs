//! The IEEE 802.11-1999 Timing Synchronization Function (TSF).
//!
//! Every station competes for beacon transmission every beacon period with
//! a random delay uniform in `[0, w] × aSlotTime`; a station receiving a
//! beacon before its delay timer expires cancels its pending beacon; a
//! station receiving a beacon whose timestamp is *later* than its own TSF
//! timer adopts the timestamp.
//!
//! This is the paper's baseline, and it fails at scale in two documented
//! ways (Sec. 2):
//!
//! * **fastest-node asynchronization** — the fastest station wins the
//!   contention only ~1/N of the time, so its clock runs away between wins;
//! * **beacon collision** — with hundreds of stations in a 31-slot window,
//!   most BPs end in collisions and no timing information circulates.

use crate::api::{BeaconIntent, BeaconPayload, NodeCtx, ReceivedBeacon, SyncProtocol};
use clocks::TsfTimer;
use mac80211::frame::BeaconBody;

/// A station running plain TSF.
#[derive(Debug, Clone, Default)]
pub struct TsfNode {
    timer: TsfTimer,
    seq: u32,
}

impl TsfNode {
    /// Fresh TSF station.
    pub fn new() -> Self {
        Self::default()
    }

    /// The station's TSF timer (exposed for tests and metrics).
    pub fn timer(&self) -> &TsfTimer {
        &self.timer
    }
}

impl SyncProtocol for TsfNode {
    fn intent(&mut self, _ctx: &mut NodeCtx<'_>) -> BeaconIntent {
        BeaconIntent::Contend
    }

    fn make_beacon(&mut self, ctx: &mut NodeCtx<'_>) -> BeaconPayload {
        self.seq = self.seq.wrapping_add(1);
        BeaconPayload::Plain(BeaconBody {
            src: ctx.id,
            seq: self.seq,
            timestamp_us: self.timer.read_us(ctx.local_us),
            root: ctx.id,
            hop: 0,
        })
    }

    fn on_beacon(&mut self, ctx: &mut NodeCtx<'_>, rx: ReceivedBeacon) {
        // §11.1.2.4: adopt the timestamp (adjusted for the receive path
        // delay) iff it is later than the local TSF timer.
        let ts = rx.payload.body().timestamp_us as f64 + ctx.config.t_p_us;
        self.timer.adopt_if_later(ts, rx.local_rx_us);
    }

    fn clock_us(&self, local_us: f64) -> f64 {
        self.timer.value_us(local_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TestHarness;

    #[test]
    fn contends_every_bp() {
        let mut n = TsfNode::new();
        let mut h = TestHarness::new(1);
        for _ in 0..5 {
            assert_eq!(n.intent(&mut h.ctx(0.0)), BeaconIntent::Contend);
        }
    }

    #[test]
    fn default_station_contends_every_bp() {
        let mut n = TsfNode::default();
        let mut h = TestHarness::new(1);
        for _ in 0..5 {
            assert_eq!(n.intent(&mut h.ctx(0.0)), BeaconIntent::Contend);
        }
    }

    #[test]
    fn beacon_carries_quantized_timer() {
        let mut n = TsfNode::new();
        let mut h = TestHarness::new(1);
        let b = n.make_beacon(&mut h.ctx(1234.9));
        assert_eq!(b.body().timestamp_us, 1234);
        assert_eq!(b.src(), 1);
    }

    #[test]
    fn adopts_only_later_timestamps() {
        let mut n = TsfNode::new();
        let mut h = TestHarness::new(1);
        let t_p = h.config.t_p_us;

        // Faster clock in a beacon: adopt.
        let body = BeaconBody {
            src: 2,
            seq: 1,
            timestamp_us: 10_000,
            root: 2,
            hop: 0,
        };
        n.on_beacon(
            &mut h.ctx(1_000.0),
            ReceivedBeacon {
                payload: BeaconPayload::Plain(body),
                local_rx_us: 1_000.0,
            },
        );
        assert!((n.clock_us(1_000.0) - (10_000.0 + t_p)).abs() < 1e-9);

        // Slower clock: ignore (the fast-beacon attack against TSF exploits
        // exactly this asymmetry: slow forged beacons are never adopted,
        // but they still suppress legitimate contention).
        let slow = BeaconBody {
            src: 3,
            seq: 1,
            timestamp_us: 500,
            root: 3,
            hop: 0,
        };
        let before = n.clock_us(2_000.0);
        n.on_beacon(
            &mut h.ctx(2_000.0),
            ReceivedBeacon {
                payload: BeaconPayload::Plain(slow),
                local_rx_us: 2_000.0,
            },
        );
        assert_eq!(n.clock_us(2_000.0), before);
    }

    #[test]
    fn clock_is_timer_value() {
        let n = TsfNode::new();
        assert_eq!(n.clock_us(42.5), 42.5);
        assert!(!n.is_reference());
    }
}
