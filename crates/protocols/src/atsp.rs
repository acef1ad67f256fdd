//! ATSP — Adaptive Timing Synchronization Procedure (Lai & Zhou, AINA
//! 2003; the paper's reference \[4\]).
//!
//! The fix for TSF's fastest-node asynchronization: let the station that
//! believes itself fastest compete for beacon transmission every BP, while
//! everyone else competes only once every `I_max` BPs. Belief is maintained
//! from observed beacons:
//!
//! * a station whose timer is *updated* by a received beacon has seen a
//!   faster clock → it sets its competition interval to `I_max`;
//! * a station that goes `I_max` consecutive BPs without an update assumes
//!   it is the fastest → competition interval 1.
//!
//! ATSP inherits TSF's contention and adoption rules otherwise, so it keeps
//! TSF's "no backward leap" property but still exhibits residual collisions
//! at large N (the paper's motivation for abandoning priority schemes
//! altogether).

use crate::api::{BeaconIntent, BeaconPayload, NodeCtx, ReceivedBeacon, SyncProtocol};
use clocks::TsfTimer;
use mac80211::frame::BeaconBody;

/// Competition interval `I_max` of the non-fastest stations, in BPs.
const I_MAX: u32 = 10;

/// A station running ATSP.
#[derive(Debug, Clone)]
pub struct AtspNode {
    timer: TsfTimer,
    seq: u32,
    /// Current competition interval `I(i)` in BPs: 1 = every BP.
    interval: u32,
    /// BPs until the next competition.
    countdown: u32,
    /// Consecutive BPs without a timer update.
    bps_since_update: u32,
    /// Whether the timer was updated during the current BP.
    updated_this_bp: bool,
}

impl Default for AtspNode {
    fn default() -> Self {
        Self::new()
    }
}

impl AtspNode {
    /// Fresh ATSP station (starts competing every BP, like TSF).
    pub fn new() -> Self {
        AtspNode {
            timer: TsfTimer::new(),
            seq: 0,
            interval: 1,
            countdown: 0,
            bps_since_update: 0,
            updated_this_bp: false,
        }
    }

    /// Current competition interval (test introspection).
    pub fn competition_interval(&self) -> u32 {
        self.interval
    }
}

impl SyncProtocol for AtspNode {
    fn intent(&mut self, _ctx: &mut NodeCtx<'_>) -> BeaconIntent {
        if self.countdown == 0 {
            self.countdown = self.interval;
            BeaconIntent::Contend
        } else {
            BeaconIntent::Silent
        }
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
        let ts = rx.payload.body().timestamp_us as f64 + ctx.config.t_p_us;
        if self.timer.adopt_if_later(ts, rx.local_rx_us) {
            self.updated_this_bp = true;
        }
    }

    fn on_bp_end(&mut self, _ctx: &mut NodeCtx<'_>) {
        if self.updated_this_bp {
            // Someone faster exists: back off to the slow competition tier.
            self.interval = I_MAX;
            self.bps_since_update = 0;
        } else {
            self.bps_since_update = self.bps_since_update.saturating_add(1);
            if self.bps_since_update >= I_MAX {
                // Nothing faster heard for a full cycle: assume fastest.
                self.interval = 1;
            }
        }
        self.updated_this_bp = false;
        self.countdown = self.countdown.saturating_sub(1);
    }

    fn clock_us(&self, local_us: f64) -> f64 {
        self.timer.value_us(local_us)
    }

    fn on_join(&mut self, _ctx: &mut NodeCtx<'_>) {
        self.interval = 1;
        self.countdown = 0;
        self.bps_since_update = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TestHarness;

    fn beacon(ts: u64) -> ReceivedBeacon {
        ReceivedBeacon {
            payload: BeaconPayload::Plain(BeaconBody {
                src: 9,
                seq: 0,
                timestamp_us: ts,
                root: 9,
                hop: 0,
            }),
            local_rx_us: 0.0,
        }
    }

    #[test]
    fn initially_competes_every_bp() {
        let mut n = AtspNode::new();
        let mut h = TestHarness::new(1);
        for _ in 0..3 {
            assert_eq!(n.intent(&mut h.ctx(0.0)), BeaconIntent::Contend);
            n.on_bp_end(&mut h.ctx(0.0));
        }
    }

    #[test]
    fn hearing_faster_clock_backs_off() {
        let mut n = AtspNode::new();
        let mut h = TestHarness::new(1);
        n.on_beacon(&mut h.ctx(0.0), beacon(1_000_000));
        n.on_bp_end(&mut h.ctx(0.0));
        assert_eq!(n.competition_interval(), I_MAX);
        // Now it contends only once per I_max BPs.
        let mut contends = 0;
        for _ in 0..I_MAX {
            if n.intent(&mut h.ctx(2_000_000.0)) == BeaconIntent::Contend {
                contends += 1;
            }
            n.on_bp_end(&mut h.ctx(2_000_000.0));
        }
        assert_eq!(contends, 1);
    }

    #[test]
    fn silence_promotes_back_to_fast_tier() {
        let mut n = AtspNode::new();
        let mut h = TestHarness::new(1);
        n.on_beacon(&mut h.ctx(0.0), beacon(1_000_000));
        n.on_bp_end(&mut h.ctx(0.0));
        assert_eq!(n.competition_interval(), I_MAX);
        // I_max quiet BPs → believes itself fastest again.
        for _ in 0..I_MAX {
            n.on_bp_end(&mut h.ctx(2_000_000.0));
        }
        assert_eq!(n.competition_interval(), 1);
    }

    #[test]
    fn slower_beacons_do_not_back_off() {
        let mut n = AtspNode::new();
        let mut h = TestHarness::new(1);
        // Beacon older than local clock: not adopted, no tier change.
        n.on_beacon(
            &mut h.ctx(5_000_000.0),
            ReceivedBeacon {
                payload: BeaconPayload::Plain(BeaconBody {
                    src: 9,
                    seq: 0,
                    timestamp_us: 100,
                    root: 9,
                    hop: 0,
                }),
                local_rx_us: 5_000_000.0,
            },
        );
        n.on_bp_end(&mut h.ctx(5_000_000.0));
        assert_eq!(n.competition_interval(), 1);
    }

    #[test]
    fn rejoin_resets_tier() {
        let mut n = AtspNode::new();
        let mut h = TestHarness::new(1);
        n.on_beacon(&mut h.ctx(0.0), beacon(1_000_000));
        n.on_bp_end(&mut h.ctx(0.0));
        assert_eq!(n.competition_interval(), I_MAX);
        n.on_join(&mut h.ctx(0.0));
        assert_eq!(n.competition_interval(), 1);
    }
}
