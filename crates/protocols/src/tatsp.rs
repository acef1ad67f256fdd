//! TATSP — Tiered ATSP (Lai & Zhou 2003, the improved variant described in
//! the paper's Sec. 2).
//!
//! Stations dynamically classify themselves into three tiers by clock
//! speed: tier 1 (believed fastest) competes for beacon transmission every
//! BP, tier 2 competes once in a while, tier 3 rarely competes. We encode
//! "clock speed belief" exactly as in ATSP — how long since a received
//! beacon updated the local timer — with two thresholds instead of one.

use crate::api::{BeaconIntent, BeaconPayload, NodeCtx, ReceivedBeacon, SyncProtocol};
use clocks::TsfTimer;
use mac80211::frame::BeaconBody;

/// Competition periods of the three tiers, in BPs.
const TIER_PERIODS: [u32; 3] = [1, 10, 100];

/// BPs without a timer update required to be promoted into tier 1
/// (and half of it for tier 2).
const TIER1_QUIET_BPS: u32 = 20;

/// A station running TATSP.
#[derive(Debug, Clone)]
pub struct TatspNode {
    timer: TsfTimer,
    seq: u32,
    /// Tier index 0..=2 (tier 1 = index 0).
    tier: usize,
    countdown: u32,
    bps_since_update: u32,
    updated_this_bp: bool,
}

impl Default for TatspNode {
    fn default() -> Self {
        Self::new()
    }
}

impl TatspNode {
    /// Fresh TATSP station (starts in tier 1, like TSF's everyone-competes).
    pub fn new() -> Self {
        TatspNode {
            timer: TsfTimer::new(),
            seq: 0,
            tier: 0,
            countdown: 0,
            bps_since_update: 0,
            updated_this_bp: false,
        }
    }

    /// Current tier, 1-based as in the paper's description.
    pub fn tier(&self) -> usize {
        self.tier + 1
    }
}

impl SyncProtocol for TatspNode {
    fn intent(&mut self, _ctx: &mut NodeCtx<'_>) -> BeaconIntent {
        if self.countdown == 0 {
            self.countdown = TIER_PERIODS[self.tier];
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
            // Saw a faster clock: demote to the slowest tier.
            self.tier = 2;
            self.bps_since_update = 0;
        } else {
            self.bps_since_update = self.bps_since_update.saturating_add(1);
            if self.bps_since_update >= TIER1_QUIET_BPS {
                self.tier = 0;
            } else if self.bps_since_update >= TIER1_QUIET_BPS / 2 {
                self.tier = self.tier.min(1);
            }
        }
        self.updated_this_bp = false;
        self.countdown = self.countdown.saturating_sub(1);
    }

    fn clock_us(&self, local_us: f64) -> f64 {
        self.timer.value_us(local_us)
    }

    fn on_join(&mut self, _ctx: &mut NodeCtx<'_>) {
        self.tier = 0;
        self.countdown = 0;
        self.bps_since_update = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TestHarness;

    fn fast_beacon(ts: u64) -> ReceivedBeacon {
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
    fn starts_in_tier_one() {
        let n = TatspNode::new();
        assert_eq!(n.tier(), 1);
    }

    #[test]
    fn demotes_to_tier_three_on_faster_clock() {
        let mut n = TatspNode::new();
        let mut h = TestHarness::new(1);
        n.on_beacon(&mut h.ctx(0.0), fast_beacon(1_000_000));
        n.on_bp_end(&mut h.ctx(0.0));
        assert_eq!(n.tier(), 3);
    }

    #[test]
    fn quiet_period_promotes_through_tiers() {
        let mut n = TatspNode::new();
        let mut h = TestHarness::new(1);
        n.on_beacon(&mut h.ctx(0.0), fast_beacon(1_000_000));
        n.on_bp_end(&mut h.ctx(0.0));
        assert_eq!(n.tier(), 3);
        for _ in 0..(TIER1_QUIET_BPS / 2) {
            n.on_bp_end(&mut h.ctx(2_000_000.0));
        }
        assert_eq!(n.tier(), 2);
        for _ in 0..(TIER1_QUIET_BPS / 2) {
            n.on_bp_end(&mut h.ctx(2_000_000.0));
        }
        assert_eq!(n.tier(), 1);
    }

    #[test]
    fn tier_three_competes_rarely() {
        let mut n = TatspNode::new();
        let mut h = TestHarness::new(1);
        // Keep demoting with faster beacons so the node stays in tier 3.
        let mut contends = 0;
        let mut ts = 1_000_000u64;
        for _ in 0..200 {
            if n.intent(&mut h.ctx(0.0)) == BeaconIntent::Contend {
                contends += 1;
            }
            ts += 1_000_000;
            n.on_beacon(&mut h.ctx(0.0), fast_beacon(ts));
            n.on_bp_end(&mut h.ctx(0.0));
        }
        // First BP contends (initial tier 1) plus at most a couple of
        // tier-3 competitions in 200 BPs.
        assert!(contends <= 3, "tier-3 station contended {contends} times");
    }
}
