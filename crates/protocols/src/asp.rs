//! ASP — Automatic Self-time-correcting Procedure (Sheu, Chao & Sun,
//! ICDCS 2004; the paper's reference \[9\]), single-hop instantiation.
//!
//! ASP's two tasks per the SSTSP paper's summary: (1) *increase the
//! successful transmission probability of faster nodes* by raising their
//! beacon priority and cutting everyone else's; (2) *spread the faster
//! time* by re-raising the priority of slower nodes once they have
//! accumulated enough information to self-correct. In a single-hop IBSS
//! task (2) reduces to the corrected nodes beaconing on the fast time's
//! behalf.
//!
//! Priority is realized in the contention window itself: a station that
//! believes it is fast (no timer update for a while) draws its slot from
//! the *front* fraction of the window; a station that was just corrected
//! draws from the back; a station that self-corrected (applied a rate fix)
//! returns to the front half. Like ASP — and unlike TSF — stations also
//! apply a *rate* correction estimated from successive received
//! timestamps, which is what "self-time-correcting" refers to.

use crate::api::{BeaconIntent, BeaconPayload, NodeCtx, ReceivedBeacon, RxVerdict, SyncProtocol};
use clocks::TsfTimer;
use mac80211::frame::BeaconBody;
use rand::Rng;

/// BPs without an update after which a station considers itself fast.
const FAST_AFTER_BPS: u32 = 8;

/// Number of observations needed before applying a rate self-correction.
const SELF_CORRECT_OBS: u32 = 4;

/// A station running single-hop ASP.
#[derive(Debug, Clone)]
pub struct AspNode {
    timer: TsfTimer,
    /// Rate correction applied on top of the TSF timer (self-correction).
    rate_fix: f64,
    /// Local time the rate fix pivots around.
    rate_pivot_us: f64,
    prev_obs: Option<(f64, f64)>,
    obs_count: u32,
    bps_since_update: u32,
    self_corrected: bool,
    seq: u32,
}

impl Default for AspNode {
    fn default() -> Self {
        Self::new()
    }
}

impl AspNode {
    /// Fresh ASP station.
    pub fn new() -> Self {
        AspNode {
            timer: TsfTimer::new(),
            rate_fix: 1.0,
            rate_pivot_us: 0.0,
            prev_obs: None,
            obs_count: 0,
            bps_since_update: FAST_AFTER_BPS,
            self_corrected: false,
            seq: 0,
        }
    }

    /// Whether the station currently believes itself fast.
    pub fn believes_fast(&self) -> bool {
        self.bps_since_update >= FAST_AFTER_BPS
    }

    /// Whether a rate self-correction has been applied.
    pub fn is_self_corrected(&self) -> bool {
        self.self_corrected
    }

    fn corrected(&self, local_us: f64) -> f64 {
        // Apply the rate fix around the pivot so the correction is
        // continuous at the instant it was introduced.
        self.timer.value_us(local_us) + (self.rate_fix - 1.0) * (local_us - self.rate_pivot_us)
    }
}

impl SyncProtocol for AspNode {
    fn intent(&mut self, ctx: &mut NodeCtx<'_>) -> BeaconIntent {
        // Priority through slot placement: fast or self-corrected stations
        // draw from the front third of the window; the rest from the back
        // two thirds (and only with reduced frequency, to cut their
        // contention pressure as ASP prescribes).
        let w = ctx.config.w;
        if self.believes_fast() || self.self_corrected {
            // Probabilistic participation keeps the front of the window
            // from collapsing under simultaneous fast-believers at scale.
            if ctx.rng.random_bool(0.5) {
                BeaconIntent::FixedSlot(ctx.rng.random_range(0..=w / 3))
            } else {
                BeaconIntent::Silent
            }
        } else if ctx.rng.random_bool(0.25) {
            BeaconIntent::FixedSlot(ctx.rng.random_range(w / 3 + 1..=w))
        } else {
            BeaconIntent::Silent
        }
    }

    fn make_beacon(&mut self, ctx: &mut NodeCtx<'_>) -> BeaconPayload {
        self.seq = self.seq.wrapping_add(1);
        BeaconPayload::Plain(BeaconBody {
            src: ctx.id,
            seq: self.seq,
            timestamp_us: self.corrected(ctx.local_us).max(0.0) as u64,
            root: ctx.id,
            hop: 0,
        })
    }

    fn on_beacon(&mut self, ctx: &mut NodeCtx<'_>, rx: ReceivedBeacon) -> RxVerdict {
        let ts = rx.payload.body().timestamp_us as f64 + ctx.config.t_p_us;
        let corrected_now = self.corrected(rx.local_rx_us);
        if ts > corrected_now {
            // Forward adoption, like TSF (no backward leaps).
            self.timer.adopt_if_later(
                ts - (self.rate_fix - 1.0) * (rx.local_rx_us - self.rate_pivot_us),
                rx.local_rx_us,
            );
            self.bps_since_update = 0;
            self.self_corrected = false;
        }
        // Rate self-correction from successive faster-clock observations.
        if let Some((pl, pt)) = self.prev_obs {
            let d_local = rx.local_rx_us - pl;
            let d_ts = ts - pt;
            if d_local > 1_000.0 && d_ts > 1_000.0 {
                self.obs_count += 1;
                if self.obs_count >= SELF_CORRECT_OBS {
                    let rel = d_ts / d_local;
                    // Continuity: re-pivot before changing the rate.
                    let base = self.corrected(rx.local_rx_us);
                    self.rate_pivot_us = rx.local_rx_us;
                    self.timer.set_to(base, rx.local_rx_us);
                    self.rate_fix = rel.clamp(0.999, 1.001);
                    self.self_corrected = true;
                    self.obs_count = 0;
                }
            }
        }
        self.prev_obs = Some((rx.local_rx_us, ts));
        RxVerdict::Ignored
    }

    fn on_bp_end(&mut self, _ctx: &mut NodeCtx<'_>) {
        self.bps_since_update = self.bps_since_update.saturating_add(1);
    }

    fn clock_us(&self, local_us: f64) -> f64 {
        self.corrected(local_us)
    }

    fn on_join(&mut self, _ctx: &mut NodeCtx<'_>) {
        self.prev_obs = None;
        self.obs_count = 0;
        self.bps_since_update = FAST_AFTER_BPS;
        self.self_corrected = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{beacon, TestHarness};

    #[test]
    fn fast_station_takes_front_slots() {
        let mut n = AspNode::new();
        let mut h = TestHarness::new(1);
        assert!(n.believes_fast());
        let w = h.config.w;
        let mut transmissions = 0;
        for _ in 0..60 {
            match n.intent(&mut h.ctx(0.0)) {
                BeaconIntent::FixedSlot(s) => {
                    assert!(s <= w / 3, "front-third slot, got {s}");
                    transmissions += 1;
                }
                BeaconIntent::Silent => {} // probabilistic participation
                other => panic!("ASP uses priority slots, got {other:?}"),
            }
        }
        assert!(
            transmissions > 15,
            "fast station competes about half the BPs"
        );
    }

    #[test]
    fn corrected_station_moves_to_back_slots() {
        let mut n = AspNode::new();
        let mut h = TestHarness::new(1);
        n.on_beacon(&mut h.ctx(0.0), beacon(1_000_000, 0.0));
        assert!(!n.believes_fast());
        let w = h.config.w;
        let mut saw_tx = false;
        for _ in 0..100 {
            match n.intent(&mut h.ctx(0.0)) {
                BeaconIntent::FixedSlot(s) => {
                    assert!(s > w / 3, "back-window slot, got {s}");
                    saw_tx = true;
                }
                BeaconIntent::Silent => {}
                other => panic!("ASP uses priority slots, got {other:?}"),
            }
        }
        assert!(saw_tx, "slow stations still compete occasionally");
    }

    #[test]
    fn forward_adoption_only() {
        let mut n = AspNode::new();
        let mut h = TestHarness::new(1);
        n.on_beacon(&mut h.ctx(5_000_000.0), beacon(100, 5_000_000.0));
        assert!((n.clock_us(5_000_000.0) - 5_000_000.0).abs() < 1e-9);
    }

    #[test]
    fn self_correction_tracks_fast_sender_rate() {
        let mut n = AspNode::new();
        let mut h = TestHarness::new(1);
        let t_p = h.config.t_p_us;
        for k in 1..=12u64 {
            let local = k as f64 * 100_000.0;
            let remote = local * 1.0001 - t_p + 50.0; // fast sender, ahead
            n.on_beacon(&mut h.ctx(local), beacon(remote as u64, local));
        }
        assert!(n.is_self_corrected());
        assert!(
            (n.rate_fix - 1.0001).abs() < 5e-5,
            "rate fix {} should approach 1.0001",
            n.rate_fix
        );
        // Self-corrected stations regain front-slot priority (modulo the
        // probabilistic participation draw).
        let w = h.config.w;
        let mut saw_front = false;
        for _ in 0..40 {
            if let BeaconIntent::FixedSlot(s) = n.intent(&mut h.ctx(1_300_000.0)) {
                assert!(s <= w / 3, "self-corrected station got back slot {s}");
                saw_front = true;
            }
        }
        assert!(saw_front);
    }
}
