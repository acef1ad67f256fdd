//! RK — the controlled-clock synchronization mechanism of Rentel & Kunz
//! (Carleton TR SCE-04-08, 2004; the paper's reference \[1\]).
//!
//! Unlike the priority schemes (ATSP/TATSP/SATSF), *all nodes participate
//! equally*. Each node maintains a **controlled clock** — an adjusted copy
//! of its hardware clock with a rate-correction factor
//! `s = controlled/real` — and:
//!
//! * competes for beacon transmission with probability `p` every `T_DELAY`
//!   BPs, but only if no beacon was received within the last `T_DELAY`
//!   BPs (received beacons suppress redundant transmissions);
//! * on receiving a beacon, updates the controlled clock's offset *and*
//!   rate toward the sender: the offset is stepped by a fraction of the
//!   observed difference and `s` is nudged by the difference observed
//!   across successive beacons from the network — so, unlike TSF's
//!   adopt-if-later rule, convergence is symmetric and backward-leap-free
//!   in expectation.
//!
//! This implementation follows the mechanism description in the SSTSP
//! paper's related-work section (the technical report's exact gain
//! schedule is not public); it is the "equal participation" counterpoint
//! to the fastest-node-priority family in the shootout experiments.

use crate::api::{BeaconIntent, BeaconPayload, NodeCtx, ReceivedBeacon, RxVerdict, SyncProtocol};
use mac80211::frame::BeaconBody;
use rand::Rng;

/// Offset gain: fraction of the observed clock difference absorbed per
/// received beacon.
const OFFSET_GAIN: f64 = 0.5;

/// Rate gain: fraction of the estimated relative frequency error absorbed
/// per update.
const RATE_GAIN: f64 = 0.3;

/// Competition window `T_DELAY` in BPs.
const T_DELAY_BPS: u32 = 3;

/// Competition probability `p` when eligible.
const P_COMPETE: f64 = 0.4;

/// A station running the Rentel–Kunz controlled-clock mechanism.
#[derive(Debug, Clone)]
pub struct RkNode {
    /// Rate-correction factor `s`.
    s: f64,
    /// Offset of the controlled clock over the corrected hardware clock, µs.
    offset_us: f64,
    /// Previous observation for rate estimation:
    /// `(sender, local_rx_us, remote_ts_us)`. Rate is only estimated
    /// between successive beacons of the *same* sender — mixing senders
    /// folds their mutual offsets into the frequency estimate and
    /// destabilizes it.
    prev_obs: Option<(u32, f64, f64)>,
    /// BPs since a beacon was last received.
    bps_since_rx: u32,
    seq: u32,
    /// Number of rate updates applied (introspection).
    rate_updates: u64,
}

impl Default for RkNode {
    fn default() -> Self {
        Self::new()
    }
}

impl RkNode {
    /// Fresh station: controlled clock equals the hardware clock.
    pub fn new() -> Self {
        RkNode {
            s: 1.0,
            offset_us: 0.0,
            prev_obs: None,
            bps_since_rx: T_DELAY_BPS, // eligible from the start
            seq: 0,
            rate_updates: 0,
        }
    }

    /// Current rate-correction factor `s`.
    pub fn rate_factor(&self) -> f64 {
        self.s
    }

    fn controlled(&self, local_us: f64) -> f64 {
        self.s * local_us + self.offset_us
    }
}

impl SyncProtocol for RkNode {
    fn intent(&mut self, ctx: &mut NodeCtx<'_>) -> BeaconIntent {
        // Compete with probability p, only when nothing was heard for
        // T_DELAY BPs — equal participation, suppressed by any traffic.
        if self.bps_since_rx >= T_DELAY_BPS && ctx.rng.random_bool(P_COMPETE) {
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
            timestamp_us: self.controlled(ctx.local_us).max(0.0) as u64,
            root: ctx.id,
            hop: 0,
        })
    }

    fn on_beacon(&mut self, ctx: &mut NodeCtx<'_>, rx: ReceivedBeacon) -> RxVerdict {
        self.bps_since_rx = 0;
        let remote = rx.payload.body().timestamp_us as f64 + ctx.config.t_p_us;
        let local_controlled = self.controlled(rx.local_rx_us);

        // Offset discipline: absorb a fraction of the difference
        // (symmetric — can move the controlled clock backward, which this
        // mechanism accepts in exchange for convergence to the average).
        let diff = remote - local_controlled;
        self.offset_us += OFFSET_GAIN * diff;

        // Rate discipline: estimate the relative frequency against the
        // sender across successive observations of the *same* sender and
        // nudge `s`, clamped to the physically plausible band (the paper's
        // oscillators stay within ±100 ppm).
        let src = rx.payload.src();
        if let Some((prev_src, prev_local, prev_remote)) = self.prev_obs {
            if prev_src == src {
                let d_local = rx.local_rx_us - prev_local;
                let d_remote = remote - prev_remote;
                if d_local > 10_000.0 && d_remote > 10_000.0 {
                    let rel = (d_remote / d_local).clamp(0.999, 1.001);
                    self.s = (self.s + RATE_GAIN * (rel - self.s)).clamp(0.999, 1.001);
                    self.rate_updates += 1;
                }
            }
        }
        self.prev_obs = Some((src, rx.local_rx_us, remote));
        RxVerdict::Ignored
    }

    fn on_bp_end(&mut self, _ctx: &mut NodeCtx<'_>) {
        self.bps_since_rx = self.bps_since_rx.saturating_add(1);
    }

    fn clock_us(&self, local_us: f64) -> f64 {
        self.controlled(local_us)
    }

    fn on_join(&mut self, _ctx: &mut NodeCtx<'_>) {
        self.prev_obs = None;
        self.bps_since_rx = T_DELAY_BPS;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{beacon, TestHarness};

    #[test]
    fn eligible_from_start_and_suppressed_by_traffic() {
        let mut n = RkNode::new();
        let mut h = TestHarness::new(1);
        // Eligible initially: over many draws, some contention.
        let mut contended = 0;
        for _ in 0..50 {
            if n.intent(&mut h.ctx(0.0)) == BeaconIntent::Contend {
                contended += 1;
            }
        }
        assert!(contended > 5, "p=0.4 must contend sometimes");
        // A received beacon suppresses competition for T_DELAY BPs.
        n.on_beacon(&mut h.ctx(0.0), beacon(1_000, 0.0));
        for _ in 0..(T_DELAY_BPS - 1) {
            assert_eq!(n.intent(&mut h.ctx(0.0)), BeaconIntent::Silent);
            n.on_bp_end(&mut h.ctx(0.0));
        }
    }

    #[test]
    fn offset_converges_symmetrically() {
        let mut n = RkNode::new();
        let mut h = TestHarness::new(1);
        let t_p = h.config.t_p_us;
        // Remote clock 100 µs *behind* — TSF would ignore it; RK converges.
        for k in 1..=20u64 {
            let local = k as f64 * 100_000.0;
            let remote_ts = (local - 100.0 - t_p) as u64;
            n.on_beacon(&mut h.ctx(local), beacon(remote_ts, local));
        }
        let local = 21.0 * 100_000.0;
        let err = n.clock_us(local) - (local - 100.0);
        assert!(err.abs() < 5.0, "controlled clock error {err} µs");
    }

    #[test]
    fn rate_factor_tracks_relative_frequency() {
        let mut n = RkNode::new();
        let mut h = TestHarness::new(1);
        let t_p = h.config.t_p_us;
        // Sender runs 100 ppm fast relative to our local clock.
        for k in 1..=30u64 {
            let local = k as f64 * 100_000.0;
            let remote = local * 1.0001 - t_p;
            n.on_beacon(&mut h.ctx(local), beacon(remote as u64, local));
        }
        assert!(n.rate_updates > 20);
        assert!(
            (n.rate_factor() - 1.0001).abs() < 3e-5,
            "s = {} should approach 1.0001",
            n.rate_factor()
        );
    }

    #[test]
    fn leave_and_rejoin() {
        let mut n = RkNode::new();
        let mut h = TestHarness::new(1);
        n.on_beacon(&mut h.ctx(0.0), beacon(1_000, 0.0));
        assert!(n.prev_obs.is_some());
        n.on_join(&mut h.ctx(0.0));
        assert!(n.prev_obs.is_none(), "stale rate observations cleared");
        assert_eq!(n.bps_since_rx, T_DELAY_BPS, "eligible to compete again");
    }
}
