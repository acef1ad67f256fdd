//! SATSF — Self-Adjusting TSF (Zhou & Lai, ICPP 2005; the paper's
//! reference \[10\]).
//!
//! A TSF-compatible scheme in which station `i` competes for beacon
//! transmission with a frequency governed by an adaptive score `FFT(i)`,
//! adjusted at the end of every BP so that *fast* stations gradually raise
//! their score (compete more often) and stations that hear faster clocks
//! drop back to the minimum. With the score capped at `FFT_max`, the
//! fastest station converges to competing every BP while the bulk of the
//! network competes rarely — recovering ATSP's effect without its binary
//! fast/slow split.
//!
//! Competition period for score `f` is `FFT_max + 1 − f` BPs, so the score
//! is a frequency: `f = FFT_max` → every BP, `f = 1` → every `FFT_max` BPs.

use crate::api::{BeaconIntent, BeaconPayload, NodeCtx, ReceivedBeacon, SyncProtocol};
use clocks::TsfTimer;
use mac80211::frame::BeaconBody;

/// Ceiling `FFT_max` of the adaptive competition-frequency score.
const FFT_MAX: u32 = 8;

/// A station running SATSF.
#[derive(Debug, Clone)]
pub struct SatsfNode {
    timer: TsfTimer,
    seq: u32,
    /// Adaptive competition-frequency score in `1..=FFT_max`.
    fft: u32,
    countdown: u32,
    updated_this_bp: bool,
}

impl Default for SatsfNode {
    fn default() -> Self {
        Self::new()
    }
}

impl SatsfNode {
    /// Fresh SATSF station (starts at the minimum score).
    pub fn new() -> Self {
        SatsfNode {
            timer: TsfTimer::new(),
            seq: 0,
            fft: 1,
            countdown: 0,
            updated_this_bp: false,
        }
    }

    /// Current adaptive score (test introspection).
    pub fn fft(&self) -> u32 {
        self.fft
    }

    fn period(&self) -> u32 {
        FFT_MAX + 1 - self.fft.min(FFT_MAX)
    }
}

impl SyncProtocol for SatsfNode {
    fn intent(&mut self, _ctx: &mut NodeCtx<'_>) -> BeaconIntent {
        if self.countdown == 0 {
            self.countdown = self.period();
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
            // A faster clock exists: fall back to the minimum frequency.
            self.fft = 1;
        } else {
            // No faster clock heard this BP: gradually raise the frequency.
            self.fft = (self.fft + 1).min(FFT_MAX);
        }
        self.updated_this_bp = false;
        self.countdown = self.countdown.saturating_sub(1);
    }

    fn clock_us(&self, local_us: f64) -> f64 {
        self.timer.value_us(local_us)
    }

    fn on_join(&mut self, _ctx: &mut NodeCtx<'_>) {
        self.fft = 1;
        self.countdown = 0;
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
    fn quiet_station_ramps_to_max_frequency() {
        let mut n = SatsfNode::new();
        let mut h = TestHarness::new(1);
        let max = FFT_MAX;
        for _ in 0..max + 5 {
            n.on_bp_end(&mut h.ctx(1_000_000.0));
        }
        assert_eq!(n.fft(), max);
        // At max score the station competes every BP.
        let _ = n.intent(&mut h.ctx(1_000_000.0));
        n.on_bp_end(&mut h.ctx(1_000_000.0));
        assert_eq!(n.intent(&mut h.ctx(1_000_000.0)), BeaconIntent::Contend);
    }

    #[test]
    fn hearing_faster_clock_resets_score() {
        let mut n = SatsfNode::new();
        let mut h = TestHarness::new(1);
        for _ in 0..5 {
            n.on_bp_end(&mut h.ctx(0.0));
        }
        assert!(n.fft() > 1);
        n.on_beacon(&mut h.ctx(0.0), fast_beacon(1_000_000));
        n.on_bp_end(&mut h.ctx(0.0));
        assert_eq!(n.fft(), 1);
    }

    #[test]
    fn score_1_competes_every_fft_max_bps() {
        let mut n = SatsfNode::new();
        let mut h = TestHarness::new(1);
        let max = FFT_MAX;
        let mut contends = 0;
        let mut ts = 1_000_000u64;
        for _ in 0..max {
            if n.intent(&mut h.ctx(0.0)) == BeaconIntent::Contend {
                contends += 1;
            }
            // Keep resetting the score so the period stays maximal.
            ts += 1_000_000;
            n.on_beacon(&mut h.ctx(0.0), fast_beacon(ts));
            n.on_bp_end(&mut h.ctx(0.0));
        }
        assert_eq!(contends, 1, "one competition per FFT_max BPs");
    }

    #[test]
    fn gradual_ramp_is_monotone() {
        let mut n = SatsfNode::new();
        let mut h = TestHarness::new(1);
        let mut last = n.fft();
        for _ in 0..FFT_MAX + 2 {
            n.on_bp_end(&mut h.ctx(0.0));
            assert!(n.fft() >= last);
            last = n.fft();
        }
    }
}
