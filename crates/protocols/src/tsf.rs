//! The TSF family: the IEEE 802.11-1999 Timing Synchronization Function
//! (TSF) and the three priority fixes of the paper's Sec. 2, which keep its
//! timer and adoption rule and change only how often a station contends.
//!
//! Under TSF every station competes for beacon transmission every beacon
//! period with a random delay uniform in `[0, w] × aSlotTime`; a station
//! receiving a beacon before its delay timer expires cancels its pending
//! beacon; a station receiving a beacon whose timestamp is *later* than its
//! own TSF timer adopts the timestamp.
//!
//! This is the paper's baseline, and it fails at scale in two documented
//! ways:
//!
//! * **fastest-node asynchronization** — the fastest station wins the
//!   contention only ~1/N of the time, so its clock runs away between wins;
//! * **beacon collision** — with hundreds of stations in a 31-slot window,
//!   most BPs end in collisions and no timing information circulates.
//!
//! The fixes let a station that believes itself fastest contend more often
//! than the rest. Belief is one counter, `quiet`: the consecutive BPs the
//! station's timer went without an update (an update means someone faster
//! exists). Each [`Competition`] rule maps it to a competition period.

use crate::api::{
    BeaconIntent, BeaconPayload, HotState, NodeCtx, ProtocolConfig, ReceivedBeacon, RxVerdict,
    SyncProtocol,
};
use clocks::TsfTimer;
use mac80211::frame::BeaconBody;

/// ATSP: competition interval `I_max` of the non-fastest stations, in BPs.
pub(crate) const I_MAX: u32 = 10;

/// TATSP: competition periods of the three tiers, in BPs.
const TIER_PERIODS: [u32; 3] = [1, 10, 100];

/// TATSP: quiet BPs required for tier 1 (and half of it for tier 2).
pub(crate) const TIER1_QUIET_BPS: u32 = 20;

/// SATSF: ceiling `FFT_max` of the adaptive competition-frequency score.
pub(crate) const FFT_MAX: u32 = 8;

/// How often a TSF-family station contends for beacon transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Competition {
    /// Plain TSF: every BP.
    #[default]
    EveryBp,
    /// ATSP (Lai & Zhou, AINA 2003; the paper's reference \[4\]): every BP
    /// after `I_max` quiet BPs (the station assumes it is fastest), else
    /// once every `I_max` BPs.
    Atsp,
    /// TATSP, tiered ATSP: tier 1 (20 quiet BPs) contends every BP, tier 2
    /// (10) every 10 BPs, tier 3 every 100.
    Tatsp,
    /// SATSF (Zhou & Lai, ICPP 2005; the paper's reference \[10\]): the score
    /// `FFT = min(1 + quiet, FFT_max)` rises by one per quiet BP, and the
    /// station contends every `FFT_max + 1 − FFT` BPs.
    Satsf,
}

impl Competition {
    /// The competition period, in BPs, after `quiet` quiet BPs.
    fn period(self, quiet: u32) -> u32 {
        match self {
            Competition::EveryBp => 1,
            Competition::Atsp if quiet >= I_MAX => 1,
            Competition::Atsp => I_MAX,
            Competition::Tatsp if quiet >= TIER1_QUIET_BPS => TIER_PERIODS[0],
            Competition::Tatsp if quiet >= TIER1_QUIET_BPS / 2 => TIER_PERIODS[1],
            Competition::Tatsp => TIER_PERIODS[2],
            Competition::Satsf => FFT_MAX + 1 - quiet.saturating_add(1).min(FFT_MAX),
        }
    }

    /// `quiet` of a fresh or rejoined station: ATSP and TATSP start out
    /// believing themselves fastest, SATSF at the minimum score.
    fn fresh_quiet(self) -> u32 {
        match self {
            Competition::Atsp | Competition::Tatsp => u32::MAX,
            Competition::EveryBp | Competition::Satsf => 0,
        }
    }
}

/// A station of the TSF family.
#[derive(Debug, Clone, Default)]
pub struct TsfNode {
    timer: TsfTimer,
    seq: u32,
    competition: Competition,
    /// BPs until the station next contends; it contends when this is 0.
    countdown: u32,
    /// Consecutive BPs the timer went without an update.
    quiet: u32,
    /// Whether a beacon updated the timer during the current BP.
    updated: bool,
}

impl TsfNode {
    /// Fresh plain-TSF station.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh station contending by `competition`.
    pub fn with_competition(competition: Competition) -> Self {
        TsfNode {
            competition,
            quiet: competition.fresh_quiet(),
            ..Self::default()
        }
    }

    /// The station's TSF timer (exposed for tests and metrics).
    pub fn timer(&self) -> &TsfTimer {
        &self.timer
    }

    /// The station's current competition period, in BPs.
    pub fn competition_period(&self) -> u32 {
        self.competition.period(self.quiet)
    }

    fn next_intent(&self) -> BeaconIntent {
        if self.countdown == 0 {
            BeaconIntent::Contend
        } else {
            BeaconIntent::Silent
        }
    }
}

impl SyncProtocol for TsfNode {
    fn intent(&mut self, _ctx: &mut NodeCtx<'_>) -> BeaconIntent {
        self.next_intent()
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

    fn on_beacon(&mut self, ctx: &mut NodeCtx<'_>, rx: ReceivedBeacon) -> RxVerdict {
        // §11.1.2.4: adopt the timestamp (adjusted for the receive path
        // delay) iff it is later than the local TSF timer.
        let ts = rx.payload.body().timestamp_us as f64 + ctx.config.t_p_us;
        self.updated |= self.timer.adopt_if_later(ts, rx.local_rx_us);
        RxVerdict::Ignored
    }

    fn on_bp_end(&mut self, _ctx: &mut NodeCtx<'_>) {
        // A station that contended this BP waits out the period it had at
        // the BP's start.
        self.countdown = match self.countdown {
            0 => self.competition_period() - 1,
            c => c - 1,
        };
        self.quiet = if self.updated {
            0
        } else {
            self.quiet.saturating_add(1)
        };
        self.updated = false;
    }

    fn clock_us(&self, local_us: f64) -> f64 {
        self.timer.value_us(local_us)
    }

    fn on_join(&mut self, _ctx: &mut NodeCtx<'_>) {
        self.countdown = 0;
        self.quiet = self.competition.fresh_quiet();
    }

    fn hot_state(&self, _config: &ProtocolConfig) -> HotState {
        HotState {
            // The timer reads `local + offset`, and `1.0 * local` is exact.
            affine_clock: Some((1.0, self.timer.offset_us())),
            synchronized: true,
            is_reference: false,
            current_reference: None,
            static_intent: Some(self.next_intent()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{beacon, TestHarness};

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
        n.on_beacon(&mut h.ctx(1_000.0), beacon(10_000, 1_000.0));
        assert!((n.clock_us(1_000.0) - (10_000.0 + t_p)).abs() < 1e-9);

        // Slower clock: ignore (the fast-beacon attack against TSF exploits
        // exactly this asymmetry: slow forged beacons are never adopted,
        // but they still suppress legitimate contention).
        let before = n.clock_us(2_000.0);
        n.on_beacon(&mut h.ctx(2_000.0), beacon(500, 2_000.0));
        assert_eq!(n.clock_us(2_000.0), before);
    }

    #[test]
    fn clock_is_timer_value() {
        let n = TsfNode::new();
        assert_eq!(n.clock_us(42.5), 42.5);
        assert!(!n.is_reference());
    }
}
