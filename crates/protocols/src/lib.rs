//! # protocols — time-synchronization protocols for 802.11 IBSS
//!
//! Every protocol is a per-node state machine implementing [`SyncProtocol`];
//! the network engine (crate `sstsp`) drives all nodes through beacon
//! periods, resolves the contention window on the shared channel, and
//! delivers beacons. Protocols see only what a real station would see:
//! their own local clock, received beacons, and transmit feedback.
//!
//! Implemented protocols:
//!
//! * [`tsf`] — the IEEE 802.11-1999 Timing Synchronization Function (the
//!   paper's baseline) and the priority fixes that keep its timer and
//!   adoption rule, one [`TsfNode`] each with its own [`Competition`] rule:
//!   ATSP (Lai & Zhou 2003: the self-believed fastest station competes
//!   every BP, others every `I_max` BPs), tiered ATSP (three
//!   competition-frequency tiers) and SATSF (Zhou & Lai, ICPP 2005: the
//!   competition frequency adapts gradually);
//! * [`asp`] — single-hop ASP (Sheu, Chao & Sun, ICDCS 2004): faster
//!   stations get priority slots and slower stations self-correct their
//!   rate;
//! * [`rk`] — the Rentel & Kunz controlled-clock mechanism: equal
//!   participation with rate-corrected clocks;
//! * [`sstsp`] — the paper's contribution: reference-node election, µTESLA
//!   beacon authentication, guard-time check, and the continuous
//!   adjusted-clock discipline.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod asp;
pub mod rk;
pub mod sstsp;
#[cfg(test)]
pub(crate) mod testutil;
pub mod tsf;

pub use api::{
    AnchorRegistry, BeaconIntent, BeaconPayload, HotState, NodeCtx, NodeId, ProtocolConfig,
    ReceivedBeacon, RxVerdict, SyncProtocol,
};
pub use asp::AspNode;
pub use rk::RkNode;
pub use sstsp::SstspNode;
pub use tsf::{Competition, TsfNode};

// The unit tests of ATSP, TATSP and SATSF, one module per scheme. Each is a
// `TsfNode` competition rule, checked through its competition period.

#[cfg(test)]
mod atsp {
    mod tests {
        use crate::testutil::{beacon, TestHarness};
        use crate::tsf::{Competition, TsfNode, I_MAX};
        use crate::{BeaconIntent, SyncProtocol};

        fn atsp() -> TsfNode {
            TsfNode::with_competition(Competition::Atsp)
        }

        #[test]
        fn initially_competes_every_bp() {
            let mut n = atsp();
            let mut h = TestHarness::new(1);
            for _ in 0..3 {
                assert_eq!(n.intent(&mut h.ctx(0.0)), BeaconIntent::Contend);
                n.on_bp_end(&mut h.ctx(0.0));
            }
        }

        #[test]
        fn hearing_faster_clock_backs_off() {
            let mut n = atsp();
            let mut h = TestHarness::new(1);
            n.on_beacon(&mut h.ctx(0.0), beacon(1_000_000, 0.0));
            n.on_bp_end(&mut h.ctx(0.0));
            assert_eq!(n.competition_period(), I_MAX);
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
            let mut n = atsp();
            let mut h = TestHarness::new(1);
            n.on_beacon(&mut h.ctx(0.0), beacon(1_000_000, 0.0));
            n.on_bp_end(&mut h.ctx(0.0));
            assert_eq!(n.competition_period(), I_MAX);
            // I_max quiet BPs → believes itself fastest again.
            for _ in 0..I_MAX {
                n.on_bp_end(&mut h.ctx(2_000_000.0));
            }
            assert_eq!(n.competition_period(), 1);
        }

        #[test]
        fn slower_beacons_do_not_back_off() {
            let mut n = atsp();
            let mut h = TestHarness::new(1);
            // Beacon older than local clock: not adopted, no tier change.
            n.on_beacon(&mut h.ctx(5_000_000.0), beacon(100, 5_000_000.0));
            n.on_bp_end(&mut h.ctx(5_000_000.0));
            assert_eq!(n.competition_period(), 1);
        }

        #[test]
        fn rejoin_resets_tier() {
            let mut n = atsp();
            let mut h = TestHarness::new(1);
            n.on_beacon(&mut h.ctx(0.0), beacon(1_000_000, 0.0));
            n.on_bp_end(&mut h.ctx(0.0));
            assert_eq!(n.competition_period(), I_MAX);
            n.on_join(&mut h.ctx(0.0));
            assert_eq!(n.competition_period(), 1);
        }
    }
}

#[cfg(test)]
mod tatsp {
    mod tests {
        use crate::testutil::{beacon, TestHarness};
        use crate::tsf::{Competition, TsfNode, TIER1_QUIET_BPS};
        use crate::{BeaconIntent, SyncProtocol};

        fn tatsp() -> TsfNode {
            TsfNode::with_competition(Competition::Tatsp)
        }

        #[test]
        fn starts_in_tier_one() {
            let n = tatsp();
            assert_eq!(n.competition_period(), 1);
        }

        #[test]
        fn demotes_to_tier_three_on_faster_clock() {
            let mut n = tatsp();
            let mut h = TestHarness::new(1);
            n.on_beacon(&mut h.ctx(0.0), beacon(1_000_000, 0.0));
            n.on_bp_end(&mut h.ctx(0.0));
            assert_eq!(n.competition_period(), 100);
        }

        #[test]
        fn quiet_period_promotes_through_tiers() {
            let mut n = tatsp();
            let mut h = TestHarness::new(1);
            n.on_beacon(&mut h.ctx(0.0), beacon(1_000_000, 0.0));
            n.on_bp_end(&mut h.ctx(0.0));
            assert_eq!(n.competition_period(), 100);
            for _ in 0..(TIER1_QUIET_BPS / 2) {
                n.on_bp_end(&mut h.ctx(2_000_000.0));
            }
            assert_eq!(n.competition_period(), 10);
            for _ in 0..(TIER1_QUIET_BPS / 2) {
                n.on_bp_end(&mut h.ctx(2_000_000.0));
            }
            assert_eq!(n.competition_period(), 1);
        }

        #[test]
        fn tier_three_competes_rarely() {
            let mut n = tatsp();
            let mut h = TestHarness::new(1);
            // Keep demoting with faster beacons so the node stays in tier 3.
            let mut contends = 0;
            let mut ts = 1_000_000u64;
            for _ in 0..200 {
                if n.intent(&mut h.ctx(0.0)) == BeaconIntent::Contend {
                    contends += 1;
                }
                ts += 1_000_000;
                n.on_beacon(&mut h.ctx(0.0), beacon(ts, 0.0));
                n.on_bp_end(&mut h.ctx(0.0));
            }
            // First BP contends (initial tier 1) plus at most a couple of
            // tier-3 competitions in 200 BPs.
            assert!(contends <= 3, "tier-3 station contended {contends} times");
        }
    }
}

#[cfg(test)]
mod satsf {
    mod tests {
        use crate::testutil::{beacon, TestHarness};
        use crate::tsf::{Competition, TsfNode, FFT_MAX};
        use crate::{BeaconIntent, SyncProtocol};

        fn satsf() -> TsfNode {
            TsfNode::with_competition(Competition::Satsf)
        }

        #[test]
        fn quiet_station_ramps_to_max_frequency() {
            let mut n = satsf();
            let mut h = TestHarness::new(1);
            for _ in 0..FFT_MAX + 5 {
                n.on_bp_end(&mut h.ctx(1_000_000.0));
            }
            // At max score the station competes every BP.
            assert_eq!(n.competition_period(), 1);
            let _ = n.intent(&mut h.ctx(1_000_000.0));
            n.on_bp_end(&mut h.ctx(1_000_000.0));
            assert_eq!(n.intent(&mut h.ctx(1_000_000.0)), BeaconIntent::Contend);
        }

        #[test]
        fn hearing_faster_clock_resets_score() {
            let mut n = satsf();
            let mut h = TestHarness::new(1);
            for _ in 0..5 {
                n.on_bp_end(&mut h.ctx(0.0));
            }
            assert!(n.competition_period() < FFT_MAX);
            n.on_beacon(&mut h.ctx(0.0), beacon(1_000_000, 0.0));
            n.on_bp_end(&mut h.ctx(0.0));
            // Score 1: the longest period.
            assert_eq!(n.competition_period(), FFT_MAX);
        }

        #[test]
        fn score_1_competes_every_fft_max_bps() {
            let mut n = satsf();
            let mut h = TestHarness::new(1);
            let mut contends = 0;
            let mut ts = 1_000_000u64;
            for _ in 0..FFT_MAX {
                if n.intent(&mut h.ctx(0.0)) == BeaconIntent::Contend {
                    contends += 1;
                }
                // Keep resetting the score so the period stays maximal.
                ts += 1_000_000;
                n.on_beacon(&mut h.ctx(0.0), beacon(ts, 0.0));
                n.on_bp_end(&mut h.ctx(0.0));
            }
            assert_eq!(contends, 1, "one competition per FFT_max BPs");
        }

        #[test]
        fn gradual_ramp_is_monotone() {
            let mut n = satsf();
            let mut h = TestHarness::new(1);
            let mut last = n.competition_period();
            for _ in 0..FFT_MAX + 2 {
                n.on_bp_end(&mut h.ctx(0.0));
                assert!(n.competition_period() <= last);
                last = n.competition_period();
            }
        }
    }
}
