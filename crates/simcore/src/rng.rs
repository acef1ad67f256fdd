//! Deterministic random-stream derivation.
//!
//! Every logical actor in a simulation (a node's oscillator, a node's MAC
//! backoff, the channel's packet-error coin, ...) gets its *own* RNG stream
//! derived from `(master_seed, domain, index)` through a SplitMix64-style
//! mixer. Streams are therefore independent of the order in which other
//! actors draw randomness — the property that makes parameter sweeps
//! reproducible and comparable across protocol variants (common random
//! numbers: TSF and SSTSP runs with the same seed see the same oscillator
//! drifts and the same channel error coins).

use rand_chacha::rand_core::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Domain separation labels for derived streams.
///
/// Adding a new domain must not renumber existing ones, or archived results
/// stop being reproducible; append only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum StreamDomain {
    /// Oscillator frequency/phase sampling for a node.
    Oscillator = 1,
    /// MAC-layer contention backoff draws for a node.
    MacBackoff = 2,
    /// Channel packet-error coin flips.
    ChannelError = 3,
    /// Protocol-internal randomness (e.g. hash-chain seeds).
    Protocol = 4,
    /// Attacker behaviour randomness.
    Attacker = 5,
    /// Scenario-level randomness (churn selection, topology).
    Scenario = 6,
    /// Per-beacon timestamping jitter below the MAC.
    TimestampJitter = 7,
}

/// Factory for independent deterministic RNG streams.
#[derive(Debug, Clone, Copy)]
pub struct RngStreams {
    master: u64,
}

#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RngStreams {
    /// Create a stream factory from a master seed.
    pub fn new(master: u64) -> Self {
        RngStreams { master }
    }

    /// The master seed this factory was built from.
    pub fn master_seed(&self) -> u64 {
        self.master
    }

    /// Derive the 256-bit seed for `(domain, index)`.
    fn derive_seed(&self, domain: StreamDomain, index: u64) -> [u8; 32] {
        let mut seed = [0u8; 32];
        let mut state = splitmix64(self.master ^ (domain as u64).rotate_left(32) ^ index);
        for chunk in seed.chunks_exact_mut(8) {
            state = splitmix64(state);
            chunk.copy_from_slice(&state.to_le_bytes());
        }
        seed
    }

    /// Build the RNG stream for `(domain, index)`.
    ///
    /// `index` is typically a node id; use 0 for singleton actors like the
    /// channel.
    pub fn stream(&self, domain: StreamDomain, index: u64) -> ChaCha12Rng {
        ChaCha12Rng::from_seed(self.derive_seed(domain, index))
    }
}

/// u64 draws a [`CountingRng`] generates per refill: 256 bytes, four
/// ChaCha blocks, which `ChaCha12Rng::fill_bytes` writes in one kernel call.
const DRAWS_AHEAD: usize = 32;

/// A u64 draw-ahead that counts the draws it serves.
///
/// The engine's channel and jitter streams draw only u64s, one or two per
/// delivery. This wrapper serves them from a buffer of 32 draws that one
/// 256-byte `fill_bytes` of the inner generator refills, so the keystream
/// is made four blocks per call instead of one. Where the inner
/// generator's u64 draws are its bytes in order, as `ChaCha12Rng`'s are
/// from a fresh stream, `next_u64` serves exactly the inner stream's u64s,
/// so wrapping an engine RNG cannot perturb a run. `next_u32` and
/// `fill_bytes` are served from u64 draws too (the low half of one, the
/// bytes of as many as needed), which is *not* the inner stream's
/// `next_u32` or `fill_bytes`. Every call counts as one draw, whatever the
/// buffer generated ahead; the count is a cheap proxy for "how much
/// randomness this actor consumed", useful for spotting draw-pattern drift
/// between runs that should be identical.
#[derive(Debug, Clone)]
pub struct CountingRng<R> {
    inner: R,
    /// Draws generated ahead, as little-endian bytes; the draws from
    /// `next` on are still to be served.
    ahead: [u8; DRAWS_AHEAD * 8],
    next: usize,
    draws: u64,
}

impl<R: RngCore> CountingRng<R> {
    /// Wrap `inner`, starting the draw count at zero.
    pub fn new(inner: R) -> Self {
        CountingRng {
            inner,
            ahead: [0; DRAWS_AHEAD * 8],
            next: DRAWS_AHEAD,
            draws: 0,
        }
    }

    /// Number of RNG calls made through this wrapper so far.
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// The next u64 of the inner stream, uncounted.
    #[inline]
    fn take(&mut self) -> u64 {
        if self.next == DRAWS_AHEAD {
            self.inner.fill_bytes(&mut self.ahead);
            self.next = 0;
        }
        let at = self.next * 8;
        self.next += 1;
        u64::from_le_bytes(self.ahead[at..at + 8].try_into().expect("8 bytes"))
    }
}

impl<R: RngCore> RngCore for CountingRng<R> {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.take() as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.take()
    }

    #[inline]
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.draws += 1;
        for chunk in dest.chunks_mut(8) {
            chunk.copy_from_slice(&self.take().to_le_bytes()[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_inputs_same_stream() {
        let f = RngStreams::new(42);
        let mut ra = f.stream(StreamDomain::Oscillator, 7);
        let mut rb = f.stream(StreamDomain::Oscillator, 7);
        let a: Vec<u64> = (0..8).map(|_| ra.random()).collect();
        let b: Vec<u64> = (0..8).map(|_| rb.random()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_index_different_stream() {
        let f = RngStreams::new(42);
        let a: u64 = f.stream(StreamDomain::Oscillator, 1).random();
        let b: u64 = f.stream(StreamDomain::Oscillator, 2).random();
        assert_ne!(a, b);
    }

    #[test]
    fn different_domain_different_stream() {
        let f = RngStreams::new(42);
        let a: u64 = f.stream(StreamDomain::Oscillator, 1).random();
        let b: u64 = f.stream(StreamDomain::MacBackoff, 1).random();
        assert_ne!(a, b);
    }

    #[test]
    fn different_master_different_stream() {
        let a: u64 = RngStreams::new(1)
            .stream(StreamDomain::Protocol, 0)
            .random();
        let b: u64 = RngStreams::new(2)
            .stream(StreamDomain::Protocol, 0)
            .random();
        assert_ne!(a, b);
    }

    #[test]
    fn splitmix_known_values() {
        // Reference values from the public-domain SplitMix64 implementation
        // (Vigna), seed 0 advanced once, and seed 1 advanced once.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }

    #[test]
    fn counting_rng_is_transparent_and_counts() {
        // u64 draws through the wrapper are the bare stream's, across more
        // than three refills of its draw-ahead, and each counts once.
        let f = RngStreams::new(7);
        let mut plain = f.stream(StreamDomain::ChannelError, 0);
        let mut counted = CountingRng::new(f.stream(StreamDomain::ChannelError, 0));
        assert_eq!(counted.draws(), 0);
        let draws = 3 * DRAWS_AHEAD + 5;
        let a: Vec<u64> = (0..draws).map(|_| plain.next_u64()).collect();
        let b: Vec<u64> = (0..draws).map(|_| counted.next_u64()).collect();
        assert_eq!(a, b, "wrapping must not change the stream");
        assert_eq!(counted.draws(), draws as u64);
        // The engine's draws: f64s from ranges, one u64 each.
        let x: Vec<f64> = (0..40).map(|_| plain.random_range(0.0..=0.5)).collect();
        let y: Vec<f64> = (0..40).map(|_| counted.random_range(0.0..=0.5)).collect();
        assert_eq!(x, y);
        assert_eq!(counted.draws(), draws as u64 + 40);
        // Other calls are served from u64 draws, one draw each.
        let next = plain.next_u64();
        assert_eq!(counted.next_u32(), next as u32);
        let mut buf = [0u8; 12];
        counted.fill_bytes(&mut buf);
        assert_eq!(buf[..8], plain.next_u64().to_le_bytes());
        assert_eq!(buf[8..], plain.next_u64().to_le_bytes()[..4]);
        assert_eq!(counted.draws(), draws as u64 + 42);
        assert_eq!(counted.next_u64(), plain.next_u64());
    }

    #[test]
    fn keystream_words_are_pinned() {
        // Every golden in the workspace sits on these bytes: words 0, 1
        // and 8 (the first word of the second ChaCha12 block) of three
        // derived streams. They must not move whichever ChaCha block
        // function the CPU selects.
        let f = RngStreams::new(2006);
        let cases = [
            (
                StreamDomain::MacBackoff,
                0,
                [
                    0xacf1_b7f6_ec5d_6572,
                    0xe393_832d_89e4_4db2,
                    0x9e16_8b53_65fb_cde6,
                ],
            ),
            (
                StreamDomain::Protocol,
                4999,
                [
                    0xb2db_7c6a_e3b3_3ffd,
                    0x6dc8_1b10_edf2_11a4,
                    0x1872_0621_dca3_d1f0,
                ],
            ),
            (
                StreamDomain::ChannelError,
                0,
                [
                    0x5b9d_42f1_55e7_eec5,
                    0x6803_fde3_fe43_08e0,
                    0x07fb_3ea8_e9be_ebe7,
                ],
            ),
        ];
        for (domain, index, want) in cases {
            let mut rng = f.stream(domain, index);
            let words: Vec<u64> = (0..9).map(|_| rng.next_u64()).collect();
            assert_eq!([words[0], words[1], words[8]], want, "{domain:?} {index}");
        }
    }

    #[test]
    fn stream_draw_order_independence() {
        // Drawing from one stream must not affect another.
        let f = RngStreams::new(99);
        let mut s1 = f.stream(StreamDomain::MacBackoff, 0);
        let _burn: u64 = s1.random();
        let fresh: u64 = f.stream(StreamDomain::MacBackoff, 1).random();
        let independent: u64 = f.stream(StreamDomain::MacBackoff, 1).random();
        assert_eq!(fresh, independent);
    }
}
