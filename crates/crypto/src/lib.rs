//! # sstsp-crypto — the cryptographic substrate of SSTSP
//!
//! SSTSP (Chen & Leneutre, ICPP 2006) secures synchronization beacons with
//! **µTESLA** (Perrig et al., SPINS 2001): the reference node commits to a
//! one-way hash chain, MACs each beacon with the chain element assigned to
//! the current beacon interval, and discloses that element one interval
//! later so receivers can authenticate the *previous* beacon.
//!
//! Everything here is implemented from scratch (no external crypto crates)
//! because the hash-chain mechanics are part of the paper's contribution
//! surface:
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256, validated against NIST vectors;
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104), validated against RFC 4231;
//! * [`chain`] — one-way hash chains over 128-bit elements (the paper
//!   assumes 128-bit hash values, giving its 92-byte secured beacon);
//! * [`fractal`] — storage-efficient backward chain traversal in the spirit
//!   of Jakobsson's fractal scheme (paper ref. \[6\]): O(log n) pebbles,
//!   O(log n) amortized hashes per disclosed element;
//! * [`mu_tesla`] — the µTESLA key schedule, signer and verifier used by the
//!   SSTSP reference node and receivers.
//!
//! ## Security disclaimer
//!
//! This is a research reproduction. The primitives are correct against their
//! published test vectors but have received no side-channel hardening and no
//! constant-time review; do not reuse them outside the simulator.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chain;
pub mod fractal;
pub mod hmac;
mod memo;
pub mod mu_tesla;
pub mod sha256;

pub use chain::{verify_distance, ChainElement, HashChain, CHAIN_ELEMENT_LEN};
pub use fractal::FractalTraverser;
pub use hmac::{hmac_sha256, Mac128};
pub use mu_tesla::{
    sign_with_chain, BeaconAuth, IntervalSchedule, MuTeslaSigner, MuTeslaVerifier, VerifyError,
};
pub use sha256::{sha256, Sha256};
