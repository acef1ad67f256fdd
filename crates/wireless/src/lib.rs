//! # wireless — single-collision-domain IEEE 802.11 PHY/channel model
//!
//! The paper evaluates SSTSP in an IBSS where **all nodes are within each
//! other's transmission range** — a single collision domain. That licenses
//! the classic abstraction used by the TSF-scalability literature (Lai &
//! Zhou 2003, Zhou & Lai 2005) and by this paper's own simulation:
//!
//! * the beacon generation window is slotted ([`PhyParams::slot_us`] per
//!   slot); each would-be sender picks a slot; the earliest slot wins;
//! * two or more senders in the same earliest slot **collide** and all of
//!   their beacons are destroyed;
//! * a successful beacon reaches each receiver independently subject to a
//!   Bernoulli packet-error rate ([`Channel::per`]);
//! * every delivery experiences the transmission + propagation delay `t_p`,
//!   plus a small timestamping jitter bounded by the paper's ε (< 5 µs);
//! * a jammer can hold the channel, destroying everything in the window.
//!
//! The [`Channel`] type implements exactly this process, deterministically,
//! from an externally supplied RNG stream.
//!
//! The multi-hop extension (the paper's future work) lives in
//! [`topology`] (connectivity graphs) and [`multihop`] (window resolution
//! with local carrier sense, hidden terminals and spatial reuse).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod channel;
pub mod multihop;
pub mod phy;
pub mod topology;

pub use channel::{Channel, Delivery, TxAttempt, WindowOutcome};
pub use multihop::{resolve_multihop, MeshResolver, MhAttempt, MhDelivery, MhOutcome};
pub use phy::{PhyParams, FRAME_OVERHEAD_SSTSP, FRAME_OVERHEAD_TSF};
pub use topology::{DomainDecomposition, DomainOrder, Topology};
