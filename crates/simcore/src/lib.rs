//! # simcore — deterministic discrete-event simulation engine
//!
//! This crate provides the substrate every simulation in this workspace runs
//! on:
//!
//! * [`SimTime`] / [`SimDuration`] — integer picosecond simulated time, so
//!   event ordering never depends on floating-point rounding;
//! * [`EventQueue`] — a stable priority queue (ties broken by insertion
//!   order) generic over the event payload;
//! * [`Simulator`] — a run loop with handler dispatch, stop conditions and a
//!   wall-clock-free notion of "now";
//! * [`RngStreams`] — counter-based derivation of independent, reproducible
//!   random streams from a single `u64` master seed;
//! * [`stats`] and [`series`] — histograms and time-series recording used
//!   by the experiment harness.
//!
//! The engine is intentionally protocol-agnostic: the IEEE 802.11 beacon
//! machinery lives in the `mac80211` crate and the synchronization protocols
//! in `protocols`; both only interact with this crate through events and
//! time.
//!
//! ## Determinism contract
//!
//! A simulation is a pure function of its master seed. Two rules make this
//! hold:
//!
//! 1. all randomness must come from [`RngStreams`] (derived per logical
//!    actor, never shared across actors), and
//! 2. events scheduled at the same [`SimTime`] are delivered in the order
//!    they were scheduled (FIFO), which [`EventQueue`] guarantees via a
//!    monotone sequence number.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod rng;
pub mod series;
pub mod sim;
pub mod stats;
pub mod time;

pub use event::{EventQueue, ScheduledEvent};
pub use rng::{CountingRng, RngStreams};
pub use series::TimeSeries;
pub use sim::{SimControl, Simulator};
pub use stats::{Histogram, QuantileEstimate};
pub use time::{SimDuration, SimTime};
