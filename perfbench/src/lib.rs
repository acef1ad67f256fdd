//! # sstsp-perfbench — the repository benchmark
//!
//! Five fixed-seed workloads drive the simulator through its public API
//! only (`Network::build`/`run`, the `experiments` modules, and the crypto,
//! wireless, mac, clocks, simcore, analysis and telemetry entry points).
//!
//! * [`plain`] — the plain run: end-to-end metrics, best-of-R per
//!   scenario over seed-major interleaved repetitions;
//! * [`ledger`] — the traced run: the per-layer ledger (engine stage
//!   split, counters, kernel timings) inside recorded [`spans`];
//! * [`digest`] and [`estimate`] — output checks and failure accounting;
//! * [`alloc`] — the counting allocator behind `peak_heap_mb`;
//! * [`report`] — metric declarations and the result line.
//!
//! `src/main.rs` is the command line; README.md explains the workloads,
//! the estimator and how to read the ledger.

pub mod alloc;
pub mod digest;
pub mod estimate;
pub mod ledger;
pub mod plain;
pub mod report;
pub mod spans;
pub mod workload;
