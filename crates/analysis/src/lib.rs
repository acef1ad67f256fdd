//! # sync-analysis — offset filtering and synchronization metrics
//!
//! SSTSP's coarse synchronization phase collects timestamp offsets from
//! overheard beacons, **eliminates biased offsets** (possibly injected by an
//! attacker), and averages the survivors. The paper points at the filters
//! of Song, Zhu & Cao (MASS 2005): a threshold filter and the GESD
//! multiple-outlier test. The coarse phase uses the first,
//! [`threshold`]'s robust median-distance filter; GESD is not built.
//!
//! [`metrics`] holds the measurement side: maximum pairwise clock spread
//! (the y-axis of every figure in the paper) and the synchronization-latency
//! detector (Table 1's "synchronized ⇔ max difference ≤ 25 µs" criterion).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod metrics;
pub mod threshold;

pub use metrics::{max_pairwise_spread, SpreadTracker, SyncCriterion};
pub use threshold::ThresholdFilter;
