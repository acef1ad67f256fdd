//! The estimator and the failure accounting.
//!
//! Host noise on a shared machine only ever slows a run, so the benchmark
//! times every scenario several times and keeps the fastest repetition
//! ([`best`]); the per-scenario bests are then aggregated across the
//! workload's scenarios (a sum for throughput, a [`median`] for set-up
//! time). Raw medians of the same repetitions drift with the host's load
//! far more than the best does (README, "Why best-of-R").

use std::panic::{catch_unwind, AssertUnwindSafe};

/// The fastest of a scenario's repetitions.
///
/// # Panics
/// Panics on an empty slice: every measured scenario has at least one
/// timed repetition.
pub fn best(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "best of zero repetitions");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of zero samples");
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Scenario executions attempted and failed in one benchmark run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Scenario executions started.
    pub attempted: u64,
    /// Executions that panicked (an invariant violation panics too) or
    /// whose output failed a check.
    pub failed: u64,
}

impl Tally {
    /// Run one scenario execution. A panic is caught and counted as a
    /// failure instead of aborting the benchmark; the result is then
    /// `None`.
    pub fn attempt<T>(&mut self, f: impl FnOnce() -> T) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(value) => Some(value),
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }

    /// Count a completed execution whose output failed a check.
    pub fn reject(&mut self, what: &str) {
        eprintln!("check failed: {what}");
        self.failed += 1;
    }
}
