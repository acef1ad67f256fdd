//! # sstsp-faults — deterministic fault injection and scenario fuzzing
//!
//! The paper argues SSTSP stays correct under loss, corruption, churn and
//! attack; this crate *adversarially exercises* that claim against the
//! reproduction:
//!
//! * [`plan`] — composable, sim-time-scheduled fault plans (burst loss,
//!   beacon bit-flips and truncation, node crash + rejoin, reference kill,
//!   clock step/freeze glitches, µTESLA disclosure loss, chain exhaustion)
//!   with a one-line replayable case spec;
//! * [`harness`] — the [`sstsp::instrument::EngineHook`] that executes a
//!   plan against a run while feeding every observation to the protocol
//!   invariant checker ([`sstsp::invariants`]);
//! * [`replay`](mod@replay) — trace-driven record/replay: re-executes the case of a
//!   recorded JSONL trace and diffs the live model's event stream against
//!   the recording, reporting the first divergence (BP index, event kind,
//!   expected vs. recorded) for every topology;
//! * [`shrink`](mod@shrink) — greedy deterministic minimization of failing cases;
//! * [`fuzz`](mod@fuzz) — seeded random fault plans swept across N / m / δ, with
//!   automatic shrinking of any violation to a minimal reproducer;
//! * [`matrix`] — one representative plan per fault class (the
//!   EXPERIMENTS.md fault matrix and the CI smoke run).
//!
//! Everything is a pure function of seeds: a reported reproducer replays
//! bit-identically from its printed spec, on any machine.
//!
//! The `mutation-hooks` feature additionally compiles the planted protocol
//! bugs in `sstsp-crypto` so the `planted_bug` integration test can verify
//! the checker and fuzzer actually detect real acceptance bugs — a
//! mutation-style sanity check on the checking machinery itself.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fuzz;
pub mod harness;
pub mod matrix;
pub mod plan;
pub mod replay;
pub mod shrink;

pub use fuzz::{fuzz, FuzzConfig, FuzzFailure, FuzzReport};
pub use harness::{run_case, run_case_traced, CaseOutcome, FaultHarness, TracedOutcome};
pub use plan::{CorruptField, FaultEvent, FaultKind, FaultPlan, FuzzCase};
pub use replay::{
    replay, replay_trace, to_replayable_jsonl, Divergence, RecordedSchedule, ReplayError,
    ReplayReport,
};
pub use shrink::shrink;
