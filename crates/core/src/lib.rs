//! # sstsp — the SSTSP reproduction harness
//!
//! This crate ties the substrates together into the system the paper
//! evaluates:
//!
//! * [`scenario`] — declarative scenario configuration (protocol, network
//!   size, churn, reference departures, attacker, seeds) with constructors
//!   matching each of the paper's experiments;
//! * [`engine`] — the network simulation engine: drives every node through
//!   beacon periods on the shared channel (or a mesh), one loop of six
//!   named stages (events, intents, window + delivery, BP end, metrics,
//!   tail), applies churn and attacks, and records the
//!   maximum-clock-difference series;
//! * [`instrument`] — the engine hook surface: fault-injection layers,
//!   invariant checkers and trace recorders attach to runs without
//!   perturbing them;
//! * [`invariants`] — the protocol invariant checker evaluated every beacon
//!   period (clock monotonicity, guard influence bound, µTESLA key
//!   freshness, synced-set spread bound);
//! * [`kernel`] — the large-n kernel: dense structure-of-arrays node
//!   state, a pure cache the engine's stages read (cross-checked in debug
//!   builds);
//! * [`experiments`] — one module per table/figure of the paper, each
//!   producing the exact rows/series the paper reports;
//! * [`sweep`] — rayon-parallel seed and parameter sweeps (deterministic
//!   per seed, parallel across runs);
//! * [`report`] — plain-text rendering of series and tables.
//!
//! ## Quick start
//!
//! ```
//! use sstsp::scenario::{ProtocolKind, ScenarioConfig};
//! use sstsp::engine::Network;
//!
//! // 30 SSTSP stations for 20 seconds of simulated time.
//! let cfg = ScenarioConfig::new(ProtocolKind::Sstsp, 30, 20.0, 42);
//! let result = Network::build(&cfg).run();
//! let spread = result.spread.values();
//! assert!(spread.last().unwrap() < &25.0, "network synchronized");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod experiments;
pub mod instrument;
pub mod invariants;
pub mod kernel;
pub mod report;
pub mod scenario;
pub mod sweep;
pub mod trace;

pub use engine::{Network, RunResult};
pub use instrument::{EngineHook, NoopHook};
pub use invariants::{run_checked, InvariantChecker, Violation};
pub use scenario::{AttackerSpec, ChurnConfig, ProtocolKind, ScenarioConfig};
pub use trace::TraceRecorder;
