//! Trace-driven record/replay with divergence detection.
//!
//! `sstsp-sim trace` records a run as a self-contained JSONL file (a
//! `meta` header carrying the schema version and the one-line case spec,
//! then the full [`TraceEvent`] stream). This module is the inverse: it
//! parses such a file into a [`RecordedSchedule`], re-executes the case
//! under a [`ReplayHook`] that drives the engine's MAC contention windows
//! from the *recorded* beacon schedule instead of trusting the live
//! resolver, and cross-checks everything the live model produces — every
//! beacon transmission, µTESLA disclosure verdict, and domain-election
//! event — against the recording. Disagreements surface as structured
//! [`Divergence`] records (BP index, event kind, expected vs. recorded
//! fields) instead of silently drifting.
//!
//! Two detection layers compose:
//!
//! 1. **Window cross-check** (during the run): at every single-hop MAC
//!    window the live outcome is compared against the recorded schedule
//!    *before* the recorded one is substituted. This pins the divergence to
//!    its first observable BP even though the rest of the run then follows
//!    the recording — a checker that only diffed the regenerated stream
//!    would converge onto a mutated recording and miss the mutation.
//! 2. **Stream diff** (after the run): the regenerated event stream is
//!    compared index-wise against the recording; the first mismatch (a
//!    reordered disclosure verdict, a flipped domain-election winner, ...)
//!    becomes a divergence. Mesh runs resolve windows per-link, so they
//!    skip layer 1 and rely wholly on this diff — the engine regenerates
//!    the ground truth deterministically from the case spec.
//!
//! A clean replay is *byte-identical*: same `RunResult`, same telemetry,
//! and [`ReplayReport::to_jsonl`] reproduces the input file exactly.

use std::collections::BTreeMap;
use std::fmt;

use protocols::api::{AnchorRegistry, BeaconPayload, NodeId};
use simcore::SimTime;
use sstsp::engine::{Network, RunResult};
use sstsp::instrument::{
    BpView, DeliveryCtx, DeliveryFate, DeliveryObs, EngineHook, FaultAction, WindowOutcome,
};
use sstsp::invariants::Violation;
use sstsp::scenario::ScenarioConfig;
use sstsp::trace::TraceRecorder;
use sstsp_telemetry::reader::{parse_trace, TraceReadError};
use sstsp_telemetry::trace::{to_jsonl, TraceEncodeError, TraceEvent, TRACE_SCHEMA};

use crate::harness::{FaultHarness, TracedHarness};
use crate::plan::{FuzzCase, SpecError};

/// Why a trace file could not be turned into a replayable schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The JSONL itself failed to parse (malformed line, missing meta
    /// header, or schema-version mismatch).
    Read(TraceReadError),
    /// The meta header's case spec failed to parse.
    BadCase {
        /// The offending spec line.
        case: String,
        /// The parse failure.
        msg: String,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Read(e) => write!(f, "{e}"),
            ReplayError::BadCase { case, msg } => {
                write!(f, "trace meta carries unparsable case `{case}`: {msg}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<TraceReadError> for ReplayError {
    fn from(e: TraceReadError) -> Self {
        ReplayError::Read(e)
    }
}

/// One disagreement between the recorded trace and what the live model
/// produced at the same point.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Beacon period the disagreement belongs to (0 when neither side
    /// carries a BP, e.g. a `run_end` footer mismatch).
    pub bp: u64,
    /// Event kind token (`beacon_tx`, `beacon_rx`, `domain_ref_change`,
    /// ...) of the disagreeing event.
    pub kind: String,
    /// What the live model produced (JSONL-rendered fields).
    pub expected: String,
    /// What the trace recorded (JSONL-rendered fields).
    pub recorded: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BP {} [{}]: expected {}, recorded {}",
            self.bp, self.kind, self.expected, self.recorded
        )
    }
}

/// A recorded trace resolved into everything replay needs: the case to
/// re-run, the event stream to check against, and (single-hop cases) the
/// per-BP beacon schedule that drives the MAC windows.
#[derive(Debug, Clone)]
pub struct RecordedSchedule {
    /// The case the trace was recorded from (parsed out of the meta line).
    pub case: FuzzCase,
    /// The recorded event stream (meta header excluded).
    pub events: Vec<TraceEvent>,
    /// Single-hop runs admit at most one successful transmitter per window;
    /// mesh traces leave this empty (windows resolve per-link there, and
    /// the stream diff alone carries detection).
    tx_by_bp: BTreeMap<u64, NodeId>,
}

impl RecordedSchedule {
    /// Parse a self-contained JSONL trace (as written by `sstsp-sim trace`
    /// or [`to_replayable_jsonl`]) into a replayable schedule. Enforces the
    /// trace schema version.
    pub fn parse(input: &str) -> Result<Self, ReplayError> {
        let trace = parse_trace(input)?;
        let case: FuzzCase = trace
            .case
            .parse()
            .map_err(|SpecError(msg)| ReplayError::BadCase {
                case: trace.case.clone(),
                msg,
            })?;
        let mut tx_by_bp = BTreeMap::new();
        if case.mesh.is_none() {
            for ev in &trace.events {
                if let TraceEvent::BeaconTx { bp, src } = ev {
                    tx_by_bp.insert(*bp, *src);
                }
            }
        }
        Ok(RecordedSchedule {
            case,
            events: trace.events,
            tx_by_bp,
        })
    }

    /// The station the recording says won the beacon window at `bp`
    /// (`None` = the recording shows no successful transmission).
    pub fn recorded_tx(&self, bp: u64) -> Option<NodeId> {
        self.tx_by_bp.get(&bp).copied()
    }
}

/// Everything a replay produces: the regenerated run plus the divergence
/// report, sorted by BP (window cross-checks before stream diffs at the
/// same BP).
pub struct ReplayReport {
    /// The replayed case.
    pub case: FuzzCase,
    /// The regenerated run result (byte-identical to the recorded run's
    /// when the trace is faithful).
    pub result: RunResult,
    /// Invariant violations the re-run's checker observed.
    pub violations: Vec<Violation>,
    /// The regenerated event stream.
    pub events: Vec<TraceEvent>,
    /// Disagreements between recording and live model; empty = faithful.
    pub divergences: Vec<Divergence>,
}

impl ReplayReport {
    /// Whether the recording matched the live model everywhere.
    pub fn is_faithful(&self) -> bool {
        self.divergences.is_empty()
    }

    /// The earliest disagreement, if any.
    pub fn first_divergence(&self) -> Option<&Divergence> {
        self.divergences.first()
    }

    /// Re-encode the regenerated run as a self-contained trace file. For a
    /// faithful replay this reproduces the input byte-for-byte.
    pub fn to_jsonl(&self) -> Result<String, TraceEncodeError> {
        to_replayable_jsonl(&self.case, &self.events)
    }
}

/// Encode a recorded run as a self-contained replayable trace file: the
/// versioned meta header (schema + case spec), then the event stream.
pub fn to_replayable_jsonl(
    case: &FuzzCase,
    events: &[TraceEvent],
) -> Result<String, TraceEncodeError> {
    let meta = TraceEvent::Meta {
        schema: TRACE_SCHEMA,
        case: case.to_string(),
    };
    let mut out = meta.to_jsonl()?;
    out.push('\n');
    out.push_str(&to_jsonl(events)?);
    Ok(out)
}

fn render_event(ev: &TraceEvent) -> String {
    ev.to_jsonl().unwrap_or_else(|_| format!("{ev:?}"))
}

fn render_window(outcome: &WindowOutcome) -> String {
    match outcome {
        WindowOutcome::Silent => "silent window".to_string(),
        WindowOutcome::Jammed { .. } => "jammed window".to_string(),
        WindowOutcome::Collision { colliders, .. } => {
            format!("collision among {colliders:?}")
        }
        WindowOutcome::Success { winner, slot } => {
            format!("success src={winner} slot={slot}")
        }
    }
}

/// The replay hook: the same fault execution + trace recording as a
/// recording run ([`crate::run_case_traced`]), plus the window override
/// seam that substitutes the recorded beacon schedule after cross-checking
/// the live outcome against it.
struct ReplayHook<'a> {
    inner: TracedHarness,
    schedule: &'a RecordedSchedule,
    window_divergences: Vec<Divergence>,
}

impl EngineHook for ReplayHook<'_> {
    fn on_run_start(&mut self, scenario: &ScenarioConfig, anchors: &AnchorRegistry) {
        self.inner.on_run_start(scenario, anchors);
    }

    fn on_bp_start(&mut self, bp: u64, t0: SimTime, actions: &mut Vec<FaultAction>) {
        self.inner.on_bp_start(bp, t0, actions);
    }

    fn on_window(&mut self, bp: u64, live: &WindowOutcome) -> Option<WindowOutcome> {
        let recorded = self.schedule.recorded_tx(bp);
        let live_winner = match live {
            WindowOutcome::Success { winner, .. } => Some(*winner),
            _ => None,
        };
        if live_winner == recorded {
            return None;
        }
        self.window_divergences.push(Divergence {
            bp,
            kind: "beacon_tx".to_string(),
            expected: render_window(live),
            recorded: match recorded {
                Some(src) => format!("success src={src}"),
                None => "no transmission".to_string(),
            },
        });
        // Drive the recorded outcome so the rest of the run follows the
        // trace under inspection. The recording carries no slot, so reuse
        // the live window's slot when it has one — post-divergence
        // continuation is best-effort by definition.
        Some(match recorded {
            Some(src) => WindowOutcome::Success {
                winner: src,
                slot: match live {
                    WindowOutcome::Success { slot, .. } | WindowOutcome::Collision { slot, .. } => {
                        *slot
                    }
                    _ => 0,
                },
            },
            None => WindowOutcome::Silent,
        })
    }

    fn on_beacon_tx(&mut self, bp: u64, src: NodeId, t_tx: SimTime) {
        self.inner.on_beacon_tx(bp, src, t_tx);
    }

    fn on_delivery(&mut self, ctx: &DeliveryCtx, payload: &mut BeaconPayload) -> DeliveryFate {
        self.inner.on_delivery(ctx, payload)
    }

    fn post_delivery(&mut self, obs: &DeliveryObs<'_>) {
        self.inner.post_delivery(obs);
    }

    fn on_bp_end(&mut self, view: &BpView<'_>) {
        self.inner.on_bp_end(view);
    }

    fn on_run_end(&mut self, result: &RunResult) {
        self.inner.on_run_end(result);
    }
}

/// Index-wise diff of the regenerated stream against the recording; the
/// first mismatch becomes a [`Divergence`].
fn diff_streams(expected: &[TraceEvent], recorded: &[TraceEvent]) -> Option<Divergence> {
    let n = expected.len().max(recorded.len());
    for i in 0..n {
        let (e, r) = (expected.get(i), recorded.get(i));
        if e == r {
            continue;
        }
        let probe = r.or(e).expect("at least one stream has an event here");
        return Some(Divergence {
            bp: r
                .and_then(TraceEvent::bp)
                .or(e.and_then(TraceEvent::bp))
                .unwrap_or(0),
            kind: probe.kind_token().to_string(),
            expected: e.map_or_else(|| "end of stream".to_string(), render_event),
            recorded: r.map_or_else(|| "end of stream".to_string(), render_event),
        });
    }
    None
}

/// Re-execute a recorded schedule and cross-check it against the live
/// model. Deterministic: the same trace always yields the same report.
pub fn replay(schedule: &RecordedSchedule) -> ReplayReport {
    let scenario = schedule.case.scenario();
    let mut hook = ReplayHook {
        inner: TracedHarness {
            harness: FaultHarness::new(&schedule.case.plan, &scenario),
            recorder: TraceRecorder::new(),
            violations_seen: 0,
        },
        schedule,
        window_divergences: Vec::new(),
    };
    let result = Network::build(&scenario).run_with_hook(&mut hook);
    let ReplayHook {
        inner,
        window_divergences: mut divergences,
        ..
    } = hook;
    let TracedHarness {
        harness, recorder, ..
    } = inner;
    let events = recorder.into_events();
    if let Some(d) = diff_streams(&events, &schedule.events) {
        divergences.push(d);
    }
    // Stable: window cross-checks stay ahead of the stream diff at the
    // same BP, so `first_divergence` names the earliest observable cause.
    divergences.sort_by_key(|d| d.bp);
    ReplayReport {
        case: schedule.case.clone(),
        result,
        violations: harness.into_violations(),
        events,
        divergences,
    }
}

/// [`RecordedSchedule::parse`] + [`replay`] in one call.
pub fn replay_trace(input: &str) -> Result<ReplayReport, ReplayError> {
    Ok(replay(&RecordedSchedule::parse(input)?))
}
