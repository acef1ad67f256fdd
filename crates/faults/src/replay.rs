//! Trace-driven record/replay with divergence detection.
//!
//! `sstsp-sim trace` records a run as a self-contained JSONL file (a
//! `meta` header carrying the schema version and the one-line case spec,
//! then the full [`TraceEvent`] stream). This module is the inverse: it
//! parses such a file into a [`RecordedSchedule`], re-executes the case
//! exactly as the recording run did ([`run_case_traced`]: the engine
//! regenerates the ground truth deterministically from the case spec), and
//! diffs the regenerated stream against the recording event by event, the
//! same way for every topology. The first mismatch — a dropped or inserted
//! beacon, a flipped winner, a reordered disclosure verdict, a flipped
//! domain-election winner — becomes a structured [`Divergence`] (BP index,
//! event kind, expected vs. recorded fields) instead of silently drifting.
//! It is named by the live model's event kind, or by the recording's past
//! the end of the live stream. Only the first is reported: past it, the
//! two streams are no longer comparable event by event.
//!
//! A clean replay is *byte-identical*: same `RunResult`, same telemetry,
//! and [`ReplayReport::to_jsonl`] reproduces the input file exactly.

use std::fmt;

use sstsp::engine::RunResult;
use sstsp::invariants::Violation;
use sstsp_telemetry::reader::{parse_trace, TraceReadError};
use sstsp_telemetry::trace::{to_jsonl, TraceEncodeError, TraceEvent, TRACE_SCHEMA};

use crate::harness::{run_case_traced, TracedOutcome};
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
    /// Beacon period of the live event, else of the recorded one (0 when
    /// neither carries a BP, e.g. a `run_end` footer mismatch).
    pub bp: u64,
    /// Event kind token (`beacon_tx`, `beacon_rx`, `domain_ref_change`,
    /// ...) of the live event, or of the recorded one past the end of the
    /// live stream.
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
/// re-run and the event stream to check against.
#[derive(Debug, Clone)]
pub struct RecordedSchedule {
    /// The case the trace was recorded from (parsed out of the meta line).
    pub case: FuzzCase,
    /// The recorded event stream (meta header excluded).
    pub events: Vec<TraceEvent>,
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
        Ok(RecordedSchedule {
            case,
            events: trace.events,
        })
    }
}

/// Everything a replay produces: the regenerated run plus the first
/// divergence from the recording, if any.
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
    /// The first disagreement between recording and live model; `None` =
    /// faithful.
    pub divergence: Option<Divergence>,
}

impl ReplayReport {
    /// Whether the recording matched the live model everywhere.
    pub fn is_faithful(&self) -> bool {
        self.divergence.is_none()
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

fn render_event(ev: Option<&TraceEvent>) -> String {
    ev.map_or_else(
        || "end of stream".to_string(),
        |ev| ev.to_jsonl().unwrap_or_else(|_| format!("{ev:?}")),
    )
}

/// The first index where the live stream and the recording disagree, as a
/// [`Divergence`] named by the live event (the recorded one past the end
/// of the live stream).
fn first_divergence(live: &[TraceEvent], recorded: &[TraceEvent]) -> Option<Divergence> {
    let i = (0..live.len().max(recorded.len())).find(|&i| live.get(i) != recorded.get(i))?;
    let (e, r) = (live.get(i), recorded.get(i));
    let named = e.or(r).expect("one stream has an event at the mismatch");
    Some(Divergence {
        bp: e
            .and_then(TraceEvent::bp)
            .or(r.and_then(TraceEvent::bp))
            .unwrap_or(0),
        kind: named.kind_token().to_string(),
        expected: render_event(e),
        recorded: render_event(r),
    })
}

/// Re-execute a recorded schedule and diff the live model's stream against
/// it. Deterministic: the same trace always yields the same report.
pub fn replay(schedule: &RecordedSchedule) -> ReplayReport {
    let TracedOutcome {
        result,
        violations,
        events,
    } = run_case_traced(&schedule.case);
    let divergence = first_divergence(&events, &schedule.events);
    ReplayReport {
        case: schedule.case.clone(),
        result,
        violations,
        events,
        divergence,
    }
}

/// [`RecordedSchedule::parse`] + [`replay`] in one call.
pub fn replay_trace(input: &str) -> Result<ReplayReport, ReplayError> {
    Ok(replay(&RecordedSchedule::parse(input)?))
}
