//! Typed trace events and their JSONL encoding.
//!
//! A trace is an ordered sequence of [`TraceEvent`]s describing one run at
//! beacon-delivery granularity: what was transmitted, what each receiver
//! did with it (accepted, guard-rejected, µTESLA-rejected, ...), reference
//! elections, per-BP spread summaries, and invariant violations. The
//! engine-side recorder lives in the `sstsp` crate (it needs the
//! `EngineHook` seam); this module owns the event model and the encoding so
//! every consumer agrees on the schema.
//!
//! Encoding is one JSON object per line (JSONL), hand-rolled since the
//! workspace deliberately carries no serde_json. All numbers are plain
//! decimals; floats use Rust's shortest-round-trip `Display`, so a dumped
//! trace is itself deterministic. String fields are escaped to pure ASCII
//! (`\uXXXX` for controls and non-ASCII), and non-finite floats are an
//! encoding *error* rather than a silent `null` — a trace that parses is a
//! trace that round-trips. The inverse lives in [`crate::reader`].

use std::fmt::Write;

/// Version of the JSONL trace schema. Bumped whenever an event's encoding
/// changes shape; the reader refuses traces recorded under a different
/// version instead of misinterpreting them.
pub const TRACE_SCHEMA: u32 = 1;

/// What a receiver did with one delivered beacon, as the receiver itself
/// reported it (the engine-side recorder maps each protocol verdict to one
/// outcome).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxOutcome {
    /// Passed every check and was admitted; `retarget` marks whether it
    /// (re-)aimed the receiver's clock discipline.
    Accept {
        /// Whether the acceptance retargeted the receiver's clock.
        retarget: bool,
    },
    /// Rejected by the guard-time check.
    GuardReject,
    /// Rejected by µTESLA verification.
    MuteslaReject,
    /// Dropped: the sender's µTESLA anchor is unknown to the receiver.
    UnknownAnchor,
    /// Processed without a security verdict (e.g. a coarse-phase scan
    /// sample, a plain beacon at an already-synchronized SSTSP station, or
    /// a non-SSTSP protocol).
    Ignored,
}

impl RxOutcome {
    /// Stable token used in the JSONL encoding.
    pub fn token(&self) -> &'static str {
        match self {
            RxOutcome::Accept { .. } => "accept",
            RxOutcome::GuardReject => "guard_reject",
            RxOutcome::MuteslaReject => "mutesla_reject",
            RxOutcome::UnknownAnchor => "unknown_anchor",
            RxOutcome::Ignored => "ignored",
        }
    }
}

/// One structured trace event. Node ids are station indices.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Trace-file header: the schema version the file was written under
    /// and the one-line case spec it was recorded from. Written as the
    /// first line by trace writers (not produced by engine hooks); replay
    /// needs it to rebuild the scenario the trace came from.
    Meta {
        /// Trace schema version (see [`TRACE_SCHEMA`]).
        schema: u32,
        /// One-line replayable case spec (`sstsp-faults` FuzzCase syntax).
        case: String,
    },
    /// Run header: scenario identity.
    RunStart {
        /// Protocol name.
        protocol: String,
        /// Station count.
        n_nodes: u32,
        /// Master seed.
        seed: u64,
    },
    /// A station transmitted a beacon this BP.
    BeaconTx {
        /// Beacon period index (1-based).
        bp: u64,
        /// Transmitting station.
        src: u32,
    },
    /// A beacon reached a receiver and was processed.
    BeaconRx {
        /// Beacon period index.
        bp: u64,
        /// Transmitting station.
        src: u32,
        /// Receiving station.
        dst: u32,
        /// Simulated reception instant, µs.
        t_rx_us: f64,
        /// Receiver's adjusted clock immediately before processing, µs.
        clock_before_us: f64,
        /// What the receiver did with it.
        outcome: RxOutcome,
    },
    /// A campaign member transmitted while its campaign was active.
    /// Emitted right after the member's [`TraceEvent::BeaconTx`], so
    /// replay divergence detection covers coordinated attacks: a replay
    /// whose adversary fires in a different BP or role diverges here.
    Campaign {
        /// Beacon period index.
        bp: u64,
        /// Transmitting compromised station.
        src: u32,
        /// Member index within the campaign (0-based).
        member: u32,
        /// Role token: `leader`, `amplifier`, `sybil` or `jammer`.
        role: String,
    },
    /// A hook (fault layer) dropped a beacon before the receiver saw it.
    HookDrop {
        /// Beacon period index.
        bp: u64,
        /// Transmitting station.
        src: u32,
        /// Receiver that never saw the beacon.
        dst: u32,
    },
    /// The station holding the reference role changed.
    RefChange {
        /// Beacon period index.
        bp: u64,
        /// Previous holder (`None` = role vacant).
        from: Option<u32>,
        /// New holder (`None` = role vacant).
        to: Option<u32>,
    },
    /// Mesh runs: the station holding one collision domain's reference
    /// role changed (the per-domain election transcript).
    DomainRefChange {
        /// Beacon period index.
        bp: u64,
        /// Collision-domain index.
        domain: u32,
        /// Previous holder (`None` = role vacant).
        from: Option<u32>,
        /// New holder (`None` = role vacant).
        to: Option<u32>,
    },
    /// Per-BP summary after metrics sampling.
    BpEnd {
        /// Beacon period index.
        bp: u64,
        /// Max pairwise spread of honest synchronized clocks, µs (`None`
        /// when fewer than two stations qualify — distinct from 0.0, which
        /// means perfect agreement).
        spread_us: Option<f64>,
        /// Reference holder at BP end.
        reference: Option<u32>,
        /// Whether the engine disturbed the network this BP.
        disturbed: bool,
    },
    /// An invariant violation detected this BP.
    Violation {
        /// Beacon period index.
        bp: u64,
        /// Invariant kind label.
        kind: String,
        /// Offending station, when attributable.
        node: Option<u32>,
        /// Human-readable detail.
        detail: String,
    },
    /// Run footer: aggregate counters for reconciliation.
    RunEnd {
        /// Successful beacon windows.
        tx_successes: u64,
        /// Collided beacon windows.
        tx_collisions: u64,
        /// Guard-time rejections (honest stations).
        guard_rejections: u64,
        /// µTESLA rejections (honest stations).
        mutesla_rejections: u64,
        /// Successful clock retargets.
        retargets: u64,
        /// Largest spread observed, µs.
        peak_spread_us: f64,
    },
}

/// Escape a string for inclusion in a JSON string literal. The output is
/// pure ASCII: quotes and backslashes get their two-character escapes,
/// control characters and everything outside `0x20..=0x7e` become `\uXXXX`
/// (UTF-16 units, so astral-plane characters encode as surrogate pairs).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut units = [0u16; 2];
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\x20'..='\x7e' => out.push(c),
            c => {
                for unit in c.encode_utf16(&mut units) {
                    let _ = write!(out, "\\u{unit:04x}");
                }
            }
        }
    }
    out
}

/// An event that cannot be encoded: JSON has no NaN or Infinity, and a
/// trace line that silently nulled a required float would not round-trip.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEncodeError {
    /// The field holding the non-finite value.
    pub field: &'static str,
    /// The offending value.
    pub value: f64,
}

impl std::fmt::Display for TraceEncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot encode non-finite `{}` ({}) in a trace event",
            self.field, self.value
        )
    }
}

impl std::error::Error for TraceEncodeError {}

fn opt_u32(v: Option<u32>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "null".to_string(),
    }
}

/// Render a float as JSON via shortest-round-trip display; non-finite
/// values (JSON has no NaN/Inf) are an encoding error.
fn json_f64(field: &'static str, v: f64) -> Result<String, TraceEncodeError> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(TraceEncodeError { field, value: v })
    }
}

impl TraceEvent {
    /// Encode as one JSONL line (no trailing newline). Fails if the event
    /// carries a non-finite float (unrepresentable in JSON).
    pub fn to_jsonl(&self) -> Result<String, TraceEncodeError> {
        Ok(match self {
            TraceEvent::Meta { schema, case } => format!(
                "{{\"ev\":\"meta\",\"schema\":{schema},\"case\":\"{}\"}}",
                json_escape(case)
            ),
            TraceEvent::RunStart {
                protocol,
                n_nodes,
                seed,
            } => format!(
                "{{\"ev\":\"run_start\",\"protocol\":\"{}\",\"n_nodes\":{n_nodes},\"seed\":{seed}}}",
                json_escape(protocol)
            ),
            TraceEvent::BeaconTx { bp, src } => {
                format!("{{\"ev\":\"beacon_tx\",\"bp\":{bp},\"src\":{src}}}")
            }
            TraceEvent::BeaconRx {
                bp,
                src,
                dst,
                t_rx_us,
                clock_before_us,
                outcome,
            } => {
                let retarget = match outcome {
                    RxOutcome::Accept { retarget } => {
                        format!(",\"retarget\":{retarget}")
                    }
                    _ => String::new(),
                };
                format!(
                    "{{\"ev\":\"beacon_rx\",\"bp\":{bp},\"src\":{src},\"dst\":{dst},\"t_rx_us\":{},\"clock_before_us\":{},\"outcome\":\"{}\"{retarget}}}",
                    json_f64("t_rx_us", *t_rx_us)?,
                    json_f64("clock_before_us", *clock_before_us)?,
                    outcome.token()
                )
            }
            TraceEvent::Campaign {
                bp,
                src,
                member,
                role,
            } => format!(
                "{{\"ev\":\"campaign\",\"bp\":{bp},\"src\":{src},\"member\":{member},\"role\":\"{}\"}}",
                json_escape(role)
            ),
            TraceEvent::HookDrop { bp, src, dst } => {
                format!("{{\"ev\":\"hook_drop\",\"bp\":{bp},\"src\":{src},\"dst\":{dst}}}")
            }
            TraceEvent::RefChange { bp, from, to } => format!(
                "{{\"ev\":\"ref_change\",\"bp\":{bp},\"from\":{},\"to\":{}}}",
                opt_u32(*from),
                opt_u32(*to)
            ),
            TraceEvent::DomainRefChange {
                bp,
                domain,
                from,
                to,
            } => format!(
                "{{\"ev\":\"domain_ref_change\",\"bp\":{bp},\"domain\":{domain},\"from\":{},\"to\":{}}}",
                opt_u32(*from),
                opt_u32(*to)
            ),
            TraceEvent::BpEnd {
                bp,
                spread_us,
                reference,
                disturbed,
            } => format!(
                "{{\"ev\":\"bp_end\",\"bp\":{bp},\"spread_us\":{},\"reference\":{},\"disturbed\":{disturbed}}}",
                match spread_us {
                    Some(v) => json_f64("spread_us", *v)?,
                    None => "null".to_string(),
                },
                opt_u32(*reference)
            ),
            TraceEvent::Violation {
                bp,
                kind,
                node,
                detail,
            } => format!(
                "{{\"ev\":\"violation\",\"bp\":{bp},\"kind\":\"{}\",\"node\":{},\"detail\":\"{}\"}}",
                json_escape(kind),
                opt_u32(*node),
                json_escape(detail)
            ),
            TraceEvent::RunEnd {
                tx_successes,
                tx_collisions,
                guard_rejections,
                mutesla_rejections,
                retargets,
                peak_spread_us,
            } => format!(
                "{{\"ev\":\"run_end\",\"tx_successes\":{tx_successes},\"tx_collisions\":{tx_collisions},\"guard_rejections\":{guard_rejections},\"mutesla_rejections\":{mutesla_rejections},\"retargets\":{retargets},\"peak_spread_us\":{}}}",
                json_f64("peak_spread_us", *peak_spread_us)?
            ),
        })
    }

    /// Stable token naming the event kind (the JSONL `ev` field).
    pub fn kind_token(&self) -> &'static str {
        match self {
            TraceEvent::Meta { .. } => "meta",
            TraceEvent::RunStart { .. } => "run_start",
            TraceEvent::BeaconTx { .. } => "beacon_tx",
            TraceEvent::BeaconRx { .. } => "beacon_rx",
            TraceEvent::Campaign { .. } => "campaign",
            TraceEvent::HookDrop { .. } => "hook_drop",
            TraceEvent::RefChange { .. } => "ref_change",
            TraceEvent::DomainRefChange { .. } => "domain_ref_change",
            TraceEvent::BpEnd { .. } => "bp_end",
            TraceEvent::Violation { .. } => "violation",
            TraceEvent::RunEnd { .. } => "run_end",
        }
    }

    /// The beacon period the event belongs to, when it carries one.
    pub fn bp(&self) -> Option<u64> {
        match self {
            TraceEvent::BeaconTx { bp, .. }
            | TraceEvent::BeaconRx { bp, .. }
            | TraceEvent::Campaign { bp, .. }
            | TraceEvent::HookDrop { bp, .. }
            | TraceEvent::RefChange { bp, .. }
            | TraceEvent::DomainRefChange { bp, .. }
            | TraceEvent::BpEnd { bp, .. }
            | TraceEvent::Violation { bp, .. } => Some(*bp),
            TraceEvent::Meta { .. } | TraceEvent::RunStart { .. } | TraceEvent::RunEnd { .. } => {
                None
            }
        }
    }
}

/// Encode a whole trace as JSONL (one event per line, trailing newline).
/// Fails on the first event carrying a non-finite float.
pub fn to_jsonl(events: &[TraceEvent]) -> Result<String, TraceEncodeError> {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_jsonl()?);
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_controls_and_non_ascii() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        // DEL and C1 controls, which the old writer passed through raw.
        assert_eq!(json_escape("\u{7f}\u{85}"), "\\u007f\\u0085");
        // Non-ASCII text (µ is ubiquitous in this repo's detail strings)
        // and an astral-plane char encode as \u escapes / surrogate pairs.
        assert_eq!(json_escape("µs"), "\\u00b5s");
        assert_eq!(json_escape("\u{1f310}"), "\\ud83c\\udf10");
        // The output is always pure ASCII.
        assert!(json_escape("snow\u{2028}man ☃").is_ascii());
    }

    #[test]
    fn events_encode_to_stable_jsonl() {
        let ev = TraceEvent::BeaconRx {
            bp: 3,
            src: 5,
            dst: 1,
            t_rx_us: 300128.5,
            clock_before_us: 300100.25,
            outcome: RxOutcome::Accept { retarget: true },
        };
        assert_eq!(
            ev.to_jsonl().unwrap(),
            "{\"ev\":\"beacon_rx\",\"bp\":3,\"src\":5,\"dst\":1,\"t_rx_us\":300128.5,\"clock_before_us\":300100.25,\"outcome\":\"accept\",\"retarget\":true}"
        );
        let ev = TraceEvent::RefChange {
            bp: 9,
            from: None,
            to: Some(4),
        };
        assert_eq!(
            ev.to_jsonl().unwrap(),
            "{\"ev\":\"ref_change\",\"bp\":9,\"from\":null,\"to\":4}"
        );
        let ev = TraceEvent::BpEnd {
            bp: 2,
            spread_us: None,
            reference: None,
            disturbed: false,
        };
        assert_eq!(
            ev.to_jsonl().unwrap(),
            "{\"ev\":\"bp_end\",\"bp\":2,\"spread_us\":null,\"reference\":null,\"disturbed\":false}"
        );
        let ev = TraceEvent::DomainRefChange {
            bp: 14,
            domain: 1,
            from: None,
            to: Some(8),
        };
        assert_eq!(
            ev.to_jsonl().unwrap(),
            "{\"ev\":\"domain_ref_change\",\"bp\":14,\"domain\":1,\"from\":null,\"to\":8}"
        );
        let ev = TraceEvent::Campaign {
            bp: 201,
            src: 11,
            member: 1,
            role: "amplifier".to_string(),
        };
        assert_eq!(
            ev.to_jsonl().unwrap(),
            "{\"ev\":\"campaign\",\"bp\":201,\"src\":11,\"member\":1,\"role\":\"amplifier\"}"
        );
        let ev = TraceEvent::Meta {
            schema: TRACE_SCHEMA,
            case: "n=6 dur=10 seed=11 m=4 delta=300 plan=5".to_string(),
        };
        assert_eq!(
            ev.to_jsonl().unwrap(),
            "{\"ev\":\"meta\",\"schema\":1,\"case\":\"n=6 dur=10 seed=11 m=4 delta=300 plan=5\"}"
        );
    }

    #[test]
    fn non_finite_floats_fail_to_encode() {
        let ev = TraceEvent::RunEnd {
            tx_successes: 1,
            tx_collisions: 0,
            guard_rejections: 0,
            mutesla_rejections: 0,
            retargets: 0,
            peak_spread_us: f64::NAN,
        };
        let err = ev.to_jsonl().unwrap_err();
        assert_eq!(err.field, "peak_spread_us");
        let ev = TraceEvent::BeaconRx {
            bp: 1,
            src: 0,
            dst: 1,
            t_rx_us: f64::INFINITY,
            clock_before_us: 0.0,
            outcome: RxOutcome::Ignored,
        };
        assert_eq!(ev.to_jsonl().unwrap_err().field, "t_rx_us");
        // An Option float is still encodable as null when absent, but a
        // present non-finite value fails like any other.
        let ev = TraceEvent::BpEnd {
            bp: 1,
            spread_us: Some(f64::NAN),
            reference: None,
            disturbed: false,
        };
        assert_eq!(ev.to_jsonl().unwrap_err().field, "spread_us");
    }
}
