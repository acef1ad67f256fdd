//! Trace reading: the exact inverse of the [`crate::trace`] JSONL writer.
//!
//! [`parse_events`] turns a JSONL dump back into the typed
//! [`TraceEvent`] stream; [`parse_trace`] additionally requires the
//! self-contained trace-file framing (a leading `meta` line carrying the
//! schema version and the case spec the trace was recorded from) and
//! enforces the schema version, so a replay tool never misinterprets a
//! trace written under a different encoding.
//!
//! The parser is hand-rolled like the writer (the workspace carries no
//! serde_json) but is a complete flat-object JSON reader: it handles every
//! escape the writer can produce (`\uXXXX` including surrogate pairs),
//! rejects malformed lines with the line number, and parses numbers
//! through Rust's shortest-round-trip `FromStr` — so
//! `parse_events(to_jsonl(events)) == events` for any encodable stream.

use crate::trace::{RxOutcome, TraceEvent, TRACE_SCHEMA};
use std::collections::BTreeMap;

/// A malformed or unreadable trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceReadError {
    /// A line failed to parse; 1-based line number plus detail.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// The trace has no leading `meta` line, so the recording's case spec
    /// (and schema version) are unknown — it cannot be replayed.
    MissingMeta,
    /// The trace was written under a different schema version.
    SchemaMismatch {
        /// Version found in the trace's `meta` line.
        found: u32,
        /// Version this reader understands ([`TRACE_SCHEMA`]).
        expected: u32,
    },
}

impl std::fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceReadError::Malformed { line, msg } => {
                write!(f, "trace line {line}: {msg}")
            }
            TraceReadError::MissingMeta => {
                write!(
                    f,
                    "trace has no leading meta line (`{{\"ev\":\"meta\",...}}`); \
                     re-record it with a current `sstsp-sim trace`"
                )
            }
            TraceReadError::SchemaMismatch { found, expected } => {
                write!(
                    f,
                    "trace schema version {found} does not match this reader's {expected}"
                )
            }
        }
    }
}

impl std::error::Error for TraceReadError {}

/// A parsed self-contained trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedTrace {
    /// Schema version from the meta line (always [`TRACE_SCHEMA`] after a
    /// successful parse).
    pub schema: u32,
    /// The one-line case spec the trace was recorded from.
    pub case: String,
    /// The recorded event stream (meta line excluded).
    pub events: Vec<TraceEvent>,
}

/// One JSON scalar as the flat encoder emits them.
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Str(String),
    /// Numbers keep their source text; each field parses it at its own
    /// width so integers and floats both round-trip exactly.
    Num(String),
    Bool(bool),
    Null,
}

/// Parse one `\uXXXX` escape body (cursor sits after the `u`), combining
/// surrogate pairs.
fn parse_unicode_escape(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
) -> Result<char, String> {
    fn unit(
        chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
        what: &str,
    ) -> Result<u16, String> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let c = chars.next().ok_or_else(|| format!("truncated {what}"))?;
            v = v * 16
                + c.to_digit(16)
                    .ok_or_else(|| format!("bad hex digit `{c}` in {what}"))?;
        }
        Ok(v as u16)
    }
    let hi = unit(chars, "\\u escape")?;
    if (0xd800..0xdc00).contains(&hi) {
        // High surrogate: the writer always follows with the low half.
        if chars.next() != Some('\\') || chars.next() != Some('u') {
            return Err("high surrogate not followed by \\u escape".to_string());
        }
        let lo = unit(chars, "low surrogate")?;
        if !(0xdc00..0xe000).contains(&lo) {
            return Err(format!("invalid low surrogate {lo:#06x}"));
        }
        let cp = 0x10000 + (((hi as u32 - 0xd800) << 10) | (lo as u32 - 0xdc00));
        char::from_u32(cp).ok_or_else(|| format!("invalid code point {cp:#x}"))
    } else if (0xdc00..0xe000).contains(&hi) {
        Err(format!("unpaired low surrogate {hi:#06x}"))
    } else {
        char::from_u32(hi as u32).ok_or_else(|| format!("invalid code point {hi:#06x}"))
    }
}

/// Parse one flat JSON object line into its key → scalar map.
fn parse_object(line: &str) -> Result<BTreeMap<String, Scalar>, String> {
    let mut chars = line.chars().peekable();
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::Chars<'_>>| {
        while matches!(chars.peek(), Some(' ' | '\t')) {
            chars.next();
        }
    };
    let parse_string =
        |chars: &mut std::iter::Peekable<std::str::Chars<'_>>| -> Result<String, String> {
            if chars.next() != Some('"') {
                return Err("expected string".to_string());
            }
            let mut out = String::new();
            loop {
                match chars.next().ok_or("unterminated string")? {
                    '"' => return Ok(out),
                    '\\' => match chars.next().ok_or("truncated escape")? {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => out.push(parse_unicode_escape(chars)?),
                        other => return Err(format!("unknown escape `\\{other}`")),
                    },
                    c if (c as u32) < 0x20 => {
                        return Err("raw control character inside string".to_string())
                    }
                    c => out.push(c),
                }
            }
        };

    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err("expected `{`".to_string());
    }
    let mut map = BTreeMap::new();
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            let key = parse_string(&mut chars)?;
            skip_ws(&mut chars);
            if chars.next() != Some(':') {
                return Err(format!("expected `:` after key `{key}`"));
            }
            skip_ws(&mut chars);
            let value = match chars.peek().copied().ok_or("truncated value")? {
                '"' => Scalar::Str(parse_string(&mut chars)?),
                't' | 'f' | 'n' => {
                    let mut word = String::new();
                    while matches!(chars.peek(), Some(c) if c.is_ascii_alphabetic()) {
                        word.push(chars.next().unwrap());
                    }
                    match word.as_str() {
                        "true" => Scalar::Bool(true),
                        "false" => Scalar::Bool(false),
                        "null" => Scalar::Null,
                        other => return Err(format!("unknown literal `{other}`")),
                    }
                }
                c if c == '-' || c.is_ascii_digit() => {
                    let mut num = String::new();
                    while matches!(
                        chars.peek(),
                        Some(&c) if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')
                    ) {
                        num.push(chars.next().unwrap());
                    }
                    Scalar::Num(num)
                }
                c => return Err(format!("unexpected `{c}` at start of value")),
            };
            if map.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate key `{key}`"));
            }
            skip_ws(&mut chars);
            match chars.next() {
                Some(',') => continue,
                Some('}') => break,
                _ => return Err("expected `,` or `}`".to_string()),
            }
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing garbage after object".to_string());
    }
    Ok(map)
}

/// Field accessors over a parsed object, consuming fields so leftovers can
/// be rejected.
struct Fields {
    map: BTreeMap<String, Scalar>,
}

impl Fields {
    fn take(&mut self, key: &str) -> Result<Scalar, String> {
        self.map
            .remove(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    fn str(&mut self, key: &str) -> Result<String, String> {
        match self.take(key)? {
            Scalar::Str(s) => Ok(s),
            other => Err(format!("field `{key}` is not a string ({other:?})")),
        }
    }

    fn num<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, String> {
        match self.take(key)? {
            Scalar::Num(n) => n
                .parse()
                .map_err(|_| format!("field `{key}` has unparsable number `{n}`")),
            other => Err(format!("field `{key}` is not a number ({other:?})")),
        }
    }

    fn bool(&mut self, key: &str) -> Result<bool, String> {
        match self.take(key)? {
            Scalar::Bool(b) => Ok(b),
            other => Err(format!("field `{key}` is not a bool ({other:?})")),
        }
    }

    fn opt_u32(&mut self, key: &str) -> Result<Option<u32>, String> {
        match self.take(key)? {
            Scalar::Null => Ok(None),
            Scalar::Num(n) => n
                .parse()
                .map(Some)
                .map_err(|_| format!("field `{key}` has unparsable number `{n}`")),
            other => Err(format!("field `{key}` is not null-or-number ({other:?})")),
        }
    }

    fn opt_f64(&mut self, key: &str) -> Result<Option<f64>, String> {
        match self.take(key)? {
            Scalar::Null => Ok(None),
            Scalar::Num(n) => n
                .parse()
                .map(Some)
                .map_err(|_| format!("field `{key}` has unparsable number `{n}`")),
            other => Err(format!("field `{key}` is not null-or-number ({other:?})")),
        }
    }

    fn finish(self, ev: &str) -> Result<(), String> {
        match self.map.into_keys().next() {
            None => Ok(()),
            Some(k) => Err(format!("unexpected field `{k}` in `{ev}` event")),
        }
    }
}

/// Decode one JSONL line into a [`TraceEvent`].
fn parse_event_line(line: &str) -> Result<TraceEvent, String> {
    let mut f = Fields {
        map: parse_object(line)?,
    };
    let ev = f.str("ev")?;
    let event = match ev.as_str() {
        "meta" => TraceEvent::Meta {
            schema: f.num("schema")?,
            case: f.str("case")?,
        },
        "run_start" => TraceEvent::RunStart {
            protocol: f.str("protocol")?,
            n_nodes: f.num("n_nodes")?,
            seed: f.num("seed")?,
        },
        "beacon_tx" => TraceEvent::BeaconTx {
            bp: f.num("bp")?,
            src: f.num("src")?,
        },
        "beacon_rx" => {
            let bp = f.num("bp")?;
            let src = f.num("src")?;
            let dst = f.num("dst")?;
            let t_rx_us = f.num("t_rx_us")?;
            let clock_before_us = f.num("clock_before_us")?;
            let token = f.str("outcome")?;
            let outcome = match token.as_str() {
                "accept" => RxOutcome::Accept {
                    retarget: f.bool("retarget")?,
                },
                "guard_reject" => RxOutcome::GuardReject,
                "mutesla_reject" => RxOutcome::MuteslaReject,
                "unknown_anchor" => RxOutcome::UnknownAnchor,
                "ignored" => RxOutcome::Ignored,
                other => return Err(format!("unknown rx outcome `{other}`")),
            };
            TraceEvent::BeaconRx {
                bp,
                src,
                dst,
                t_rx_us,
                clock_before_us,
                outcome,
            }
        }
        "campaign" => TraceEvent::Campaign {
            bp: f.num("bp")?,
            src: f.num("src")?,
            member: f.num("member")?,
            role: f.str("role")?,
        },
        "hook_drop" => TraceEvent::HookDrop {
            bp: f.num("bp")?,
            src: f.num("src")?,
            dst: f.num("dst")?,
        },
        "ref_change" => TraceEvent::RefChange {
            bp: f.num("bp")?,
            from: f.opt_u32("from")?,
            to: f.opt_u32("to")?,
        },
        "domain_ref_change" => TraceEvent::DomainRefChange {
            bp: f.num("bp")?,
            domain: f.num("domain")?,
            from: f.opt_u32("from")?,
            to: f.opt_u32("to")?,
        },
        "bp_end" => TraceEvent::BpEnd {
            bp: f.num("bp")?,
            spread_us: f.opt_f64("spread_us")?,
            reference: f.opt_u32("reference")?,
            disturbed: f.bool("disturbed")?,
        },
        "violation" => TraceEvent::Violation {
            bp: f.num("bp")?,
            kind: f.str("kind")?,
            node: f.opt_u32("node")?,
            detail: f.str("detail")?,
        },
        "run_end" => TraceEvent::RunEnd {
            tx_successes: f.num("tx_successes")?,
            tx_collisions: f.num("tx_collisions")?,
            guard_rejections: f.num("guard_rejections")?,
            mutesla_rejections: f.num("mutesla_rejections")?,
            retargets: f.num("retargets")?,
            peak_spread_us: f.num("peak_spread_us")?,
        },
        other => return Err(format!("unknown event kind `{other}`")),
    };
    f.finish(&ev)?;
    Ok(event)
}

/// Parse a JSONL event stream (empty lines skipped). Inverse of
/// [`crate::trace::to_jsonl`].
pub fn parse_events(input: &str) -> Result<Vec<TraceEvent>, TraceReadError> {
    let mut events = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(
            parse_event_line(line).map_err(|msg| TraceReadError::Malformed { line: i + 1, msg })?,
        );
    }
    Ok(events)
}

/// Parse a self-contained trace file: a `meta` header line (schema version
/// checked against [`TRACE_SCHEMA`]) followed by the recorded events.
pub fn parse_trace(input: &str) -> Result<RecordedTrace, TraceReadError> {
    let mut events = parse_events(input)?;
    let Some(TraceEvent::Meta { .. }) = events.first() else {
        return Err(TraceReadError::MissingMeta);
    };
    let TraceEvent::Meta { schema, case } = events.remove(0) else {
        unreachable!("first event checked above");
    };
    if schema != TRACE_SCHEMA {
        return Err(TraceReadError::SchemaMismatch {
            found: schema,
            expected: TRACE_SCHEMA,
        });
    }
    Ok(RecordedTrace {
        schema,
        case,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::to_jsonl;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStart {
                protocol: "SSTSP".to_string(),
                n_nodes: 6,
                seed: 11,
            },
            TraceEvent::BeaconTx { bp: 1, src: 0 },
            TraceEvent::BeaconRx {
                bp: 1,
                src: 0,
                dst: 3,
                t_rx_us: 300128.5,
                clock_before_us: -300100.254367,
                outcome: RxOutcome::Accept { retarget: true },
            },
            TraceEvent::BeaconRx {
                bp: 1,
                src: 0,
                dst: 4,
                t_rx_us: 1.0e-9,
                clock_before_us: 2.5e17,
                outcome: RxOutcome::GuardReject,
            },
            TraceEvent::Campaign {
                bp: 1,
                src: 5,
                member: 1,
                role: "amplifier".to_string(),
            },
            TraceEvent::HookDrop {
                bp: 2,
                src: 0,
                dst: 1,
            },
            TraceEvent::RefChange {
                bp: 2,
                from: None,
                to: Some(4),
            },
            TraceEvent::DomainRefChange {
                bp: 3,
                domain: 1,
                from: Some(6),
                to: None,
            },
            TraceEvent::BpEnd {
                bp: 3,
                spread_us: None,
                reference: None,
                disturbed: true,
            },
            TraceEvent::Violation {
                bp: 4,
                kind: "key_freshness".to_string(),
                node: Some(2),
                detail: "drift 3.5 µs > bound \"δ\"\n\ttab & snowman ☃ \u{1}\u{1f310}".to_string(),
            },
            TraceEvent::RunEnd {
                tx_successes: 10,
                tx_collisions: 1,
                guard_rejections: 2,
                mutesla_rejections: 3,
                retargets: 4,
                peak_spread_us: 312.53608422121033,
            },
        ]
    }

    #[test]
    fn serialize_parse_round_trip_is_exact() {
        let events = sample_events();
        let jsonl = to_jsonl(&events).expect("all floats finite");
        assert!(jsonl.is_ascii(), "writer emits pure ASCII");
        let parsed = parse_events(&jsonl).expect("own output parses");
        assert_eq!(parsed, events);
        // And a second encode is byte-identical (fixed point).
        assert_eq!(to_jsonl(&parsed).unwrap(), jsonl);
    }

    #[test]
    fn trace_framing_requires_matching_meta() {
        let mut events = vec![TraceEvent::Meta {
            schema: TRACE_SCHEMA,
            case: "n=6 dur=10 seed=11 m=4 delta=300 plan=5".to_string(),
        }];
        events.extend(sample_events());
        let jsonl = to_jsonl(&events).unwrap();
        let trace = parse_trace(&jsonl).expect("framed trace parses");
        assert_eq!(trace.schema, TRACE_SCHEMA);
        assert_eq!(trace.case, "n=6 dur=10 seed=11 m=4 delta=300 plan=5");
        assert_eq!(trace.events, sample_events());

        // No meta line at all.
        let bare = to_jsonl(&sample_events()).unwrap();
        assert_eq!(parse_trace(&bare), Err(TraceReadError::MissingMeta));

        // Wrong schema version.
        let future = jsonl.replacen("\"schema\":1", "\"schema\":999", 1);
        assert_eq!(
            parse_trace(&future),
            Err(TraceReadError::SchemaMismatch {
                found: 999,
                expected: TRACE_SCHEMA
            })
        );
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        for (bad, needle) in [
            ("{\"ev\":\"beacon_tx\",\"bp\":1,\"src\":0}trailing", "trailing"),
            ("{\"ev\":\"beacon_tx\",\"bp\":1}", "missing field `src`"),
            ("{\"ev\":\"beacon_tx\",\"bp\":1,\"src\":0,\"x\":1}", "unexpected field `x`"),
            ("{\"ev\":\"warp\",\"bp\":1}", "unknown event kind `warp`"),
            ("{\"ev\":\"beacon_tx\",\"bp\":true,\"src\":0}", "not a number"),
            ("{\"ev\":\"violation\",\"bp\":1,\"kind\":\"k\",\"node\":null,\"detail\":\"\\ud800\"}", "surrogate"),
            ("not json at all", "expected `{`"),
        ] {
            let input = format!("{{\"ev\":\"beacon_tx\",\"bp\":1,\"src\":0}}\n{bad}\n");
            match parse_events(&input) {
                Err(TraceReadError::Malformed { line, msg }) => {
                    assert_eq!(line, 2, "wrong line for `{bad}`");
                    assert!(msg.contains(needle), "`{msg}` lacks `{needle}`");
                }
                other => panic!("`{bad}` gave {other:?}"),
            }
        }
    }

    #[test]
    fn reader_accepts_whitespace_and_blank_lines() {
        let input = "\n{ \"ev\" : \"beacon_tx\" , \"bp\" : 7 , \"src\" : 2 }\n\n";
        assert_eq!(
            parse_events(input).unwrap(),
            vec![TraceEvent::BeaconTx { bp: 7, src: 2 }]
        );
    }
}
