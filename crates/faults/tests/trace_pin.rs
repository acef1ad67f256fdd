//! Trace bytes pinned across versions: the JSONL a traced fault run
//! records, and each delivery's outcome in it, for three specs that cover
//! accepts, ignored deliveries, µTESLA rejects (corrupted MACs) and guard
//! rejects (a coalition campaign) on one collision domain and on a bridged
//! mesh. The replay round trips compare a build only with itself; these
//! constants compare it with the recording build, so a change in what a
//! receiver reports for any delivery fails here.
//!
//! Regenerate after an intentional change by copying the values the
//! failure message prints, and say in the change why they moved.

use std::str::FromStr;

use sstsp_faults::harness::run_case_traced;
use sstsp_faults::plan::FuzzCase;
use sstsp_telemetry::{trace, RxOutcome, TraceEvent};

/// One pinned spec: the case, the FNV-1a 64 digest of its JSONL trace, the
/// trace's line count, and its deliveries by outcome.
struct Pin {
    spec: &'static str,
    fnv: u64,
    lines: usize,
    outcomes: Outcomes,
}

/// Deliveries by outcome: accepts (and those of them that retargeted),
/// guard rejects, µTESLA rejects, unknown anchors, ignored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Outcomes {
    accept: u64,
    retarget: u64,
    guard_reject: u64,
    mutesla_reject: u64,
    unknown_anchor: u64,
    ignored: u64,
}

const PINS: [Pin; 3] = [
    Pin {
        spec: "n=20 dur=20 seed=3 m=4 delta=300 plan=0 corrupt@30..90:field=mac,p=0.3",
        fnv: 0x97b6_b40d_18d2_6299,
        lines: 4162,
        outcomes: Outcomes {
            accept: 3433,
            retarget: 3395,
            guard_reject: 0,
            mutesla_reject: 328,
            unknown_anchor: 0,
            ignored: 0,
        },
    },
    Pin {
        spec: "n=30 dur=30 seed=4 m=4 delta=300 plan=0 campaign=coalition:3:800:2:5:12",
        fnv: 0x2d56_1e4e_1ef6_896e,
        lines: 8538,
        outcomes: Outcomes {
            accept: 6611,
            retarget: 6495,
            guard_reject: 1305,
            mutesla_reject: 0,
            unknown_anchor: 0,
            ignored: 0,
        },
    },
    Pin {
        spec: "n=13 dur=12 seed=7 m=4 delta=300 plan=0 mesh=bridged:2:3:2",
        fnv: 0x8844_34b5_3f48_5ce6,
        lines: 3082,
        outcomes: Outcomes {
            accept: 1319,
            retarget: 1295,
            guard_reject: 0,
            mutesla_reject: 0,
            unknown_anchor: 0,
            ignored: 1309,
        },
    },
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn outcomes(events: &[TraceEvent]) -> Outcomes {
    let mut o = Outcomes::default();
    for ev in events {
        let TraceEvent::BeaconRx { outcome, .. } = ev else {
            continue;
        };
        let slot = match outcome {
            RxOutcome::Accept { retarget } => {
                o.retarget += u64::from(*retarget);
                &mut o.accept
            }
            RxOutcome::GuardReject => &mut o.guard_reject,
            RxOutcome::MuteslaReject => &mut o.mutesla_reject,
            RxOutcome::UnknownAnchor => &mut o.unknown_anchor,
            RxOutcome::Ignored => &mut o.ignored,
        };
        *slot += 1;
    }
    o
}

#[test]
fn traced_runs_record_the_pinned_bytes_and_outcomes() {
    let mut failures = Vec::new();
    for pin in &PINS {
        let case = FuzzCase::from_str(pin.spec).expect("valid spec");
        let events = run_case_traced(&case).events;
        let jsonl = trace::to_jsonl(&events).expect("finite trace");
        let got = (
            fnv1a64(jsonl.as_bytes()),
            jsonl.lines().count(),
            outcomes(&events),
        );
        if got != (pin.fnv, pin.lines, pin.outcomes) {
            failures.push(format!(
                "{}: fnv {:#018x}, {} lines, {:?}",
                pin.spec, got.0, got.1, got.2
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "traces differ from the pins:\n{}",
        failures.join("\n")
    );
}
