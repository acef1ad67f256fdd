//! Record → replay round-trip and divergence-detection pins.
//!
//! A recorded trace replayed unmodified must be *byte-identical*: the same
//! JSONL file comes back out and the telemetry snapshot matches the
//! recording run's — at every rayon pool size (`scripts/check.sh` re-runs
//! this suite at `RAYON_NUM_THREADS=1,2,8`; the in-process pools here pin
//! the same property without re-spawning the binary). A trace with a
//! single mutated event — a dropped or inserted beacon, a reordered
//! disclosure verdict, a flipped domain-election winner — must be detected
//! and located, single-hop and bridged alike: the first divergence names
//! the exact BP and event kind.

use rayon::ThreadPool;
use sstsp_faults::replay::{replay_trace, to_replayable_jsonl};
use sstsp_faults::{run_case_traced, FuzzCase, ReplayError};
use sstsp_telemetry::reader::TraceReadError;
use sstsp_telemetry::{TraceEvent, TRACE_SCHEMA};

/// Single-hop case with disclosure-loss faults: exercises beacon windows,
/// µTESLA verdicts, and hook drops in the recorded stream.
const SINGLE_HOP: &str = "n=6 dur=10 seed=11 m=4 delta=300 plan=5 discloss@5..60:p=0.5";
/// The golden 2-domain bridged mesh (same shape `mesh_golden.rs` pins).
const BRIDGED: &str = "n=13 dur=12 seed=7 m=4 delta=300 plan=0 mesh=bridged:2:3:2";
/// Single-hop case under burst loss; no beacon is sent at its BP 59.
const SINGLE_HOP_BURST: &str = "n=12 dur=30 seed=7 m=4 delta=300 plan=3 burst@40..90:p=0.85";

/// Record `spec` under telemetry: (case, events, trace file, snapshot).
fn record(spec: &str) -> (FuzzCase, Vec<TraceEvent>, String, String) {
    let case: FuzzCase = spec.parse().expect("valid spec");
    let guard = sstsp_telemetry::recording();
    let outcome = run_case_traced(&case);
    let snap = sstsp_telemetry::snapshot().render_text();
    drop(guard);
    let jsonl = to_replayable_jsonl(&case, &outcome.events).expect("trace encodes");
    (case, outcome.events, jsonl, snap)
}

fn assert_faithful_roundtrip(jsonl: &str, snap: &str) {
    let guard = sstsp_telemetry::recording();
    let report = replay_trace(jsonl).expect("trace replays");
    let replay_snap = sstsp_telemetry::snapshot().render_text();
    drop(guard);
    assert!(
        report.is_faithful(),
        "faithful trace reported a divergence: {:?}",
        report.divergence
    );
    assert_eq!(
        report.to_jsonl().expect("replay re-encodes"),
        jsonl,
        "replay did not reproduce the trace byte-identically"
    );
    assert_eq!(
        replay_snap, snap,
        "replay telemetry diverged from recording"
    );
}

#[test]
fn single_hop_replay_is_byte_identical_across_pool_sizes() {
    let (_, _, jsonl, snap) = record(SINGLE_HOP);
    for threads in [1usize, 2, 8] {
        ThreadPool::new(threads).install(|| assert_faithful_roundtrip(&jsonl, &snap));
    }
}

#[test]
fn bridged_mesh_replay_is_byte_identical_across_pool_sizes() {
    let (_, _, jsonl, snap) = record(BRIDGED);
    for threads in [1usize, 2, 8] {
        ThreadPool::new(threads).install(|| assert_faithful_roundtrip(&jsonl, &snap));
    }
}

/// Replay a mutated event list and return (bp, kind) of the first
/// divergence.
fn first_divergence(case: &FuzzCase, events: &[TraceEvent]) -> (u64, String) {
    let jsonl = to_replayable_jsonl(case, events).expect("mutated trace encodes");
    // Sessions are exclusive: holding one keeps this replay's counters out
    // of a concurrently running round-trip test's telemetry comparison.
    let _session = sstsp_telemetry::recording();
    let report = replay_trace(&jsonl).expect("mutated trace still parses");
    assert!(
        !report.is_faithful(),
        "mutation went undetected ({} events)",
        events.len()
    );
    let d = report.divergence.expect("divergence present");
    (d.bp, d.kind)
}

#[test]
fn dropped_beacon_is_located_across_pool_sizes() {
    let (case, events, _, _) = record(SINGLE_HOP);
    // Drop a mid-run transmission (not the very first — let the network
    // settle so the divergence is unambiguous).
    let idx = events
        .iter()
        .position(|e| matches!(e, TraceEvent::BeaconTx { bp, .. } if *bp >= 4))
        .expect("recorded stream has beacons");
    let TraceEvent::BeaconTx { bp, .. } = events[idx] else {
        unreachable!()
    };
    let mut mutated = events;
    mutated.remove(idx);
    for threads in [1usize, 2, 8] {
        let (d_bp, d_kind) = ThreadPool::new(threads).install(|| first_divergence(&case, &mutated));
        assert_eq!(d_bp, bp, "wrong BP at {threads} threads");
        assert_eq!(d_kind, "beacon_tx", "wrong kind at {threads} threads");
    }
}

#[test]
fn flipped_beacon_winner_is_located() {
    let (case, events, _, _) = record(SINGLE_HOP);
    let idx = events
        .iter()
        .position(|e| matches!(e, TraceEvent::BeaconTx { bp, .. } if *bp >= 4))
        .expect("recorded stream has beacons");
    let TraceEvent::BeaconTx { bp, src } = events[idx] else {
        unreachable!()
    };
    let mut mutated = events;
    mutated[idx] = TraceEvent::BeaconTx {
        bp,
        src: (src + 1) % case.n,
    };
    let (d_bp, d_kind) = first_divergence(&case, &mutated);
    assert_eq!((d_bp, d_kind.as_str()), (bp, "beacon_tx"));
}

#[test]
fn reordered_disclosure_verdicts_are_located_across_pool_sizes() {
    let (case, events, _, _) = record(SINGLE_HOP);
    // Swap two adjacent receiver verdicts of one beacon: the recorded
    // schedule still matches every window, so only the stream diff can
    // catch this.
    let idx = events
        .windows(2)
        .position(|w| {
            matches!(
                (&w[0], &w[1]),
                (TraceEvent::BeaconRx { .. }, TraceEvent::BeaconRx { .. })
            ) && w[0] != w[1]
        })
        .expect("a beacon reached two receivers");
    let bp = events[idx].bp().expect("rx events carry a bp");
    let mut mutated = events;
    mutated.swap(idx, idx + 1);
    for threads in [1usize, 2, 8] {
        let (d_bp, d_kind) = ThreadPool::new(threads).install(|| first_divergence(&case, &mutated));
        assert_eq!(d_bp, bp, "wrong BP at {threads} threads");
        assert_eq!(d_kind, "beacon_rx", "wrong kind at {threads} threads");
    }
}

#[test]
fn flipped_domain_election_winner_is_located_across_pool_sizes() {
    let (case, events, _, _) = record(BRIDGED);
    let idx = events
        .iter()
        .position(|e| matches!(e, TraceEvent::DomainRefChange { .. }))
        .expect("bridged run elects per-domain references");
    let TraceEvent::DomainRefChange {
        bp,
        domain,
        from,
        to,
    } = events[idx]
    else {
        unreachable!()
    };
    let mut mutated = events;
    mutated[idx] = TraceEvent::DomainRefChange {
        bp,
        domain,
        from,
        to: to.map(|w| (w + 1) % case.scenario().n_nodes),
    };
    for threads in [1usize, 2, 8] {
        let (d_bp, d_kind) = ThreadPool::new(threads).install(|| first_divergence(&case, &mutated));
        assert_eq!(d_bp, bp, "wrong BP at {threads} threads");
        assert_eq!(
            d_kind, "domain_ref_change",
            "wrong kind at {threads} threads"
        );
    }
}

/// Insert a `beacon_tx` at `bp`, a BP the live run sent no beacon in,
/// ahead of the BP's first event: the first divergence is at `bp`, with
/// the inserted event on its recorded side.
fn assert_inserted_beacon_located(spec: &str, bp: u64) {
    let (case, events, _, _) = record(spec);
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, TraceEvent::BeaconTx { bp: b, .. } if *b == bp)),
        "`{spec}` sends a beacon at BP {bp}"
    );
    let idx = events
        .iter()
        .position(|e| e.bp() == Some(bp))
        .expect("the run reaches the BP");
    let inserted = TraceEvent::BeaconTx { bp, src: 0 };
    let mut mutated = events;
    mutated.insert(idx, inserted.clone());
    let jsonl = to_replayable_jsonl(&case, &mutated).expect("mutated trace encodes");
    let _session = sstsp_telemetry::recording();
    let report = replay_trace(&jsonl).expect("mutated trace still parses");
    let d = report.divergence.expect("inserted beacon went undetected");
    assert_eq!(d.bp, bp, "wrong BP for `{spec}`");
    assert_eq!(
        d.recorded,
        inserted.to_jsonl().expect("event encodes"),
        "recorded side for `{spec}`"
    );
}

#[test]
fn inserted_beacon_is_located_single_hop_and_bridged() {
    assert_inserted_beacon_located(SINGLE_HOP_BURST, 59);
    // The bridged mesh elects its references from BP 11 on; nothing is
    // sent before.
    assert_inserted_beacon_located(BRIDGED, 5);
}

#[test]
fn schema_and_header_errors_are_rejected() {
    let (_, _, jsonl, _) = record("n=4 dur=2 seed=1 m=4 delta=300 plan=0");

    // Future schema version: refused, names both versions.
    let future = jsonl.replacen("\"schema\":1", "\"schema\":999", 1);
    match replay_trace(&future) {
        Err(ReplayError::Read(TraceReadError::SchemaMismatch { found, expected })) => {
            assert_eq!((found, expected), (999, TRACE_SCHEMA));
        }
        Err(other) => panic!("wrong error for future schema: {other}"),
        Ok(_) => panic!("future schema version accepted"),
    }

    // No meta header: not replayable.
    let headless: String = jsonl.lines().skip(1).map(|l| format!("{l}\n")).collect();
    assert!(matches!(
        replay_trace(&headless),
        Err(ReplayError::Read(TraceReadError::MissingMeta))
    ));

    // Unparsable case spec in the header.
    let bad_case = jsonl.replacen("n=4", "q=4", 1);
    match replay_trace(&bad_case) {
        Err(ReplayError::BadCase { case, msg }) => {
            assert!(case.contains("q=4"), "case: {case}");
            assert!(msg.contains("q"), "msg: {msg}");
        }
        Err(other) => panic!("wrong error for bad case spec: {other}"),
        Ok(_) => panic!("unparsable case spec accepted"),
    }
}
