//! Telemetry reconciliation: the metrics registry, the structured trace,
//! and the engine's own `RunResult` are three independent views of one run
//! — they must agree exactly.
//!
//! Counter sites live inline next to the `RunResult` accumulation they
//! mirror, so these identities are a genuine cross-check of the
//! instrumentation, not a tautology. The fault plan deliberately avoids
//! crash/kill-reference events: a rebooted station resets its diagnostic
//! counters, which would legitimately break per-station reconciliation.

use sstsp::{Network, ProtocolKind, ScenarioConfig};
use sstsp_faults::plan::FuzzCase;
use sstsp_faults::run_case_traced;
use sstsp_telemetry::{recording, snapshot, trace, RxOutcome, TraceEvent};

/// Loss + corruption + disclosure loss, no churn-like faults.
const SPEC: &str = "n=10 dur=20 seed=7 m=4 delta=300 plan=3 \
                    burst@30..80:p=0.5 corrupt@20..120:field=ts,p=0.3 \
                    corrupt@40..140:field=mac,p=0.2 discloss@60..130:p=0.4";

#[test]
fn counters_trace_and_run_result_reconcile() {
    let case: FuzzCase = SPEC.parse().expect("valid spec");
    let _guard = recording();
    let outcome = run_case_traced(&case);
    let snap = snapshot();
    let r = &outcome.result;

    // Every receive attempt is accounted for: delivered, lost on the
    // channel, or dropped by the fault hook.
    assert_eq!(
        snap.counter("engine.beacon.rx_attempt"),
        snap.counter("engine.beacon.rx_delivered")
            + snap.counter("engine.beacon.rx_lost")
            + snap.counter("engine.beacon.rx_hook_dropped"),
        "rx attempts must partition into delivered + lost + hook-dropped"
    );
    assert!(
        snap.counter("engine.beacon.rx_hook_dropped") > 0,
        "disclosure-loss plan produced no hook drops"
    );

    // Beacon-window counters mirror the RunResult tallies.
    assert_eq!(snap.counter("engine.window.success"), r.tx_successes);
    assert_eq!(snap.counter("engine.window.collision"), r.tx_collisions);
    assert_eq!(snap.counter("engine.window.silent"), r.silent_windows);
    assert_eq!(snap.counter("engine.window.jammed"), r.jammed_windows);
    assert_eq!(snap.counter("engine.beacon.tx"), r.tx_successes);

    // Protocol-layer counters mirror the aggregated station stats.
    assert_eq!(snap.counter("sstsp.reject.guard"), r.guard_rejections);
    assert_eq!(snap.counter("sstsp.reject.mutesla"), r.mutesla_rejections);
    assert_eq!(snap.counter("sstsp.retarget"), r.retargets);
    assert!(
        r.mutesla_rejections > 0,
        "corruption plan produced no µTESLA rejections"
    );

    // The trace is a third independent view: per-delivery verdicts must sum
    // to the same totals.
    let count_rx = |want: fn(&RxOutcome) -> bool| {
        outcome
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::BeaconRx { outcome, .. } if want(outcome)))
            .count() as u64
    };
    assert_eq!(
        count_rx(|o| matches!(o, RxOutcome::GuardReject)),
        r.guard_rejections
    );
    assert_eq!(
        count_rx(|o| matches!(o, RxOutcome::MuteslaReject)),
        r.mutesla_rejections
    );
    let tx_events = outcome
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::BeaconTx { .. }))
        .count() as u64;
    assert_eq!(tx_events, r.tx_successes);
    let hook_drops = outcome
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::HookDrop { .. }))
        .count() as u64;
    assert_eq!(hook_drops, snap.counter("engine.beacon.rx_hook_dropped"));

    // Every present station's intent is served exactly once per BP: from
    // the SoA cache or by the real call. The plan has no churn, so every
    // station is present in every BP.
    let cached = snap.counter("engine.intent.cached");
    let called = snap.counter("engine.intent.called");
    assert_eq!(
        cached + called,
        u64::from(case.scenario().n_nodes) * case.scenario().total_bps(),
        "intents must partition into cached + called"
    );
    assert!(cached > 0 && called > 0, "cached {cached}, called {called}");

    // Simulator-level telemetry is present and sane.
    assert!(snap.gauge("engine.queue.peak_pending").unwrap_or(0) >= 1);
    assert!(snap.counter("engine.rng.chan_draws") > 0);
    // The counted streams serve one draw per use, however far ahead they
    // generate: a channel coin per receive attempt, and a timestamp jitter
    // per transmission and per delivered beacon.
    assert_eq!(
        snap.counter("engine.rng.chan_draws"),
        snap.counter("engine.beacon.rx_attempt")
    );
    assert_eq!(
        snap.counter("engine.rng.jitter_draws"),
        snap.counter("engine.beacon.tx") + snap.counter("engine.beacon.rx_delivered")
    );
    let spread = &snap.dists["engine.spread_us"];
    assert_eq!(spread.count(), case.scenario().total_bps());

    // JSONL export is well-formed: one object per line, framed by
    // run_start / run_end.
    let jsonl = trace::to_jsonl(&outcome.events).expect("trace carries only finite floats");
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), outcome.events.len());
    assert!(lines.first().unwrap().starts_with("{\"ev\":\"run_start\""));
    assert!(lines.last().unwrap().starts_with("{\"ev\":\"run_end\""));
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad line: {line}"
        );
    }
    // And the JSONL parses back to the exact event stream (the reader is
    // the writer's inverse).
    assert_eq!(
        sstsp_telemetry::reader::parse_events(&jsonl).expect("own output parses"),
        outcome.events
    );

    // A correct implementation stays violation-free under this plan, and
    // the spec round-trips for replay.
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    assert_eq!(case.to_string().parse::<FuzzCase>().unwrap(), case);
}

/// A TSF-family station predicts every intent (the countdown decides it),
/// so without churn the engine serves every station's intent in every BP
/// from its dense mirror and never makes the `intent()` call.
#[test]
fn tsf_family_intents_are_all_served_from_the_mirror() {
    for kind in [
        ProtocolKind::Tsf,
        ProtocolKind::Atsp,
        ProtocolKind::Tatsp,
        ProtocolKind::Satsf,
    ] {
        let cfg = ScenarioConfig::new(kind, 20, 30.0, 3);
        let _guard = recording();
        Network::build(&cfg).run();
        let snap = snapshot();
        assert_eq!(snap.counter("engine.intent.called"), 0, "{kind:?}");
        assert_eq!(
            snap.counter("engine.intent.cached"),
            u64::from(cfg.n_nodes) * cfg.total_bps(),
            "{kind:?}"
        );
    }
}
