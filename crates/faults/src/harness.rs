//! The fault harness: executes a [`FaultPlan`] against a run while feeding
//! an [`InvariantChecker`] every observation.
//!
//! The harness is one [`EngineHook`]: at each BP start it translates due
//! plan events into engine [`FaultAction`]s, per delivery it applies
//! corruption and targeted-loss faults from its *own* RNG stream (the
//! engine's streams are never touched, so a fault run is a pure function of
//! scenario seed + plan), and it forwards every delivery observation and BP
//! view to the embedded checker — registering clock exemptions and
//! disturbance notices so sanctioned physical faults don't read as protocol
//! violations. What remains after the exemptions is exactly the claim under
//! test: *no fault schedule can make a correct implementation accept a
//! beacon it must reject or move a clock it must not move.*

use protocols::api::{AnchorRegistry, BeaconPayload, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use sstsp::engine::{Network, RunResult};
use sstsp::instrument::{BpView, DeliveryCtx, DeliveryFate, DeliveryObs, EngineHook, FaultAction};
use sstsp::invariants::{InvariantChecker, InvariantKind, Violation};
use sstsp::scenario::ScenarioConfig;
use sstsp::trace::TraceRecorder;
use sstsp_telemetry::TraceEvent;

use crate::plan::{CorruptField, FaultEvent, FaultKind, FaultPlan, FuzzCase};

/// Fault injector + invariant checker, attached to a run as a single hook.
pub struct FaultHarness {
    events: Vec<FaultEvent>,
    checker: InvariantChecker,
    rng: ChaCha12Rng,
}

impl FaultHarness {
    /// Build a harness for `plan` against `scenario`. The scenario must be
    /// the one the network is built from (the checker reads its protocol
    /// parameters — including a plan-shortened chain).
    pub fn new(plan: &FaultPlan, scenario: &ScenarioConfig) -> Self {
        FaultHarness {
            events: plan.events.clone(),
            checker: InvariantChecker::for_scenario(scenario),
            rng: ChaCha12Rng::seed_from_u64(plan.seed),
        }
    }

    /// Violations the embedded checker recorded.
    pub fn violations(&self) -> &[Violation] {
        self.checker.violations()
    }

    /// Consume the harness, returning the recorded violations.
    pub fn into_violations(self) -> Vec<Violation> {
        self.checker.into_violations()
    }

    fn corrupt(&mut self, field: CorruptField, payload: &mut BeaconPayload) {
        let BeaconPayload::Secured(body, auth) = payload else {
            return;
        };
        match field {
            CorruptField::Timestamp => {
                // A mid-weight bit flip: large enough to matter (64 µs),
                // small enough to sometimes slip under a loose guard.
                body.timestamp_us ^= 1 << 6;
            }
            CorruptField::Mac => {
                auth.mac[0] ^= 0xff;
                auth.mac[7] ^= 0x0f;
            }
            CorruptField::Disclosed => {
                auth.disclosed[0] ^= 0xff;
                auth.disclosed[15] ^= 0x0f;
            }
            CorruptField::Truncate => {
                *payload = BeaconPayload::Plain(*body);
            }
        }
    }
}

impl EngineHook for FaultHarness {
    fn on_run_start(&mut self, scenario: &ScenarioConfig, anchors: &AnchorRegistry) {
        self.checker.on_run_start(scenario, anchors);
    }

    fn on_bp_start(&mut self, bp: u64, actions: &mut Vec<FaultAction>) {
        let mut disturbed = false;
        for ev in &self.events {
            if ev.start_bp == bp {
                match ev.kind {
                    FaultKind::BurstLoss { p } => actions.push(FaultAction::SetBurstLoss(p)),
                    FaultKind::Crash {
                        node,
                        rejoin_after_bps,
                    } => actions.push(FaultAction::Crash {
                        node,
                        rejoin_after_bps,
                    }),
                    FaultKind::KillReference { rejoin_after_bps } => {
                        actions.push(FaultAction::KillReference { rejoin_after_bps })
                    }
                    FaultKind::ClockStep { node, delta_us } => {
                        // A glitched oscillator invalidates that station's
                        // monotonicity baseline for the rest of the run
                        // (its adjusted clock legitimately jumps, then its
                        // re-discipline slews it again).
                        self.checker.exempt_clock(node, u64::MAX);
                        actions.push(FaultAction::ClockStep { node, delta_us });
                    }
                    FaultKind::ClockFreeze { node } => {
                        self.checker.exempt_clock(node, u64::MAX);
                        actions.push(FaultAction::ClockFreeze { node });
                    }
                    FaultKind::Jam => actions.push(FaultAction::SetJammed(true)),
                    FaultKind::CrashDomain {
                        domain,
                        rejoin_after_bps,
                    } => actions.push(FaultAction::CrashDomain {
                        domain,
                        rejoin_after_bps,
                    }),
                    FaultKind::KillBridge {
                        bridge,
                        rejoin_after_bps,
                    } => actions.push(FaultAction::KillBridge {
                        bridge,
                        rejoin_after_bps,
                    }),
                    FaultKind::Corrupt { .. }
                    | FaultKind::DisclosureLoss { .. }
                    | FaultKind::ChainExhaust { .. } => {}
                }
            }
            if ev.end_bp.checked_add(1) == Some(bp) {
                match ev.kind {
                    FaultKind::BurstLoss { .. } => actions.push(FaultAction::SetBurstLoss(0.0)),
                    FaultKind::ClockFreeze { node } => {
                        actions.push(FaultAction::ClockUnfreeze { node })
                    }
                    FaultKind::Jam => actions.push(FaultAction::SetJammed(false)),
                    _ => {}
                }
            }
            if ev.active_at(bp) {
                disturbed = true;
            }
            // Past chain exhaustion nothing is acceptable, so the network
            // free-runs for good: keep convergence invariants suspended
            // from slightly before the exhaustion point (clock retargets
            // aim m intervals ahead) to the end of the run.
            if let FaultKind::ChainExhaust { intervals } = ev.kind {
                const EXHAUST_MARGIN_BPS: u64 = 16;
                if bp + EXHAUST_MARGIN_BPS >= intervals {
                    disturbed = true;
                }
            }
        }
        if disturbed {
            self.checker.note_disturbance(bp);
        }
    }

    fn on_delivery(&mut self, ctx: &DeliveryCtx, payload: &mut BeaconPayload) -> DeliveryFate {
        for i in 0..self.events.len() {
            let ev = self.events[i];
            if !ev.active_at(ctx.bp) {
                continue;
            }
            match ev.kind {
                FaultKind::Corrupt { field, p } if self.rng.random_bool(p) => {
                    self.corrupt(field, payload);
                }
                FaultKind::DisclosureLoss { p }
                    if payload.is_secured() && self.rng.random_bool(p) =>
                {
                    return DeliveryFate::Drop;
                }
                _ => {}
            }
        }
        DeliveryFate::Deliver
    }

    fn post_delivery(&mut self, obs: &DeliveryObs<'_>) {
        self.checker.post_delivery(obs);
    }

    fn on_bp_end(&mut self, view: &BpView<'_>) {
        self.checker.on_bp_end(view);
    }

    fn on_run_end(&mut self, result: &RunResult) {
        self.checker.on_run_end(result);
    }
}

/// Everything a fault run produces.
pub struct CaseOutcome {
    /// The run's aggregate result.
    pub result: RunResult,
    /// Invariant violations observed under the fault plan (empty for a
    /// correct implementation, whatever the plan).
    pub violations: Vec<Violation>,
}

/// Execute `case`: build its scenario (chain shortened if the plan says
/// so), run it under the fault harness, and return result + violations.
/// Deterministic: the same case always produces the same outcome.
pub fn run_case(case: &FuzzCase) -> CaseOutcome {
    let scenario = case.scenario();
    let mut harness = FaultHarness::new(&case.plan, &scenario);
    let result = Network::build(&scenario).run_with_hook(&mut harness);
    CaseOutcome {
        result,
        violations: harness.into_violations(),
    }
}

/// Stable snake-case token for an invariant kind in trace output.
fn invariant_token(kind: InvariantKind) -> &'static str {
    match kind {
        InvariantKind::ClockMonotonicity => "clock_monotonicity",
        InvariantKind::GuardInfluenceBound => "guard_influence_bound",
        InvariantKind::KeyFreshness => "key_freshness",
        InvariantKind::SpreadBound => "spread_bound",
    }
}

/// [`FaultHarness`] and [`TraceRecorder`] composed into one hook: the fault
/// plan executes exactly as in [`run_case`] while the recorder captures the
/// event stream, interleaving the fault layer's own observations — hook
/// drops and invariant violations — at the position they happened.
struct TracedHarness {
    harness: FaultHarness,
    recorder: TraceRecorder,
    violations_seen: usize,
}

impl TracedHarness {
    /// Mirror checker violations recorded since the last call into the
    /// trace, in order.
    fn drain_violations(&mut self) {
        let all = self.harness.violations();
        for v in &all[self.violations_seen..] {
            self.recorder.push(TraceEvent::Violation {
                bp: v.bp,
                kind: invariant_token(v.kind).to_string(),
                node: v.node,
                detail: v.detail.clone(),
            });
        }
        self.violations_seen = all.len();
    }
}

impl EngineHook for TracedHarness {
    fn on_run_start(&mut self, scenario: &ScenarioConfig, anchors: &AnchorRegistry) {
        self.harness.on_run_start(scenario, anchors);
        self.recorder.on_run_start(scenario, anchors);
    }

    fn on_bp_start(&mut self, bp: u64, actions: &mut Vec<FaultAction>) {
        self.harness.on_bp_start(bp, actions);
    }

    fn on_beacon_tx(&mut self, bp: u64, src: NodeId) {
        self.recorder.on_beacon_tx(bp, src);
    }

    fn on_delivery(&mut self, ctx: &DeliveryCtx, payload: &mut BeaconPayload) -> DeliveryFate {
        let fate = self.harness.on_delivery(ctx, payload);
        if fate == DeliveryFate::Drop {
            self.recorder.push(TraceEvent::HookDrop {
                bp: ctx.bp,
                src: ctx.src,
                dst: ctx.dst,
            });
        }
        fate
    }

    fn post_delivery(&mut self, obs: &DeliveryObs<'_>) {
        self.harness.post_delivery(obs);
        self.recorder.post_delivery(obs);
        self.drain_violations();
    }

    fn on_bp_end(&mut self, view: &BpView<'_>) {
        self.harness.on_bp_end(view);
        self.drain_violations();
        self.recorder.on_bp_end(view);
    }

    fn on_run_end(&mut self, result: &RunResult) {
        self.harness.on_run_end(result);
        self.drain_violations();
        self.recorder.on_run_end(result);
    }
}

/// Everything a traced fault run produces.
pub struct TracedOutcome {
    /// The run's aggregate result.
    pub result: RunResult,
    /// Invariant violations observed under the fault plan.
    pub violations: Vec<Violation>,
    /// The full structured trace of the run, violations interleaved.
    pub events: Vec<TraceEvent>,
}

/// [`run_case`] with trace recording: same fault execution (the plan's RNG
/// stream and the engine's are both untouched by the recorder, so the run
/// is bit-identical to an untraced one), plus the structured event stream.
pub fn run_case_traced(case: &FuzzCase) -> TracedOutcome {
    let scenario = case.scenario();
    let mut hook = TracedHarness {
        harness: FaultHarness::new(&case.plan, &scenario),
        recorder: TraceRecorder::new(),
        violations_seen: 0,
    };
    let result = Network::build(&scenario).run_with_hook(&mut hook);
    let TracedHarness {
        harness, recorder, ..
    } = hook;
    TracedOutcome {
        result,
        violations: harness.into_violations(),
        events: recorder.into_events(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn traced_run_matches_untraced_and_records_hook_drops() {
        // Disclosure loss exercises the hook-drop path; burst loss adds
        // channel-level losses the recorder must NOT see as hook drops.
        let case =
            FuzzCase::from_str("n=6 dur=10 seed=11 m=4 delta=300 plan=5 discloss@5..60:p=0.5")
                .expect("valid spec");
        let plain = run_case(&case);
        let traced = run_case_traced(&case);
        assert_eq!(plain.result.tx_successes, traced.result.tx_successes);
        assert_eq!(
            plain.result.guard_rejections,
            traced.result.guard_rejections
        );
        assert_eq!(
            plain.result.peak_spread_us, traced.result.peak_spread_us,
            "recorder perturbed the run"
        );
        assert_eq!(plain.violations.len(), traced.violations.len());
        let drops = traced
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::HookDrop { .. }))
            .count();
        assert!(drops > 0, "disclosure-loss plan produced no hook drops");
        assert!(matches!(
            traced.events.first(),
            Some(TraceEvent::RunStart { .. })
        ));
        assert!(matches!(
            traced.events.last(),
            Some(TraceEvent::RunEnd { .. })
        ));
        // Violations in the trace mirror the checker's list one-to-one.
        let traced_violations = traced
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Violation { .. }))
            .count();
        assert_eq!(traced_violations, traced.violations.len());
    }
}
