//! Engine-side trace recording.
//!
//! [`TraceRecorder`] is an [`EngineHook`] that turns the hook callbacks into
//! an ordered sequence of [`TraceEvent`]s (the event model and JSONL
//! encoding live in `sstsp_telemetry::trace`). It is purely observational:
//! it never mutates payloads, never drops deliveries, and never emits fault
//! actions, so — like any passive hook — a recorded run is bit-identical to
//! an unrecorded one.
//!
//! Each receiver outcome is the verdict the receiver itself returned from
//! `on_beacon`, the same evidence the invariant checker uses; debug builds
//! of the engine check every verdict against the receiver's SSTSP
//! counters. Protocols without security checks record
//! [`RxOutcome::Ignored`].

use crate::engine::RunResult;
use crate::instrument::{BpView, DeliveryObs, EngineHook};
use crate::scenario::{CampaignSpec, ScenarioConfig, TopologySpec};
use protocols::api::{AnchorRegistry, NodeId, RxVerdict};
use sstsp_telemetry::{RxOutcome, TraceEvent};
use wireless::{DomainDecomposition, Topology};

/// The trace outcome of a receiver's verdict: one outcome per verdict,
/// an accept keeping only its `retarget` flag.
pub fn classify_rx(verdict: RxVerdict) -> RxOutcome {
    match verdict {
        RxVerdict::Ignored => RxOutcome::Ignored,
        RxVerdict::GuardReject => RxOutcome::GuardReject,
        RxVerdict::MuteslaReject => RxOutcome::MuteslaReject,
        RxVerdict::UnknownAnchor => RxOutcome::UnknownAnchor,
        RxVerdict::Accept { retarget, .. } => RxOutcome::Accept { retarget },
    }
}

/// Spread of the honest, present, synchronized clocks in a BP view —
/// `None` when fewer than two stations qualify (distinct from a genuine
/// zero-spread agreement).
fn view_spread_us(view: &BpView<'_>) -> Option<f64> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut n = 0usize;
    for s in view.nodes {
        if s.present && s.honest && s.synchronized {
            lo = lo.min(s.clock_us);
            hi = hi.max(s.clock_us);
            n += 1;
        }
    }
    (n >= 2).then_some(hi - lo)
}

/// A passive [`EngineHook`] that records the run as a [`TraceEvent`] list.
#[derive(Default)]
pub struct TraceRecorder {
    events: Vec<TraceEvent>,
    last_reference: Option<NodeId>,
    domains: Option<DomainDecomposition>,
    last_domain_refs: Vec<Option<NodeId>>,
    /// Campaign annotation state: the shared plan, the compromised id
    /// range, and the BP length in µs (to map bp numbers onto the
    /// activity window the same way the engine's disturbed flag does).
    campaign: Option<(CampaignSpec, std::ops::Range<u32>, f64)>,
}

impl TraceRecorder {
    /// Empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an event out-of-band (fault layers use this to interleave
    /// their own observations — hook drops, invariant violations — at the
    /// position in the stream where they happened).
    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// The recorded events so far.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consume the recorder, returning the recorded events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// The `campaign` annotation for a transmission, if `src` is a
    /// campaign member transmitting inside the plan's activity window
    /// (judged from the BP start time, matching the engine's disturbed
    /// flag). Emitted right after the member's `beacon_tx` so replay
    /// divergence detection covers attacker behavior, not just its
    /// downstream effects.
    fn campaign_annotation(&self, bp: u64, src: NodeId) -> Option<TraceEvent> {
        let (spec, members, bp_us) = self.campaign.as_ref()?;
        if !members.contains(&src) || !spec.active_at(bp as f64 * bp_us / 1e6) {
            return None;
        }
        let member = src - members.start;
        Some(TraceEvent::Campaign {
            bp,
            src,
            member,
            role: spec.role_of(member).token().to_string(),
        })
    }
}

impl EngineHook for TraceRecorder {
    fn on_run_start(&mut self, scenario: &ScenarioConfig, _anchors: &AnchorRegistry) {
        // Mesh runs: rebuild the (deterministic) domain decomposition so the
        // recorder can narrate per-domain reference elections.
        if let Some(TopologySpec::Bridged {
            domains,
            cols,
            rows,
        }) = scenario.topology
        {
            let (_, decomp) = Topology::bridged(domains, cols, rows);
            self.last_domain_refs = vec![None; decomp.len()];
            self.domains = Some(decomp);
        }
        self.campaign = scenario.campaign.map(|spec| {
            (
                spec,
                scenario.campaign_member_ids(),
                scenario.protocol_config.bp_us,
            )
        });
        self.events.push(TraceEvent::RunStart {
            protocol: scenario.protocol.name().to_string(),
            n_nodes: scenario.n_nodes,
            seed: scenario.seed,
        });
    }

    fn on_beacon_tx(&mut self, bp: u64, src: NodeId) {
        self.events.push(TraceEvent::BeaconTx { bp, src });
        if let Some(ev) = self.campaign_annotation(bp, src) {
            self.events.push(ev);
        }
    }

    fn post_delivery(&mut self, obs: &DeliveryObs<'_>) {
        self.events.push(TraceEvent::BeaconRx {
            bp: obs.ctx.bp,
            src: obs.ctx.src,
            dst: obs.ctx.dst,
            t_rx_us: obs.ctx.t_rx.as_us_f64(),
            clock_before_us: obs.clock_before_us,
            outcome: classify_rx(obs.verdict),
        });
    }

    fn on_bp_end(&mut self, view: &BpView<'_>) {
        if let Some(d) = &self.domains {
            for (di, members) in d.domains.iter().enumerate() {
                let holder = members.iter().copied().find(|&id| {
                    let s = &view.nodes[id as usize];
                    s.present && s.is_reference
                });
                if holder != self.last_domain_refs[di] {
                    self.events.push(TraceEvent::DomainRefChange {
                        bp: view.bp,
                        domain: di as u32,
                        from: self.last_domain_refs[di],
                        to: holder,
                    });
                    self.last_domain_refs[di] = holder;
                }
            }
        }
        if view.reference != self.last_reference {
            self.events.push(TraceEvent::RefChange {
                bp: view.bp,
                from: self.last_reference,
                to: view.reference,
            });
            self.last_reference = view.reference;
        }
        self.events.push(TraceEvent::BpEnd {
            bp: view.bp,
            spread_us: view_spread_us(view),
            reference: view.reference,
            disturbed: view.disturbed,
        });
    }

    fn on_run_end(&mut self, result: &RunResult) {
        self.events.push(TraceEvent::RunEnd {
            tx_successes: result.tx_successes,
            tx_collisions: result.tx_collisions,
            guard_rejections: result.guard_rejections,
            mutesla_rejections: result.mutesla_rejections,
            retargets: result.retargets,
            peak_spread_us: result.peak_spread_us,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Network;
    use crate::scenario::ProtocolKind;

    #[test]
    fn recorder_produces_a_well_formed_trace() {
        let cfg = ScenarioConfig::new(ProtocolKind::Sstsp, 5, 6.0, 7);
        let mut rec = TraceRecorder::new();
        let result = Network::build(&cfg).run_with_hook(&mut rec);
        let events = rec.into_events();
        assert!(matches!(events.first(), Some(TraceEvent::RunStart { .. })));
        assert!(matches!(events.last(), Some(TraceEvent::RunEnd { .. })));
        let tx = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::BeaconTx { .. }))
            .count() as u64;
        assert_eq!(tx, result.tx_successes, "one tx event per success");
        let bp_ends = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::BpEnd { .. }))
            .count() as u64;
        assert_eq!(bp_ends, cfg.total_bps(), "one bp_end per beacon period");
        // Accepted deliveries in the trace match the receivers' own counts.
        let accepts = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::BeaconRx {
                        outcome: RxOutcome::Accept { .. },
                        ..
                    }
                )
            })
            .count() as u64;
        assert!(accepts > 0, "a synchronizing run accepts beacons");
        // The recorder is passive: the run matches an unhooked one.
        let plain = Network::build(&cfg).run();
        assert_eq!(result.tx_successes, plain.tx_successes);
        assert_eq!(result.peak_spread_us, plain.peak_spread_us);
    }
}
