//! Metric declarations and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the benchmark's contract: every
//! name here is declared in `BENCHMARK.json` and nothing else is printed
//! (the crate's tests check both directions). [`PER_LAYER`] also records,
//! for each layer metric, the end-to-end metric and workload it should
//! move — the mapping README.md explains how to read.

use crate::estimate::Tally;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// Declared unit.
    pub unit: &'static str,
    /// Measured value (finite).
    pub value: f64,
}

impl Metric {
    /// A measured value under a declared name and unit.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"` is better.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics of a plain run (`--trace 0`). The timing bounds
/// are set from the repeatability measured on a shared 2-vCPU host
/// (README, "Repeatability and the bounds").
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "bp_per_s",
        unit: "BP/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.02,
    },
];

/// A per-layer metric and the end-to-end metric it should move.
pub struct PerLayer {
    /// Name (`layer.quantity`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"` is better.
    pub better: &'static str,
    /// What it should move, on which workload.
    pub moves: &'static str,
}

macro_rules! layer {
    ($name:literal, $unit:literal, $better:literal, $moves:literal) => {
        PerLayer {
            name: $name,
            unit: $unit,
            better: $better,
            moves: $moves,
        }
    };
}

/// The per-layer ledger of a traced run (`--trace 1`).
pub const PER_LAYER: [PerLayer; 41] = [
    layer!(
        "core.stage.events_ns",
        "ns/node/BP",
        "lower",
        "bp_per_s on paper_fig4 only"
    ),
    layer!(
        "core.stage.intent_ns",
        "ns/node/BP",
        "lower",
        "bp_per_s on large_n5000"
    ),
    layer!(
        "core.stage.window_rx_ns",
        "ns/node/BP",
        "lower",
        "bp_per_s on paper_fig4, mesh_n1003, hostile_mesh; flat on large_n5000"
    ),
    layer!(
        "core.stage.bp_end_ns",
        "ns/node/BP",
        "lower",
        "bp_per_s on large_n5000"
    ),
    layer!(
        "core.stage.metrics_ns",
        "ns/node/BP",
        "lower",
        "bp_per_s on every engine workload"
    ),
    layer!(
        "core.stage.tail_ns",
        "ns/node/BP",
        "lower",
        "bp_per_s on every engine workload"
    ),
    layer!("core.init_ms", "ms", "lower", "bp_per_s on large_n5000"),
    layer!(
        "core.stage_coverage",
        "ratio",
        "higher",
        "none: share of run() the stage split explains"
    ),
    layer!(
        "core.fastpath_share",
        "ratio",
        "higher",
        "none: 1 where a fast-path change can reach"
    ),
    layer!(
        "core.checker_overhead_pct",
        "%",
        "lower",
        "bp_per_s on paper_repro"
    ),
    layer!(
        "core.sweep_speedup_2t",
        "ratio",
        "higher",
        "bp_per_s on paper_repro"
    ),
    layer!(
        "crypto.chain_step_ns",
        "ns",
        "lower",
        "bp_per_s on paper_fig4, mesh_n1003; flat on large_n5000"
    ),
    layer!(
        "crypto.hmac128_ns",
        "ns",
        "lower",
        "bp_per_s on paper_fig4, mesh_n1003; flat on large_n5000"
    ),
    layer!(
        "crypto.sign_ns",
        "ns",
        "lower",
        "bp_per_s on paper_fig4, mesh_n1003; flat on large_n5000"
    ),
    layer!(
        "crypto.verify_ns",
        "ns",
        "lower",
        "bp_per_s on paper_fig4, mesh_n1003; flat on large_n5000"
    ),
    layer!(
        "crypto.anchor_us",
        "us",
        "lower",
        "core.init_ms, hence bp_per_s on large_n5000"
    ),
    layer!(
        "crypto.verify_ok",
        "count/run",
        "higher",
        "none: work count"
    ),
    layer!(
        "crypto.verify_rejected",
        "count/run",
        "lower",
        "none: work count (hostile_mesh)"
    ),
    layer!(
        "protocols.sstsp.on_beacon_ns",
        "ns",
        "lower",
        "bp_per_s on paper_fig4"
    ),
    layer!(
        "protocols.sstsp.on_bp_end_ns",
        "ns",
        "lower",
        "bp_per_s on large_n5000"
    ),
    layer!(
        "protocols.sstsp.accept_ratio",
        "ratio",
        "higher",
        "none: useful share of deliveries"
    ),
    layer!(
        "protocols.sstsp.guard_rejects",
        "count/run",
        "lower",
        "none: work count (hostile_mesh)"
    ),
    layer!(
        "wireless.resolve_window_ns.k1",
        "ns",
        "lower",
        "bp_per_s on paper_fig4"
    ),
    layer!(
        "wireless.resolve_window_ns.k5000",
        "ns",
        "lower",
        "bp_per_s on large_n5000"
    ),
    layer!(
        "wireless.deliver_batch_ns_per_rx",
        "ns",
        "lower",
        "bp_per_s on paper_fig4"
    ),
    layer!(
        "wireless.mesh_resolve_us",
        "us",
        "lower",
        "bp_per_s on mesh_n1003, hostile_mesh"
    ),
    layer!(
        "wireless.mesh_setup_ms",
        "ms",
        "lower",
        "setup_s on mesh_n1003, hostile_mesh"
    ),
    layer!(
        "wireless.window_success_ratio",
        "ratio",
        "higher",
        "none: useful share of windows"
    ),
    layer!("wireless.rx_per_bp", "count", "higher", "none: work count"),
    layer!("mac.draw_slot_ns", "ns", "lower", "bp_per_s on large_n5000"),
    layer!(
        "clocks.local_us_ns",
        "ns",
        "lower",
        "bp_per_s on every engine workload"
    ),
    layer!(
        "simcore.event_ns",
        "ns",
        "lower",
        "bp_per_s on every engine workload (one event per BP)"
    ),
    layer!(
        "simcore.rng_u64_ns",
        "ns",
        "lower",
        "bp_per_s on paper_fig4, large_n5000"
    ),
    layer!(
        "simcore.events_per_bp",
        "count",
        "lower",
        "none: work count"
    ),
    layer!(
        "analysis.spread_sample_ns_per_node",
        "ns",
        "lower",
        "core.stage.metrics_ns"
    ),
    layer!(
        "attacks.campaign_tx",
        "count/run",
        "lower",
        "none: work count (hostile_mesh)"
    ),
    layer!(
        "telemetry.recording_overhead_pct",
        "%",
        "lower",
        "none: the plain run records nothing"
    ),
    layer!(
        "telemetry.encode_ns_per_event",
        "ns",
        "lower",
        "none: observability budget"
    ),
    layer!(
        "telemetry.parse_ns_per_event",
        "ns",
        "lower",
        "none: observability budget"
    ),
    layer!(
        "bench.trace_overhead_pct",
        "%",
        "lower",
        "none: traced vs plain run() time"
    ),
    layer!(
        "bench.host_noise",
        "ratio",
        "lower",
        "none: raw median over best-of-R"
    ),
];

/// One benchmark run's result.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Scenario executions attempted and failed.
    pub tally: Tally,
    /// The metrics; `None` when no scenario completed.
    pub metrics: Option<Vec<Metric>>,
}

impl Outcome {
    /// Wrap a tally and the metrics computed from the scenarios that
    /// completed.
    pub fn new(tally: Tally, metrics: Option<Vec<Metric>>) -> Self {
        Outcome { tally, metrics }
    }

    /// Whether every execution completed and passed its checks, and every
    /// metric is a finite number.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
            && self
                .metrics
                .as_ref()
                .is_some_and(|ms| ms.iter().all(|m| m.value.is_finite()))
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics` (each `{"value": v, "unit": u}`). Values are
    /// printed with every digit (Rust's shortest round-trip form); a
    /// non-finite value, which JSON cannot carry, prints as 0 and makes the
    /// run incorrect.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .flatten()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}
