//! Every metric the benchmark prints is declared in `BENCHMARK.json` with
//! the same unit and direction, and every declared metric is printed. The
//! runs use the shrunk `Size::Tiny` inputs and a zero time budget (the
//! minimum number of repetitions), so they finish in a debug build.

mod common;

use std::time::Duration;

use common::Json;
use sstsp_perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use sstsp_perfbench::spans::Tracer;
use sstsp_perfbench::workload::{Size, Workload};
use sstsp_perfbench::{ledger, plain};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// `(name, unit, better)` of a `BENCHMARK.json` metric list.
fn declared(list: &Json) -> Vec<(String, String, String)> {
    list.arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
                m.get("better").str().to_string(),
            )
        })
        .collect()
}

/// `(name, unit)` of every metric on a result line, which must also carry
/// the contract's four keys.
fn printed(outcome: &Outcome) -> Vec<(String, String)> {
    let line = Json::parse(&outcome.to_json());
    assert_eq!(line.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        line.get("correct"),
        &Json::Bool(true),
        "{}",
        outcome.to_json()
    );
    assert!(line.get("attempted").num() >= 1.0);
    let metrics = line.get("metrics");
    metrics
        .keys()
        .into_iter()
        .map(|name| {
            let m = metrics.get(name);
            assert_eq!(m.keys(), ["value", "unit"]);
            assert!(m.get("value").num().is_finite());
            (name.to_string(), m.get("unit").str().to_string())
        })
        .collect()
}

fn names_units(decl: &[(String, String, String)]) -> Vec<(String, String)> {
    decl.iter()
        .map(|(n, u, _)| (n.clone(), u.clone()))
        .collect()
}

#[test]
fn plain_run_prints_exactly_the_declared_end_to_end_metrics() {
    let json = benchmark_json();
    let decl = declared(json.get("end_to_end"));
    let code: Vec<(String, String, String)> = END_TO_END
        .iter()
        .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
        .collect();
    assert_eq!(decl, code);
    for (m, entry) in END_TO_END.iter().zip(json.get("end_to_end").arr()) {
        assert_eq!(entry.get("bound").num(), m.bound, "{}", m.name);
    }
    let outcome = plain::measure(Workload::MeshN1003, 1, Size::Tiny, Duration::ZERO);
    assert_eq!(printed(&outcome), names_units(&decl));
}

#[test]
fn traced_run_prints_exactly_the_declared_per_layer_metrics() {
    let decl = declared(benchmark_json().get("per_layer"));
    let code: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
        .collect();
    assert_eq!(decl, code);
    let outcome = ledger::ledger(
        Workload::HostileMesh,
        1,
        Size::Tiny,
        Duration::ZERO,
        &mut Tracer::default(),
    );
    assert_eq!(printed(&outcome), names_units(&decl));
}

#[test]
fn declared_workloads_are_the_benchmark_workloads() {
    let json = benchmark_json();
    let names: Vec<&str> = json
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let code: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, code);
}
