//! The output checks, the failure accounting, the estimator, the
//! `paper_repro` seed and span self time.

use std::time::Duration;

use simcore::TimeSeries;
use sstsp::{Network, ProtocolKind, ScenarioConfig};
use sstsp_perfbench::digest::run_digest;
use sstsp_perfbench::estimate::{best, median, Tally};
use sstsp_perfbench::plain::{end_to_end, measure_engine, Scenario, MIN_ROUNDS};
use sstsp_perfbench::spans::Tracer;
use sstsp_perfbench::workload::{paper_seed, Size, Workload, PAPER_SEEDS};

#[test]
fn digest_changes_when_one_spread_bit_flips() {
    let cfg = Workload::PaperFig4.scenario(3, Size::Tiny).unwrap();
    let mut r = Network::build(&cfg).run();
    let before = run_digest(&r);
    assert_eq!(
        before,
        run_digest(&Network::build(&cfg).run()),
        "digest is deterministic"
    );

    let mut flipped = TimeSeries::new(r.spread.name());
    let victim = r.spread.len() / 2;
    for (i, (t, v)) in r.spread.iter().enumerate() {
        flipped.push(
            t,
            if i == victim {
                f64::from_bits(v.to_bits() ^ 1)
            } else {
                v
            },
        );
    }
    r.spread = flipped;
    assert_ne!(run_digest(&r), before);
}

#[test]
fn a_panicking_scenario_counts_as_exactly_one_failure() {
    let good = Workload::LargeN5000.scenario(5, Size::Tiny).unwrap();
    // More colluders than island stations: `Network::build` panics.
    let mut bad = ScenarioConfig::new(ProtocolKind::Sstsp, 4, 1.0, 5);
    bad.campaign = Some("jamref:3:0:1".parse().unwrap());
    let outcome = measure_engine(&[good, bad], Duration::ZERO);
    assert_eq!(outcome.tally.failed, 1);
    // Warm-up of both, then every timed round of the good one only.
    assert_eq!(outcome.tally.attempted, 2 + MIN_ROUNDS as u64);
    assert!(
        outcome.metrics.is_some(),
        "the good scenario is still measured"
    );
    assert!(!outcome.correct());

    let mut tally = Tally::default();
    assert_eq!(tally.attempt(|| 7), Some(7));
    assert_eq!(tally.attempt(|| -> u8 { panic!("scenario blew up") }), None);
    assert_eq!(
        tally,
        Tally {
            attempted: 2,
            failed: 1
        }
    );
}

#[test]
fn best_of_r_estimator() {
    assert_eq!(best(&[0.31, 0.29, 0.30, 0.52]), 0.29);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);

    // Two scenarios, three repetitions each; a slow repetition (host noise)
    // never reaches the estimate.
    let a = Scenario {
        bps: 100,
        build_s: vec![0.10, 0.20, 0.10],
        run_s: vec![2.0, 1.0, 9.0],
        peak_bytes: 1 << 20,
    };
    let b = Scenario {
        bps: 300,
        build_s: vec![0.30, 0.30, 0.50],
        run_s: vec![4.0, 5.0, 3.0],
        peak_bytes: 3 << 20,
    };
    let metrics = end_to_end(&[a, b], &[0.1, 0.3]);
    let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
    assert_eq!(value("bp_per_s"), 400.0 / (1.0 + 3.0));
    assert!((value("setup_s") - 0.2).abs() < 1e-12);
    // The median scenario's peak heap.
    assert_eq!(value("peak_heap_mb"), 2.0);
}

#[test]
fn paper_repro_seed_follows_the_seed_argument() {
    assert_eq!(paper_seed(2006), 2006);
    assert_eq!(paper_seed(2007), PAPER_SEEDS[1]);
    // Consecutive seeds walk the whole verified list, then wrap.
    let n = PAPER_SEEDS.len() as u64;
    let walked: Vec<u64> = (2006..2006 + n).map(paper_seed).collect();
    assert_eq!(walked, PAPER_SEEDS);
    assert_eq!(paper_seed(2006 + n), 2006);
    assert_eq!(paper_seed(2005), PAPER_SEEDS[PAPER_SEEDS.len() - 1]);
    assert_eq!(Workload::PaperRepro.seeds(0, Size::Full), [paper_seed(0)]);
}

#[test]
fn span_self_time_excludes_children() {
    let mut t = Tracer::default();
    let sleep = |ms| std::thread::sleep(Duration::from_millis(ms));
    let ((), outer_s) = t.span("outer", |t| {
        sleep(5);
        t.span("inner", |_| sleep(20));
    });
    let spans = t.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
    assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
    let own = t.self_ns();
    let inner = spans[1].end_ns - spans[1].start_ns;
    assert_eq!(own[1], inner);
    assert_eq!(own[0], spans[0].end_ns - spans[0].start_ns - inner);
    assert!(inner >= 20_000_000 && outer_s >= 0.025);
    assert_eq!(t.to_jsonl().lines().count(), 2);
}
