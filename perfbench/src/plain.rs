//! The plain (untraced) run: end-to-end metrics.
//!
//! Closed loop, one process: scenarios run back to back. Repetitions are
//! seed-major interleaved — round 1 runs every scenario once, then round 2,
//! and so on — so a slow phase of the host lands on different scenarios
//! instead of on every repetition of one. Round 0 is the warm-up: it is not
//! timed, measures each scenario's peak heap (single-threaded, so the
//! figure is exact), and records the digest every later repetition must
//! reproduce. Rounds continue until the time budget is spent, with at least
//! [`MIN_ROUNDS`] timed rounds.

use std::time::{Duration, Instant};

use rayon::ThreadPool;
use sstsp::{Network, ScenarioConfig};

use crate::alloc;
use crate::digest::{run_digest, windows_add_up};
use crate::estimate::{best, median, Tally};
use crate::report::{Metric, Outcome};
use crate::workload::{experiment_setups, fidelity, Size, Workload, EXPERIMENTS};

/// Timed rounds every run makes, whatever its budget: best-of-R needs a
/// few repetitions to mean anything.
pub const MIN_ROUNDS: usize = 3;

const MIB: f64 = 1024.0 * 1024.0;

/// Threads the `paper_repro` sweep pool uses: at most two, never more than
/// the host has.
pub fn pool_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Every timed repetition of one scenario (a seed, or an experiment).
#[derive(Debug, Clone, Default)]
pub struct Scenario {
    /// Beacon periods one execution simulates.
    pub bps: u64,
    /// Set-up seconds per repetition (0 where set-up is not separable).
    pub build_s: Vec<f64>,
    /// Simulation seconds per repetition.
    pub run_s: Vec<f64>,
    /// Peak live heap of the warm-up execution, bytes.
    pub peak_bytes: usize,
}

/// The end-to-end metrics from per-scenario repetitions and per-scenario
/// best set-up times. Scenarios that failed are left out by the caller.
pub fn end_to_end(scenarios: &[Scenario], setup_bests: &[f64]) -> Vec<Metric> {
    let bps: u64 = scenarios.iter().map(|s| s.bps).sum();
    let run_s: f64 = scenarios.iter().map(|s| best(&s.run_s)).sum();
    // The median scenario's peak: the maximum would jump whenever one
    // seed with an unusually large heap enters the seed set.
    let peaks: Vec<f64> = scenarios.iter().map(|s| s.peak_bytes as f64).collect();
    let peak = median(&peaks);
    vec![
        Metric::new("bp_per_s", "BP/s", bps as f64 / run_s),
        Metric::new("setup_s", "s", median(setup_bests)),
        Metric::new("peak_heap_mb", "MiB", peak / MIB),
    ]
}

/// One execution of a scenario.
struct Sample {
    digest: u64,
    bps: u64,
    build_s: f64,
    run_s: f64,
}

/// A scenario's execution; `Err` names a failed output check.
type Exec<'a> = Box<dyn Fn() -> Result<Sample, String> + 'a>;

/// The warm-up round on one thread, then timed rounds on a
/// `timed_threads` pool until `budget` is spent, calling `after_round`
/// after each. Returns the tally and the scenarios that never failed.
fn measure_rounds(
    execs: &[Exec<'_>],
    timed_threads: usize,
    budget: Duration,
    mut after_round: impl FnMut(),
) -> (Tally, Vec<Scenario>) {
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut scenarios = vec![Scenario::default(); execs.len()];
    let mut digests: Vec<Option<u64>> = vec![None; execs.len()];

    // Single-threaded, so the heap figure is exact.
    ThreadPool::new(1).install(|| {
        for (i, exec) in execs.iter().enumerate() {
            let done = tally.attempt(|| {
                let base = alloc::reset_peak();
                let sample = exec();
                (alloc::peak_since(base), sample)
            });
            match done {
                Some((peak, Ok(sample))) => {
                    scenarios[i].bps = sample.bps;
                    scenarios[i].peak_bytes = peak;
                    digests[i] = Some(sample.digest);
                }
                Some((_, Err(why))) => tally.reject(&why),
                None => {}
            }
        }
    });

    let mut rounds = 0;
    ThreadPool::new(timed_threads).install(|| loop {
        let round_start = Instant::now();
        for (i, exec) in execs.iter().enumerate() {
            let Some(want) = digests[i] else { continue };
            match tally.attempt(exec) {
                Some(Ok(sample)) if sample.digest == want => {
                    scenarios[i].build_s.push(sample.build_s);
                    scenarios[i].run_s.push(sample.run_s);
                    continue;
                }
                Some(Ok(_)) => {
                    tally.reject(&format!("scenario {i}: output differs between repetitions"))
                }
                Some(Err(why)) => tally.reject(&why),
                None => {}
            }
            digests[i] = None;
        }
        after_round();
        rounds += 1;
        eprintln!(
            "round {rounds}: {:.4} s",
            round_start.elapsed().as_secs_f64()
        );
        if rounds >= MIN_ROUNDS && start.elapsed() + round_start.elapsed() > budget {
            break;
        }
    });

    let ok = scenarios
        .into_iter()
        .zip(&digests)
        .filter(|(_, d)| d.is_some())
        .map(|(s, _)| s)
        .collect();
    (tally, ok)
}

/// Measure an engine workload over `configs` for about `budget`.
pub fn measure_engine(configs: &[ScenarioConfig], budget: Duration) -> Outcome {
    let execs: Vec<Exec<'_>> = configs
        .iter()
        .map(|cfg| {
            Box::new(move || {
                let t0 = Instant::now();
                let net = Network::build(cfg);
                let t1 = Instant::now();
                let r = net.run();
                let t2 = Instant::now();
                if !windows_add_up(cfg, &r) {
                    return Err(format!(
                        "seed {}: windows do not add up to the BP count",
                        cfg.seed
                    ));
                }
                Ok(Sample {
                    digest: run_digest(&r),
                    bps: cfg.total_bps(),
                    build_s: (t1 - t0).as_secs_f64(),
                    run_s: (t2 - t1).as_secs_f64(),
                })
            }) as Exec<'_>
        })
        .collect();
    let (tally, ok) = measure_rounds(&execs, 1, budget, || {});
    let setup_bests: Vec<f64> = ok.iter().map(|s| best(&s.build_s)).collect();
    Outcome::new(
        tally,
        (!ok.is_empty()).then(|| end_to_end(&ok, &setup_bests)),
    )
}

/// Measure `paper_repro`: the five experiments at one experiment seed on
/// the sweep pool, plus a set-up probe that builds each experiment's main
/// network once per round.
pub fn measure_paper(seed: u64, size: Size, budget: Duration) -> Outcome {
    let fid = fidelity(size);
    let execs: Vec<Exec<'_>> = EXPERIMENTS
        .iter()
        .map(|exp| {
            Box::new(move || {
                let t0 = Instant::now();
                let out = (exp.run)(fid, seed);
                let run_s = t0.elapsed().as_secs_f64();
                if !out.shape_holds {
                    return Err(format!("{}: shape_holds() is false", exp.name));
                }
                Ok(Sample {
                    digest: out.digest,
                    bps: out.bps,
                    build_s: 0.0,
                    run_s,
                })
            }) as Exec<'_>
        })
        .collect();
    let setups = experiment_setups(fid, seed);
    let mut setup_s: Vec<Vec<f64>> = vec![Vec::new(); setups.len()];
    let probe = || {
        for (cfg, samples) in setups.iter().zip(&mut setup_s) {
            let t0 = Instant::now();
            let net = Network::build(cfg);
            samples.push(t0.elapsed().as_secs_f64());
            drop(net);
        }
    };
    let (tally, ok) = measure_rounds(&execs, pool_threads(), budget, probe);
    let setup_bests: Vec<f64> = setup_s.iter().map(|s| best(s)).collect();
    Outcome::new(
        tally,
        (!ok.is_empty()).then(|| end_to_end(&ok, &setup_bests)),
    )
}

/// The plain run of `workload` at `seed` for about `budget`.
pub fn measure(workload: Workload, seed: u64, size: Size, budget: Duration) -> Outcome {
    match workload {
        Workload::PaperRepro => measure_paper(workload.seeds(seed, size)[0], size, budget),
        _ => {
            let configs: Vec<ScenarioConfig> = workload
                .seeds(seed, size)
                .into_iter()
                .map(|s| workload.scenario(s, size).expect("engine workload"))
                .collect();
            measure_engine(&configs, budget)
        }
    }
}
