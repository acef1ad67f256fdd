//! The benchmark command line.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
//! ```
//!
//! `--trace 0` (the default) prints the end-to-end metrics, `--trace 1` the
//! per-layer ledger. Progress goes to stderr; the last line of stdout is
//! the result object. With `--trace-out`, the traced run's spans are also
//! written there as JSONL.

use std::process::exit;
use std::time::Duration;

use sstsp_perfbench::alloc::CountingAlloc;
use sstsp_perfbench::report::PER_LAYER;
use sstsp_perfbench::spans::Tracer;
use sstsp_perfbench::workload::{Size, Workload};
use sstsp_perfbench::{ledger, plain};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: benchmark --workload paper_fig4|large_n5000|mesh_n1003|hostile_mesh|paper_repro \
[--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::PaperFig4,
        seed: 2006,
        seconds: 20.0,
        trace: false,
        trace_out: None,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("invalid seed `{value}`"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("invalid --seconds `{value}`"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            "--trace-out" => args.trace_out = Some(value),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        exit(2)
    });
    let budget = Duration::from_secs_f64(args.seconds);
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "workload {} seed {} seconds {} trace {} host_threads {host_threads} pool_threads {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plain::pool_threads()
    );
    let outcome = if args.trace {
        let mut tracer = Tracer::default();
        let outcome = ledger::ledger(args.workload, args.seed, Size::Full, budget, &mut tracer);
        if let Some(path) = &args.trace_out {
            if let Err(e) = std::fs::write(path, tracer.to_jsonl()) {
                eprintln!("cannot write spans to {path}: {e}");
                exit(1);
            }
        }
        outcome
    } else {
        plain::measure(args.workload, args.seed, Size::Full, budget)
    };
    for m in outcome.metrics.iter().flatten() {
        // A layer metric is shown with what it should move.
        let moves = PER_LAYER
            .iter()
            .find(|l| l.name == m.name)
            .map_or("", |l| l.moves);
        eprintln!("  {:<36} {:>16.6} {:<10} {moves}", m.name, m.value, m.unit);
    }
    eprintln!(
        "attempted {} failed {}",
        outcome.tally.attempted, outcome.tally.failed
    );
    if outcome.metrics.is_none() {
        eprintln!("no scenario completed; nothing to report");
        exit(1);
    }
    println!("{}", outcome.to_json());
}
